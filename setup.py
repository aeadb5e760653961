"""Setuptools packaging for the GTPQ/GTEA reproduction (src/ layout)."""

import pathlib

from setuptools import find_packages, setup

README = pathlib.Path(__file__).parent / "README.md"

setup(
    name="repro-gtpq",
    version="1.0.0",
    description=(
        "Reproduction of 'Adding Logical Operators to Tree Pattern Queries "
        "on Graph-Structured Data' (Zeng, Jiang, Zhuge; VLDB 2012) with a "
        "query-session serving layer"
    ),
    long_description=README.read_text() if README.exists() else "",
    long_description_content_type="text/markdown",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=[],
    extras_require={
        "bench": [
            "pytest",
            "pytest-benchmark",
            "hypothesis",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro-bench=repro.bench.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Database",
        "Topic :: Scientific/Engineering",
    ],
)
