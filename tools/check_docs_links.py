#!/usr/bin/env python3
"""Verify internal Markdown links in docs/ and the README resolve, and
that the documents Python files cite exist.

Checks every inline link/image target in the repository's top-level
``*.md`` files and everything under ``docs/``:

* relative file targets must exist on disk;
* ``#fragment`` anchors (own-file or ``file.md#fragment``) must match a
  heading in the target file, using GitHub's slug rules (lowercase,
  punctuation stripped, spaces to hyphens, ``-N`` suffixes for
  duplicates);
* external targets (``http(s)://``, ``mailto:``) are skipped, as are
  site-relative targets that resolve outside the repository (e.g. the
  README's ``../../actions/...`` CI badge, a GitHub-web convention).

Every ``*.md`` name cited in a ``.py`` file under ``src/``, ``tests/``,
``benchmarks/`` or ``tools/`` (a docstring's "see docs/ARCHITECTURE.md")
must name a file at the repository root, under ``docs/`` or in the
citing file's directory.

Stdlib only.  Exit status: 0 when every link and citation resolves, 1
otherwise (one ``file:line: message`` diagnostic per broken one).
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: inline links and images: [text](target) / ![alt](target).
LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
CODE_FENCE = re.compile(r"^\s*(```|~~~)")
EXTERNAL = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")  # any URI scheme
#: a document name cited in Python source: a path that ends in ``.md``.
CITED = re.compile(r"[\w./-]*\w\.md\b")
CITING_DIRS = ("src", "tests", "benchmarks", "tools")
#: names this tool's own docstring uses as examples, not citations.
EXAMPLE_NAMES = frozenset({"file.md"})


def github_slug(heading: str, seen: dict[str, int]) -> str:
    """The anchor GitHub generates for ``heading`` (with dedup suffix)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # unwrap inline code
    text = re.sub(r"!?\[([^\]]*)\]\([^)]*\)", r"\1", text)  # unwrap links
    slug = re.sub(r"[^\w\- ]", "", text.lower()).strip().replace(" ", "-")
    count = seen.get(slug, 0)
    seen[slug] = count + 1
    return slug if count == 0 else f"{slug}-{count}"


def markdown_lines(path: pathlib.Path):
    """(line_number, line) pairs with fenced code blocks blanked out."""
    in_fence = False
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if CODE_FENCE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield number, line


def heading_anchors(path: pathlib.Path) -> set[str]:
    anchors: set[str] = set()
    seen: dict[str, int] = {}
    for _, line in markdown_lines(path):
        match = HEADING.match(line)
        if match:
            anchors.add(github_slug(match.group(2), seen))
    return anchors


def check_file(path: pathlib.Path, anchor_cache: dict) -> list[str]:
    errors = []
    for number, line in markdown_lines(path):
        for match in LINK.finditer(line):
            target = match.group(1)
            if EXTERNAL.match(target):
                continue
            file_part, _, fragment = target.partition("#")
            if file_part:
                resolved = (path.parent / file_part).resolve()
                if not resolved.is_relative_to(REPO_ROOT):
                    continue  # site-relative GitHub-web target
                if not resolved.exists():
                    errors.append(
                        f"{path.relative_to(REPO_ROOT)}:{number}: "
                        f"broken link target {target!r}"
                    )
                    continue
            else:
                resolved = path.resolve()
            if fragment and resolved.suffix == ".md":
                anchors = anchor_cache.get(resolved)
                if anchors is None:
                    anchors = heading_anchors(resolved)
                    anchor_cache[resolved] = anchors
                if fragment not in anchors:
                    errors.append(
                        f"{path.relative_to(REPO_ROOT)}:{number}: "
                        f"no heading for anchor {target!r} in "
                        f"{resolved.relative_to(REPO_ROOT)}"
                    )
    return errors


def check_citations(path: pathlib.Path) -> list[str]:
    """The ``*.md`` names ``path`` cites that resolve nowhere."""
    errors = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        for name in CITED.findall(line):
            if name in EXAMPLE_NAMES:
                continue
            places = (REPO_ROOT, REPO_ROOT / "docs", path.parent)
            if not any((place / name).is_file() for place in places):
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}:{number}: cited document {name!r} "
                    "is not at the repo root, under docs/ or beside the file"
                )
    return errors


def main() -> int:
    files = sorted(REPO_ROOT.glob("*.md")) + sorted(REPO_ROOT.glob("docs/**/*.md"))
    sources = sorted(
        path for folder in CITING_DIRS for path in (REPO_ROOT / folder).rglob("*.py")
    )
    anchor_cache: dict = {}
    errors = []
    for path in files:
        errors.extend(check_file(path, anchor_cache))
    for path in sources:
        errors.extend(check_citations(path))
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {len(files)} markdown files and {len(sources)} Python files: "
          f"{'OK' if not errors else f'{len(errors)} broken link(s) or citation(s)'}")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
