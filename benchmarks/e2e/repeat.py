"""Does the benchmark repeat?  Run it K times on one commit and compare.

    python3 benchmarks/e2e/repeat.py                   # K = 5, one seed
    python3 benchmarks/e2e/repeat.py --runs 10 --vary-seed

Per workload x end-to-end metric it prints the median, the quartile
spread ``(Q3 - Q1) / median`` and the full spread ``(max - min) /
median`` beside the metric's bound from BENCHMARK.json, and exits
non-zero when a spread exceeds its bound (``setup_s`` is printed but not
gated, as in the acceptance check).  ``--save`` writes the table to
``baseline.json`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from method import median, spread_iqr, spread_range  # noqa: E402


def one_run(workload: str, seed: int, seconds: float | None) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "0", "--full-result"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"repeat.py: {' '.join(command)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="K, at least 5")
    parser.add_argument("--seed", type=int, default=12, help="the seed (first seed with --vary-seed)")
    parser.add_argument("--vary-seed", action="store_true",
                        help="run i uses seed + i, as the acceptance check does")
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--save", action="store_true", help="write baseline.json")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")

    with open(HERE.parents[1] / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report = {"runs": args.runs, "seed": args.seed, "vary_seed": args.vary_seed, "workloads": {}}
    exceeded = []
    for workload in workloads:
        runs = [
            one_run(workload, args.seed + (i if args.vary_seed else 0), args.seconds)
            for i in range(args.runs)
        ]
        failed = sum(run["failed"] for run in runs)
        rows = {}
        print(f"== {workload}: {args.runs} runs, ops_failed {failed}")
        print(f"  {'metric':<20} {'median':>12} {'IQR/med':>9} {'range/med':>10} {'bound':>7}")
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            row = {
                "median": median(values),
                "iqr_share": spread_iqr(values),
                "range_share": spread_range(values),
                "bound": metric["bound"],
                "values": values,
            }
            rows[metric["name"]] = row
            gated = metric["name"] != "setup_s"
            over = gated and row["iqr_share"] > metric["bound"]
            if over or failed:
                exceeded.append((workload, metric["name"]))
            print(f"  {metric['name']:<20} {row['median']:>12.4f} {row['iqr_share']:>9.4f} "
                  f"{row['range_share']:>10.4f} {metric['bound']:>7.2f}"
                  f"{'  EXCEEDED' if over else ''}{'' if gated else '  (not gated)'}")
        report["workloads"][workload] = {
            "answers_sha256": runs[0]["info"]["answers_sha256"],
            "rounds": [run["info"]["rounds"] for run in runs],
            "ops_per_round": runs[0]["info"]["ops_per_round"],
            "ops_failed": failed,
            "metrics": rows,
        }
    if args.save:
        with open(HERE / "baseline.json", "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if exceeded:
        print(f"repeat.py: {len(exceeded)} spread(s) over the bound: {exceeded}")
        return 1
    print("repeat.py: every spread is within its bound")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
