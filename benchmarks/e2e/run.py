"""The repo's one benchmark: end-to-end and per-layer, four workloads.

    python3 benchmarks/e2e/run.py                       # all workloads, table + out/results.json
    python3 benchmarks/e2e/run.py --workload xmark_tpq --seed 3 --seconds 24 --trace 0
    python3 benchmarks/e2e/run.py --quick               # smoke only, NOT comparable

With ``--workload`` the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
README.md in this directory documents the method and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"

if not (REPO / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: no program to measure: {REPO / 'src' / 'repro'} is missing")
sys.path[:0] = [str(REPO / "src"), str(HERE)]

from method import Calibrator, median, percentile  # noqa: E402
from rounds import RoundResult, library_round, prime_store, serve_round  # noqa: E402
from workloads import WORKLOADS, Inputs, build_inputs  # noqa: E402

DEFAULT_SEED = 12
#: fresh set-ups (each with a first answer) per library-mode round.
COLD_CYCLES = 4
MIN_ROUNDS = 3
QUICK_FRACTION = 0.1
QUICK_ROUNDS = 2


def load_spec() -> dict:
    with open(REPO / "BENCHMARK.json") as handle:
        return json.load(handle)


class Bench:
    """One workload's inputs, scratch space and round runner."""

    def __init__(self, workload: str, seed: int, quick: bool = False):
        self.workload = workload
        fraction = QUICK_FRACTION if quick else 1.0
        self.cold_cycles = 1 if quick else COLD_CYCLES
        self.calib = Calibrator()
        self.inputs: Inputs = build_inputs(workload, seed, fraction)
        self.scratch = OUT / f"tmp-{os.getpid()}"
        self.log_path = OUT / f"server_{workload}.stderr.log"
        self.primed: Path | None = None
        self.prime_ok = True

    def __enter__(self) -> "Bench":
        OUT.mkdir(parents=True, exist_ok=True)
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        if self.workload == "serve_zipf":
            self.primed = self.scratch / "primed-store"
            self.prime_ok = prime_store(self.inputs, REPO, self.primed, self.log_path)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def round(self) -> RoundResult:
        if self.workload == "serve_zipf":
            return serve_round(
                self.inputs, self.calib, REPO, self.primed, self.scratch, self.log_path
            )
        return library_round(self.inputs, self.calib, self.cold_cycles)

    def rounds_until(self, seconds: float, fixed_rounds: int | None) -> list[RoundResult]:
        """Rounds for ``seconds`` (at least ``MIN_ROUNDS``): a new round
        starts only while the slowest round so far still fits.
        ``fixed_rounds`` (--quick) replaces the time box."""
        deadline = time.perf_counter() + seconds
        rounds: list[RoundResult] = []
        while True:
            rounds.append(self.round())
            if fixed_rounds is not None:
                if len(rounds) >= fixed_rounds:
                    return rounds
            elif len(rounds) >= MIN_ROUNDS:
                longest = max(r.wall_s for r in rounds)
                if time.perf_counter() + longest > deadline:
                    return rounds


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def typical(rounds: list[RoundResult], field: str) -> list[float]:
    """Per steady operation (or unit), the median across rounds of its
    timing: every round replays the same inputs, so position ``j`` is the
    same operation in each, and the median drops the rounds in which a
    machine hiccup landed on it."""
    series = [getattr(r, field) for r in rounds if getattr(r, field)]
    return [median(values) for values in zip(*series)]


def end_to_end(rounds: list[RoundResult]) -> dict[str, float]:
    """The end-to-end metrics: medians across rounds (method.py)."""
    latencies = typical(rounds, "latency_nms")
    server_rss = [r.peak_rss_mb for r in rounds if r.peak_rss_mb is not None]
    return {
        "setup_s": median([v for r in rounds for v in r.setup_ns]),
        "first_answer_nms": median([v for r in rounds for v in r.first_nms]),
        "latency_nms_p50": median(latencies),
        "latency_nms_p90": percentile(latencies, 90),
        "throughput_nqps": len(latencies) / sum(typical(rounds, "unit_nwall_s")),
        "peak_rss_mb": median(server_rss) if server_rss else own_peak_rss_mb(),
    }


def raw_diagnostics(rounds: list[RoundResult], calib: Calibrator) -> dict[str, float]:
    """Un-normalised figures and the machine state (per-layer ``raw.*``)."""
    latencies = typical(rounds, "latency_ms")
    return {
        "raw.latency_ms_p50": median(latencies),
        "raw.latency_ms_p90": percentile(latencies, 90),
        "raw.throughput_qps": len(latencies) / sum(typical(rounds, "unit_wall_s")),
        "raw.first_answer_ms": median([v for r in rounds for v in r.first_ms]),
        "calib.factor_p50": median(calib.factors),
        "calib.factor_max": max(calib.factors),
    }


def run_workload(args) -> dict:
    """Measure one workload; returns the result object of the contract
    plus an ``info`` block (rounds, sizes) the table printer uses."""
    spec = load_spec()
    fixed_rounds = QUICK_ROUNDS if args.quick else None
    with Bench(args.workload, args.seed, args.quick) as bench:
        inputs = bench.inputs
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "ops_per_round": len(inputs.ops),
            "distinct_queries": len(inputs.distinct),
            "answers_sha256": inputs.answers_sha256,
            "comparable": not args.quick,
        }
        if not bench.prime_ok:
            # No primed store, no serve_zipf: report every op failed.
            return {"correct": False, "attempted": len(inputs.ops),
                    "failed": len(inputs.ops), "metrics": {}, "info": info}
        if args.trace:
            import layers

            rounds, values = layers.traced_run(bench, REPO, OUT)
            values.update(raw_diagnostics(rounds, bench.calib))
            wanted = spec["per_layer"]
        else:
            rounds = bench.rounds_until(args.seconds, fixed_rounds)
            values = end_to_end(rounds)
            wanted = spec["end_to_end"]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    info["rounds"] = len(rounds)
    info["cold_samples"] = sum(len(r.first_nms) for r in rounds)
    info["failed_share"] = failed / attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


def print_metrics(result: dict) -> None:
    info = result["info"]
    label = "" if info["comparable"] else "  [--quick: NOT comparable with any other run]"
    print(f"== {info['workload']} (seed {info['seed']}, {info.get('rounds', 0)} rounds x "
          f"{info['ops_per_round']} ops, {info['distinct_queries']} distinct queries, "
          f"{info.get('cold_samples', 0)} cold samples){label}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:>14.4f} {metric['unit']}")
    print(f"  ops_attempted {result['attempted']}  ops_failed {result['failed']}  "
          f"failed_share {info.get('failed_share', 1.0):.6f}  correct {result['correct']}")


def environment() -> dict:
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass  # the benchmark also runs from a plain checkout
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "commit": commit}


def run_all(args) -> int:
    """Every workload in its own process (so ``peak_rss_mb`` is that
    workload's alone), end-to-end then traced; table + out/results.json."""
    started = time.perf_counter()
    spec = load_spec()
    report = {"environment": environment(), "seed": args.seed, "quick": args.quick,
              "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0,) if args.quick else (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--full-result"]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            print_metrics(result)
            ok = ok and result["correct"]
            report["workloads"].setdefault(workload, {})["traced" if trace else "end_to_end"] = result
    report["wall_s"] = time.perf_counter() - started
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.json", "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print(f"environment {report['environment']}  wall {report['wall_s']:.1f} s  "
          f"-> {OUT / 'results.json'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics, span file)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 2 rounds, a tenth of the ops, one cold cycle, no trace; not comparable")
    parser.add_argument("--full-result", action="store_true",
                        help="keep the info block in the result line (used by the all-workloads mode)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.workload is None:
        return run_all(args)
    result = run_workload(args)
    if not result["metrics"]:
        print("run.py: the workload could not run (server never came up)", file=sys.stderr)
        return 1
    print_metrics(result)
    if not args.full_result:
        del result["info"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
