"""One round of a workload: fresh program state, byte-identical inputs.

Library-mode workloads drive ``QuerySession(graph).evaluate(json_line)``
from one client; ``serve_zipf`` spawns ``python -m repro.serve`` and is
its client over one closed-loop NDJSON TCP connection.  Both run the
calibration kernel (method.py) between operations and compare every
response with its reference answer.
"""

from __future__ import annotations

import gc
import json
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine import QuerySession

from method import Calibrator
from workloads import XMARK_SCALE, XMARK_SEED, Inputs, Op, apply_mutation, make_graph

#: kernel runs on each side of a set-up or a first answer.
COLD_KERNEL_RUNS = 3
#: set-ups timed per cold cycle (library mode; the last one is kept).
SETUP_REPEATS = 3
#: requests between two pauses of the connection (kernel runs there).
SERVE_BLOCK = 10
SERVE_KERNEL_RUNS = 2
SERVER_READY_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 20.0
REQUEST_TIMEOUT_S = 30.0


@dataclass
class RoundResult:
    """Timings of one round; ``*_n*`` fields are speed-normalised."""

    setup_ns: list[float] = field(default_factory=list)  #: s, one per cold cycle
    first_nms: list[float] = field(default_factory=list)
    first_ms: list[float] = field(default_factory=list)
    latency_nms: list[float] = field(default_factory=list)  #: steady query ops
    latency_ms: list[float] = field(default_factory=list)
    #: wall of each steady operation in replay order, mutations
    #: included; throughput sums these.
    unit_nwall_s: list[float] = field(default_factory=list)
    unit_wall_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float | None = None  #: server VmHWM (serve_zipf only)
    wall_s: float = 0.0  #: whole round, kernels included (budgeting)


def timed_op(run_op, position: int, op: Op) -> tuple[float, bool]:
    """``run_op(position, op) -> answered correctly``, timed; returns
    (seconds, ok)."""
    started = time.perf_counter()
    try:
        ok = run_op(position, op)
    except Exception:  # a failed operation is a measurement, not a crash
        ok = False
    return time.perf_counter() - started, ok


def session_op(session, graph):
    """The ``run_op`` of library mode: mutate the graph or ask the session."""

    def run_op(position: int, op: Op) -> bool:
        if op.kind == "mutate":
            apply_mutation(graph, op)
            return True
        return session.evaluate(op.text) == op.reference

    return run_op


def kernel_runs_after(seconds: float) -> int:
    """Kernel runs after an operation that took ``seconds``: one per
    12 ms of it (1..4), so the kernel keeps about a third of the clock
    whether operations take 9 ms or 60."""
    return min(4, max(1, round(seconds * 1000.0 / 12.0)))


def replay(ops: list[Op], calib: Calibrator, run_op, first_position: int = 0):
    """Run ``ops`` through ``run_op`` with the calibration kernel between
    every two operations.  Returns per operation ``(op, seconds, ok,
    factor)``; the speed factor is the mean of the two kernel timings
    before the operation and the two after it, over ``KREF_MS``."""
    kernel_ms = [calib.sample_ms()]
    timings = []
    for position, op in enumerate(ops, first_position):
        timings.append(timed_op(run_op, position, op))
        kernel_ms.append(calib.sample_ms(kernel_runs_after(timings[-1][0])))
    return [
        (op, seconds, ok, calib.factor(kernel_ms[max(0, j - 1) : j + 3]))
        for j, (op, (seconds, ok)) in enumerate(zip(ops, timings))
    ]


def library_round(inputs: Inputs, calib: Calibrator, cold_cycles: int) -> RoundResult:
    """``cold_cycles`` fresh set-ups each answering the first query; the
    last one goes on to replay operations 2..N with the calibration
    kernel between every two operations."""
    result = RoundResult()
    round_started = time.perf_counter()
    first, steady = inputs.ops[0], inputs.ops[1:]
    gc.collect()
    for cycle in range(cold_cycles):
        middle = calib.sample_ms(COLD_KERNEL_RUNS)
        for _ in range(SETUP_REPEATS):
            before = middle
            started = time.perf_counter()
            graph = make_graph(inputs.name)
            session = QuerySession(graph)
            setup_s = time.perf_counter() - started
            middle = calib.sample_ms(COLD_KERNEL_RUNS)
            result.setup_ns.append(setup_s / calib.factor([before, middle]))
        first_s, ok = timed_op(session_op(session, graph), 0, first)
        after = calib.sample_ms(COLD_KERNEL_RUNS)
        result.first_nms.append(first_s * 1000.0 / calib.factor([middle, after]))
        result.first_ms.append(first_s * 1000.0)
        result.attempted += 1
        result.failed += not ok
        if cycle < cold_cycles - 1:
            session.close()
    replayed = replay(steady, calib, session_op(session, graph), first_position=1)
    session.close()
    for op, seconds, ok, factor in replayed:
        result.attempted += 1
        result.failed += not ok
        result.unit_wall_s.append(seconds)
        result.unit_nwall_s.append(seconds / factor)
        if op.kind == "query":
            result.latency_ms.append(seconds * 1000.0)
            result.latency_nms.append(seconds * 1000.0 / factor)
    result.wall_s = time.perf_counter() - round_started
    return result


# ----------------------------------------------------------------------
# serve_zipf: the server process and its two-connection client
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro.serve`` on an ephemeral port, stderr to a log."""

    def __init__(self, repo: Path, store: Path, log_path: Path, workers: int = 2):
        self.address: tuple[str, int] | None = None
        self._log = open(log_path, "ab")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--scale", str(XMARK_SCALE), "--seed", str(XMARK_SEED),
                "--workers", str(workers), "--port", "0", "--store", str(store),
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=str(repo),
        )

    def wait_ready(self) -> bool:
        """Parse ``serving on HOST:PORT ...`` from stdout, with a bound."""
        deadline = time.monotonic() + SERVER_READY_TIMEOUT_S
        pipe = self.process.stdout
        buffered = b""
        while b"\n" not in buffered:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                return False
            readable, _, _ = select.select([pipe], [], [], min(remaining, 0.5))
            if readable:
                chunk = os.read(pipe.fileno(), 4096)
                if not chunk:
                    return False
                buffered += chunk
        words = buffered.split(b"\n", 1)[0].decode("utf-8", "replace").split()
        if len(words) < 3 or words[:2] != ["serving", "on"]:
            return False
        host, _, port = words[2].rpartition(":")
        self.address = (host, int(port))
        return True

    def peak_rss_mb(self) -> float | None:
        """``VmHWM`` of the live server process, in MiB."""
        try:
            with open(f"/proc/{self.process.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return None

    def stop(self) -> None:
        """SIGINT (the server persists its store on the way out), then a
        bounded wait; a server that will not leave is killed."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


class Connection:
    """One closed-loop NDJSON client connection."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self.sock.makefile("rb")

    def request(self, op: Op) -> tuple[float, bool, int]:
        """Send one query line, wait for its reply: ``(seconds, answered
        correctly, response bytes)``.  A closed connection or a timeout
        raises ``OSError`` — the round is over."""
        line = json.dumps({"query": op.text}).encode("utf-8") + b"\n"
        started = time.perf_counter()
        self.sock.sendall(line)
        reply = self._reader.readline()
        seconds = time.perf_counter() - started
        if not reply.endswith(b"\n"):
            raise ConnectionError("server closed the connection")
        return seconds, _response_ok(reply, op), len(reply)

    def close(self) -> None:
        self._reader.close()
        self.sock.close()


def _response_ok(line: bytes, op: Op) -> bool:
    try:
        response = json.loads(line)
        if not response.get("ok"):
            return False
        if op.reference is None:  # priming: only ``ok`` is checked
            return True
        return frozenset(tuple(row) for row in response["results"]) == op.reference
    except (ValueError, KeyError, TypeError):
        return False


def prime_store(inputs: Inputs, repo: Path, store: Path, log_path: Path) -> bool:
    """The untimed priming run: serve ``inputs.prime`` against an empty
    store and stop with SIGINT so the server persists what it learned.
    One worker: a server persists its warmest worker only, so a single
    worker is what makes the primed store hold every answer of the
    priming stream, for every seed."""
    server = ServerProcess(repo, store, log_path, workers=1)
    try:
        if not server.wait_ready():
            return False
        connection = Connection(server.address)
        try:
            return all(
                connection.request(Op("query", text=line, reference=None))[1]
                for line in inputs.prime
            )
        finally:
            connection.close()
    except OSError:
        return False
    finally:
        server.stop()


def serve_round(
    inputs: Inputs, calib: Calibrator, repo: Path, primed: Path, scratch: Path, log_path: Path
) -> RoundResult:
    """Spawn a server on its own copy of the primed store, time ready,
    first answer and the steady stream, read ``VmHWM``, stop it."""
    result = RoundResult()
    round_started = time.perf_counter()
    store = scratch / "round-store"
    shutil.rmtree(store, ignore_errors=True)
    shutil.copytree(primed, store)
    first, steady = inputs.ops[0], inputs.ops[1:]
    gc.collect()
    before = calib.sample_ms(COLD_KERNEL_RUNS)
    started = time.perf_counter()
    server = ServerProcess(repo, store, log_path)
    connection = None
    try:
        ready = server.wait_ready()
        setup_s = time.perf_counter() - started
        middle = calib.sample_ms(COLD_KERNEL_RUNS)
        if not ready:
            result.attempted = result.failed = len(inputs.ops)
            return result
        result.setup_ns.append(setup_s / calib.factor([before, middle]))
        first_started = time.perf_counter()
        connection = Connection(server.address)
        _, ok, _ = connection.request(first)
        first_s = time.perf_counter() - first_started
        after = calib.sample_ms(COLD_KERNEL_RUNS)
        result.first_ms.append(first_s * 1000.0)
        result.first_nms.append(first_s * 1000.0 / calib.factor([middle, after]))
        result.attempted += 1
        result.failed += not ok
        before = after
        for start in range(0, len(steady), SERVE_BLOCK):
            block = steady[start : start + SERVE_BLOCK]
            answers = [connection.request(op) for op in block]
            after = calib.sample_ms(SERVE_KERNEL_RUNS)
            factor = calib.factor([before, after])
            before = after
            for seconds, ok, _ in answers:
                result.attempted += 1
                result.failed += not ok
                result.latency_ms.append(seconds * 1000.0)
                result.latency_nms.append(seconds * 1000.0 / factor)
                result.unit_wall_s.append(seconds)
                result.unit_nwall_s.append(seconds / factor)
        result.peak_rss_mb = server.peak_rss_mb()
    except OSError:
        # The server went away or stopped answering: the rest failed.
        result.failed += len(inputs.ops) - result.attempted
        result.attempted = len(inputs.ops)
    finally:
        if connection is not None:
            connection.close()
        server.stop()
        shutil.rmtree(store, ignore_errors=True)
    result.wall_s = time.perf_counter() - round_started
    return result
