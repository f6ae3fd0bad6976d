#!/usr/bin/env python3
"""spherecurv benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. Each operation is `spherecurv.cli.main(argv)` called in-process with
stdout captured, the JSON report parsed and checked. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones read from spans (written to .bench_out/). See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import multiprocessing
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
import layers
from layers import IDENTITIES
from tracer import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# No workload samples cartan: its Newton projection stalls on about 2 in 10^4
# start points (`analyze --surface cartan --t pi/8 --samples 64 --seed 300059`
# fails point 52), so runs would count failed operations. The entry stays
# so the self-tests can check real cartan reports.
SURFACE_ARGV = {
    "cartan": ["analyze", "--surface", "cartan", "--t", "pi/8"],
    "equator": ["analyze", "--surface", "equator"],
}
POINTS_GROUP = "equator"  # the group points_per_s is read from
# Points or trials per call, sized to roughly 40 ms each at workers 1, so that
# every group gets a few dozen calls in a run; g2 and recover get about twice
# that, as their cost per trial varies most with the drawn input.
BATCH = {
    "equator": 112,
    "g2": 200, "g3": 160, "vandermonde": 28, "i-closed": 56, "i-sign": 112, "dpsi": 32, "recover": 14,
}
# Calls of the workers-1/workers-2 pair: large enough that the pool's start-up
# does not dominate the workers-2 time.
PAIR_BATCH = {"equator": 256, "i-sign": 336}
HEIGHT = 1000
WORKERS_MAX = 2
OP_TIMEOUT_S = 20.0
PROBE_TIMEOUT_S = 10.0
# A run that has used --seconds plus this much wall time stops after the
# current call, and every call from then on gets only MIN_TIMEOUT_S, so a
# program that hangs everywhere still ends the run within three minutes.
BUDGET_SLACK_S = 80.0
MIN_TIMEOUT_S = 0.5
SETUP_PROBES = 7
# Rates and set-up times are scaled to a machine on which reference_loop()
# takes this long. On a shared 2-core box the raw rates drift by a third
# between runs; the scaled ones by a few percent.
REF_NOMINAL_S = 0.005
SEED_STRIDE = 100_000

END_TO_END = (
    [("setup_s", "s"), ("points_per_s", "1/s")]
    + [(f"trials_per_s.{i}", "1/s") for i in IDENTITIES]
    + [("peak_rss_mb", "MB"), ("success_ratio", "ratio")]
)


@dataclass(frozen=True)
class Workload:
    """A cycle of groups run over and over; a group is a surface, an identity or "pair"."""

    argv: str
    cycle: tuple[str, ...]


WORKLOADS = {
    # The equator group before every three of the seven identities, then the pool pair.
    "analyze-equator": Workload(
        "analyze --surface equator --workers 1",
        ("equator", "g2", "g3", "vandermonde", "equator", "i-closed", "i-sign", "dpsi", "equator", "recover",
         "pair")),
    "verify-mix": Workload(
        "verify --identity {g2,g3,vandermonde,i-closed,i-sign,dpsi,recover} --height 1000 --workers 1",
        IDENTITIES + ("equator",) + IDENTITIES + ("pair",)),
}


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of float and Fraction work."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, 24001):
        x = i * 0.5
        acc += math.sqrt(x) / (x + 1.0)
    q = Fraction(0)
    for i in range(1, 241):
        q += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
    return time.perf_counter() - start


class OperationTimeout(Exception):
    """One operation ran past its time limit."""


def _on_alarm(signum, frame):
    # Kill pool workers first so the executor's shutdown cannot wait on a hung child.
    for child in multiprocessing.active_children():
        child.terminate()
    raise OperationTimeout


@dataclass
class Op:
    """One CLI call: what it ran, how long it took, and what its report said."""

    key: str          # sample key, e.g. "equator", "i-sign", "pair.equator.w2"
    layer_key: str    # surface or identity name, for per-layer metrics
    argv: list
    n: int            # points or trials; 1 for a catalog run
    workers: int
    seconds: float = 0.0
    ref_s: float = 0.0
    wrong: list = field(default_factory=list)   # values the program must not report
    failed: list = field(default_factory=list)  # errors, time-outs, failed points
    results: object = None
    traced: bool = False
    span_id: int = 0

    @property
    def ok(self) -> bool:
        return not self.wrong and not self.failed

    def rate(self) -> float:
        """Operations per second, scaled to the nominal reference-loop speed."""
        return self.n / self.seconds * (self.ref_s / REF_NOMINAL_S)


def call_cli(argv: list[str], timeout: float = OP_TIMEOUT_S) -> tuple[int | None, str, str]:
    """(exit code, stdout, error) of spherecurv.cli.main(argv) under a time limit."""
    from spherecurv import cli

    out = io.StringIO()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OperationTimeout:
        return None, "", f"timed out after {timeout:.1f} s"
    except SystemExit as exc:
        return None, "", f"exited with {exc.code!r}"
    except Exception as exc:  # one crashing operation is a failed operation, not a failed run
        return None, "", f"raised {exc!r}"
    finally:
        for child in multiprocessing.active_children():
            child.join(5)
    return code, out.getvalue(), ""


def run_op(op: Op, tracer=None, timeout: float = OP_TIMEOUT_S) -> Op:
    """Time a reference-loop sample, then the operation, and check its report."""
    op.ref_s = reference_loop()
    if tracer is not None:
        tracer.install()
        op.span_id = tracer.begin_op()
        op.traced = True
    start = time.perf_counter()
    try:
        code, text, error = call_cli(op.argv, timeout)
    finally:
        op.seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op("op:" + op.key)
            tracer.uninstall()
    if error:
        op.failed.append(error)
        return op
    if code != 0:
        op.failed.append(f"exit code {code}")
    if text:
        try:
            report = json.loads(text)
        except ValueError as exc:
            op.wrong.append(f"report is not JSON: {exc}")
        else:
            wrong, failed = checks.check_report(report, op.argv)
            op.wrong += wrong
            op.failed += failed
            op.results = report.get("results")
    elif code == 0:
        op.wrong.append("exit code 0 without a report")
    return op


def group_argv(group: str, n: int, seed: int) -> list[str]:
    """CLI argv of one call of a surface or identity group, without --workers."""
    if group in SURFACE_ARGV:
        argv = SURFACE_ARGV[group] + ["--samples", str(n)]
    else:
        argv = ["verify", "--identity", group, "--trials", str(n), "--height", str(HEIGHT)]
    return argv + ["--seed", str(seed)]


def time_limit(limit: float, budget_end: float) -> float:
    """`limit`, cut to what is left of the run's budget, but at least MIN_TIMEOUT_S."""
    return max(MIN_TIMEOUT_S, min(limit, budget_end - time.perf_counter()))


class Runner:
    """Runs the groups of one workload and keeps every operation it made."""

    def __init__(self, seed: int, budget_end: float, tracer=None):
        self.seed = seed
        self.budget_end = budget_end
        self.tracer = tracer
        self.ops: list[Op] = []
        self.efficiency: list[float] = []
        self.reps: dict[str, int] = {}

    def op(self, key: str, layer_key: str, argv: list[str], n: int, workers: int, traced: bool) -> Op:
        op = run_op(Op(key, layer_key, argv, n, workers), self.tracer if traced else None,
                    time_limit(OP_TIMEOUT_S, self.budget_end))
        self.ops.append(op)
        return op

    def run_group(self, group: str) -> None:
        k = self.reps.get(group, 0)
        self.reps[group] = k + 1
        seed = self.seed * SEED_STRIDE + k
        if group == "pair":
            self._run_pair(k, seed)
            return
        # In a traced run every other call of a group is traced, so tracing
        # overhead is read from interleaved calls of the same operations.
        traced = self.tracer is not None and k % 2 == 1
        n = BATCH[group]
        self.op(group, group, group_argv(group, n, seed) + ["--workers", "1"], n, 1, traced)

    def _run_pair(self, k: int, seed: int) -> None:
        """One config at workers 1 and 2; kind, order and tracing cycle with k."""
        kind = (POINTS_GROUP, "i-sign")[k % 2]
        order = (1, WORKERS_MAX) if (k // 2) % 2 == 0 else (WORKERS_MAX, 1)
        traced = self.tracer is not None and (k // 4) % 2 == 1
        n = PAIR_BATCH[kind]
        base = group_argv(kind, n, seed)
        by_w = {w: self.op(f"pair.{kind}.w{w}", kind, base + ["--workers", str(w)], n, w, traced)
                for w in order}
        one, two = by_w[1], by_w[WORKERS_MAX]
        if one.ok and two.ok:
            mismatch = checks.check_same_results(one.results, two.results)
            one.wrong += mismatch
            two.wrong += mismatch
            if not mismatch:
                # Each time is scaled by its own reference-loop sample, as rates are.
                self.efficiency.append((one.seconds / one.ref_s) / (WORKERS_MAX * two.seconds / two.ref_s))


def measure(runner: Runner, workload: Workload, seconds: float) -> list[Op]:
    """Run one untimed warm-up cycle, then whole cycles until `seconds` have passed.

    Returns the operations of the timed cycles; at least one cycle always runs,
    so every metric has a value. Past the run's budget, it stops after one.
    """
    for group in workload.cycle:
        runner.run_group(group)
    warm = len(runner.ops)
    runner.efficiency.clear()
    start = time.perf_counter()
    while True:
        for group in workload.cycle:
            runner.run_group(group)
        now = time.perf_counter()
        if now - start >= seconds or now >= runner.budget_end:
            return runner.ops[warm:]


@dataclass
class Probe:
    """One fresh interpreter running `spherecurv catalog`."""

    wall_s: float
    ref_s: float                    # median of reference-loop samples just before and after
    scipy_import_s: float | None    # from -X importtime, when asked for
    wrong: list
    failed: list

    def setup_s(self) -> float:
        return self.wall_s * REF_NOMINAL_S / self.ref_s


def setup_probe(importtime: bool, budget_end: float) -> Probe:
    code = (
        "import sys; sys.path.insert(0, 'src'); "
        "from spherecurv.cli import main; sys.exit(main(['catalog']))"
    )
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code]
    timeout = time_limit(PROBE_TIMEOUT_S, budget_end)
    # One 5 ms sample swings by a fifth on a shared box; the median of six swings less.
    refs = [reference_loop() for _ in range(3)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc = None
    wall = time.perf_counter() - start
    refs += [reference_loop() for _ in range(3)]
    probe = Probe(wall, statistics.median(refs), None, [], [])
    if proc is None:
        probe.failed.append(f"catalog probe timed out after {timeout:.1f} s")
        return probe
    if proc.returncode != 0:
        probe.failed.append(f"catalog probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return probe
    try:
        probe.wrong += checks.check_catalog(json.loads(proc.stdout))
    except ValueError as exc:
        probe.wrong.append(f"catalog report is not JSON: {exc}")
    if importtime:
        probe.scipy_import_s = 0.0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == "scipy.optimize":
                probe.scipy_import_s = int(parts[1]) / 1e6
    return probe


def pool_startup(runner: Runner, group: str, pairs: int = 5) -> float:
    """Median over interleaved pairs of (2-item call at workers 2) - (same at workers 1), s."""
    argv = group_argv(group, 2, runner.seed)
    diffs = []
    for k in range(pairs):
        t = {}
        for w in ((1, WORKERS_MAX) if k % 2 == 0 else (WORKERS_MAX, 1)):
            t[w] = runner.op(f"startup.{group}.w{w}", group, argv + ["--workers", str(w)], 2, w, False).seconds
        diffs.append(t[WORKERS_MAX] - t[1])
    return statistics.median(diffs)


def _median_rate(ops: list[Op]) -> float:
    rates = [op.rate() for op in ops if op.ok]
    return statistics.median(rates) if rates else 0.0


# (metric, group it is read from) for every throughput metric.
RATE_METRICS = [("points_per_s", POINTS_GROUP)] + [(f"trials_per_s.{i}", i) for i in IDENTITIES]


def end_to_end(timed: list[Op], setup: list[float], attempted: int, failed: int) -> dict[str, float]:
    out = {"setup_s": statistics.median(setup)}
    for metric, key in RATE_METRICS:
        out[metric] = _median_rate([op for op in timed if op.key == key])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["success_ratio"] = (attempted - failed) / attempted
    return out


def tracing_overhead(timed: list[Op]) -> dict[str, float]:
    """Percent by which traced calls ran slower than the untraced calls between them."""
    out = {}
    for metric, key in RATE_METRICS:
        plain = _median_rate([op for op in timed if op.key == key and not op.traced])
        traced = _median_rate([op for op in timed if op.key == key and op.traced])
        out[f"trace.overhead_pct.{metric}"] = (plain - traced) / plain * 100 if plain else 0.0
    return out


def write_trace(path: Path, tracer: Tracer, meta: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = dict(meta, absent=tracer.absent, summary=summarize(tracer.spans),
               fields=["id", "parent", "op", "name", "start_ns", "end_ns", "count"],
               spans=tracer.spans)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump(doc, fh, separators=(",", ":"))


def traced_metrics(runner: Runner, timed: list[Op], probes: list[Probe]) -> dict[str, float]:
    """Per-layer metrics: spans of the traced calls plus the start-up and import probes."""
    startup = {
        "shape.pool_startup_s": pool_startup(runner, POINTS_GROUP),
        "identities.pool_startup_s": pool_startup(runner, "i-sign"),
    }
    for _ in range(3):
        runner.op("catalog", "catalog", ["catalog"], 1, 1, True)
    info = {op.span_id: layers.OpInfo(op.layer_key, op.n, op.workers)
            for op in runner.ops if op.traced and op.ok}
    metrics = layers.layer_metrics(runner.tracer.spans, info)
    metrics.update(startup)
    metrics["pool.parallel_efficiency"] = statistics.median(runner.efficiency) if runner.efficiency else 0.0
    scipy = [p.scipy_import_s for p in probes if p.scipy_import_s is not None]
    metrics["shape.scipy_import_s"] = statistics.median(scipy) if scipy else 0.0
    metrics["machine.ref_ms"] = statistics.median(op.ref_s for op in timed) * 1e3
    metrics.update(tracing_overhead(timed))
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="spherecurv benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    budget_end = time.perf_counter() + args.seconds + BUDGET_SLACK_S
    if not (SRC / "spherecurv" / "__init__.py").is_file():
        print(f"error: no spherecurv sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spherecurv

    if Path(spherecurv.__file__).resolve().parent != SRC / "spherecurv":
        print(f"error: imported spherecurv from {spherecurv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    workload = WORKLOADS[args.workload]
    trace = args.trace == 1

    probes = [setup_probe(trace, budget_end) for _ in range(3 if trace else SETUP_PROBES)]
    tracer = Tracer(layers.TARGETS) if trace else None
    runner = Runner(args.seed, budget_end, tracer)
    timed = measure(runner, workload, args.seconds)
    if trace:
        metrics = traced_metrics(runner, timed, probes)
        units = dict(layers.PER_LAYER)

    wrong = [f"setup probe: {m}" for p in probes for m in p.wrong]
    wrong += [f"{' '.join(op.argv)}: {m}" for op in runner.ops for m in op.wrong]
    failures = [f"setup probe: {m}" for p in probes for m in p.failed]
    failures += [f"{' '.join(op.argv)}: {m}" for op in runner.ops for m in op.failed]
    attempted = sum(op.n for op in runner.ops) + len(probes)
    failed = sum(op.n for op in runner.ops if not op.ok) + sum(1 for p in probes if p.wrong or p.failed)
    keys = sorted({op.key for op in timed})
    diagnostics = {
        "workload": args.workload,
        "argv": workload.argv,
        "seed": args.seed,
        "trace": args.trace,
        "machine.ref_ms": [round(op.ref_s * 1e3, 3) for op in timed],
        "calls": {key: sum(1 for op in timed if op.key == key) for key in keys},
        "unscaled_ops_per_s": {
            key: statistics.median([op.n / op.seconds for op in timed if op.key == key and op.ok] or [0.0])
            for key in keys
        },
        "setup_wall_s": [p.wall_s for p in probes],
        "pool.parallel_efficiency": statistics.median(runner.efficiency) if runner.efficiency else None,
        "wrong": wrong[:10],
        "failed": failures[:10],
    }
    if trace:
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        write_trace(trace_path, tracer, {"workload": args.workload, "seed": args.seed})
        diagnostics["trace_file"] = str(trace_path.relative_to(ROOT))
        diagnostics["absent_spans"] = tracer.absent
    else:
        setup = [p.setup_s() for p in probes]
        metrics = end_to_end(timed, setup, attempted, failed)
        units = dict(END_TO_END)

    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
