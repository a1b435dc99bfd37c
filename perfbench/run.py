#!/usr/bin/env python3
"""Benchmark of fthresholds: four seeded workloads through the public API.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads: sweep, truncation, ideal-gb, monomial (see perfbench/README.md).

With ``--trace 0`` the run measures the end-to-end metrics.  It builds the op
list from the seed, then runs whole passes over it, one op at a time, until
``--seconds`` have passed.  After every op it times a fixed calibration kernel;
each pass's op times are scaled by the kernel's reference time over its mean
time in that pass, which takes out the machine's changes of speed (see
README.md).  An op's time is its median scaled time over the passes.  Between
passes the run times ``SETUP_PROBES`` cold processes that import the program
and build the inputs; each is scaled by the kernel's time just before and after
it, and ``setup_s`` is their median.  Every op's output is checked against an
independent reference after the timed part.

With ``--trace 1`` the run alternates untraced passes with passes traced by the
span wrappers of ``spans.py`` and reports the per-layer metrics: work counts of
the first traced pass (later traced passes must repeat them exactly), the
median self time per layer over the traced passes, and the tracing overhead
(median traced pass over median untraced pass, minus 1), with times scaled by
the calibration kernel as above.  Spans of the first
traced pass are written to ``.perfbench/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Only a single process
does the work, with no extra threads.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
# Time of one calibration kernel at the reference speed: about its fastest time
# on a 2-vCPU virtual machine shared with other tenants.
KERNEL_REF_S = 200e-6


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Put the checkout's own source first on the path and import it."""
    package = SRC / "fthresholds"
    if not (package / "__init__.py").is_file():
        _fail(f"no program source at {package}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import fthresholds

    if Path(fthresholds.__file__).resolve().parent != package.resolve():
        _fail(f"imported fthresholds from {fthresholds.__file__}, not from {package}")


def prepare(workload: str, seed: int):
    """Set-up: corpus load plus the seeded, parsed op list."""
    import workloads
    from fthresholds import reduction

    reduction.corpus()
    return workloads.build(workload, seed)


def setup_probe(workload: str, seed: int, kernel) -> float:
    """Scaled wall time of one cold process that only imports and prepares."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    before = kernel_time(kernel)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        _fail(f"set-up probe failed: {proc.stderr.decode(errors='replace').strip()}")
    slowdown = (before + kernel_time(kernel)) / (2 * KERNEL_REF_S)
    return elapsed / slowdown


def kernel_time(kernel, rounds: int = 25) -> float:
    """Mean time of one calibration kernel over `rounds` runs."""
    t0 = time.perf_counter()
    for _ in range(rounds):
        kernel()
    return (time.perf_counter() - t0) / rounds


class Outcomes:
    """First output of every op, plus errors and outputs that differ from it."""

    def __init__(self, nops: int):
        self.first = [None] * nops
        self.seen = [False] * nops
        self.errors = [[] for _ in range(nops)]
        self.runs = [0] * nops
        self.differs = [0] * nops

    def record(self, i: int, out, err):
        self.runs[i] += 1
        if err is not None:
            self.errors[i].append(err)
        elif not self.seen[i]:
            self.first[i], self.seen[i] = out, True
        elif out != self.first[i]:
            self.differs[i] += 1


def calibration_kernel():
    """A fixed pure-Python job of the same kind as the program's work: one
    product of sparse polynomial dicts, with the garbage collector held off so
    that the program's heap does not change its cost."""
    from oracles import pmul

    f = {(3, 0): 1, (0, 4): 2, (2, 1): 3, (1, 2): 1}
    g = {(0, 0): 1}
    for _ in range(5):
        g = pmul(g, f, 32003)

    def kernel():
        gc.disable()
        try:
            pmul(g, f, 32003)
        finally:
            gc.enable()

    return kernel


def run_pass(ops, outcomes: Outcomes, tracer=None, kernel=None):
    """One closed-loop pass over the op list.

    Returns (wall s, per-op s, total kernel s); the kernel, when given, runs
    after every op, outside the op's time."""
    times = []
    kernel_s = 0.0
    start = time.perf_counter()
    for i, op in enumerate(ops):
        span = tracer.open("op." + op.kind) if tracer is not None else None
        t0 = time.perf_counter()
        err = out = None
        try:
            out = op.run()
        except Exception as exc:  # a failed op is counted, not fatal
            err = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if span is not None:
            tracer.close(span)
        outcomes.record(i, out, err)
        if kernel is not None:
            k0 = time.perf_counter()
            kernel()
            kernel_s += time.perf_counter() - k0
    return time.perf_counter() - start, times, kernel_s


def check_outputs(ops, outcomes: Outcomes) -> tuple[int, int, list[str]]:
    """(attempted, failed, wrong-answer problems) against the references."""
    from oracles import Oracles

    oracles = Oracles()
    attempted = failed = 0
    problems = []
    for i, op in enumerate(ops):
        attempted += outcomes.runs[i]
        failed += len(outcomes.errors[i]) + outcomes.differs[i]
        for err in sorted(set(outcomes.errors[i])):
            print(f"perfbench: op {op.label} raised {err}", file=sys.stderr)
        if outcomes.differs[i]:
            problems.append(f"{op.label}: output changed between passes")
        if not outcomes.seen[i]:
            continue
        wrong = oracles.check(op, outcomes.first[i])
        if wrong:
            ok_runs = outcomes.runs[i] - len(outcomes.errors[i]) - outcomes.differs[i]
            failed += ok_runs
            problems.extend(f"{op.label}: {w}" for w in wrong)
    return attempted, failed, problems


def quantile(values: list[float], k: int) -> float:
    """The k-th of the nine deciles (k = 5 is the median)."""
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def end_to_end(args) -> dict:
    kernel = calibration_kernel()
    setup = [setup_probe(args.workload, args.seed, kernel)]
    ops = prepare(args.workload, args.seed)
    outcomes = Outcomes(len(ops))
    raw = [[] for _ in ops]
    scaled = [[] for _ in ops]
    passes = 0
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        _, times, kernel_s = run_pass(ops, outcomes, kernel=kernel)
        slowdown = kernel_s / (len(ops) * KERNEL_REF_S)
        for i, t in enumerate(times):
            raw[i].append(t)
            scaled[i].append(t / slowdown)
        passes += 1
        # Probes go between passes, spread over the run, so that one slow
        # moment of the machine does not set the median.
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe(args.workload, args.seed, kernel))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args.workload, args.seed, kernel))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, problems = check_outputs(ops, outcomes)
    if threading.active_count() > 1:
        problems.append("the program left threads running; the calibration assumes one")
    import workloads

    best = [statistics.median(samples) for samples in scaled]
    wall = [statistics.median(samples) for samples in raw]
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass "
          f"({workloads.describe(ops)}); {passes} passes; closed loop, one caller")
    print(f"  unscaled wall clock: {len(ops) / sum(wall):.6g} ops/s, "
          f"p50 {quantile(wall, 5) * 1000:.6g} ms, p90 {quantile(wall, 9) * 1000:.6g} ms")
    metrics = {
        "ops_per_s": (len(ops) / sum(best), "1/s"),
        "op_p50_ms": (quantile(best, 5) * 1000.0, "ms"),
        "op_p90_ms": (quantile(best, 9) * 1000.0, "ms"),
        "succeeded_frac": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return finish(metrics, attempted, failed, problems)


def traced(args) -> dict:
    from spans import PER_LAYER, Tracer, check_layer_map, layer_counts

    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        ops = prepare(args.workload, args.seed)
    finally:
        setup_tracer.uninstall()
    setup_self = setup_tracer.self_ms()
    kernel = calibration_kernel()
    outcomes = Outcomes(len(ops))
    run_pass(ops, outcomes)  # warm-up
    # Op time of each pass and each layer's self time, scaled like the
    # end-to-end op times.
    plain, walls, counts, selfs = [], [], [], []
    first = None
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        _, times, kernel_s = run_pass(ops, outcomes, kernel=kernel)
        plain.append(sum(times) * len(ops) * KERNEL_REF_S / kernel_s)
        tracer = Tracer()
        tracer.install()
        try:
            _, times, kernel_s = run_pass(ops, outcomes, tracer, kernel)
        finally:
            tracer.uninstall()
        slowdown = kernel_s / (len(ops) * KERNEL_REF_S)
        walls.append(sum(times) / slowdown)
        counts.append(layer_counts(tracer.counts))
        selfs.append({span: ms / slowdown for span, ms in tracer.self_ms().items()})
        first = first or tracer
    attempted, failed, problems = check_outputs(ops, outcomes)
    problems += check_layer_map(args.workload, first.counts, first.missing)
    if any(c != counts[0] for c in counts[1:]):
        problems.append("work counts differ between traced passes")
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    first.write(span_file)
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} traced and "
          f"{len(plain)} untraced passes over {len(ops)} ops; spans in {span_file}")

    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            value = statistics.median(walls) / statistics.median(plain) - 1.0
        elif name.endswith(".self_ms"):
            span = name[: -len(".self_ms")]
            if span.startswith("parsing."):
                value = setup_self.get(span, 0.0)
            else:
                value = statistics.median(s.get(span, 0.0) for s in selfs)
        else:
            value = counts[0][name]
        metrics[name] = (value, unit)
    return finish(metrics, attempted, failed, problems)


def finish(metrics: dict, attempted: int, failed: int, problems: list[str]) -> dict:
    for problem in problems:
        print(f"perfbench: WRONG {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "truncation", "ideal-gb", "monomial"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_program()
    if args.setup_probe:
        prepare(args.workload, args.seed)
        return 0
    result = traced(args) if args.trace else end_to_end(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
