"""Benchmark of the stefan1d package: one workload per run.

    python3 perfbench/run.py --workload fine_grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there, nowhere else. One process and one thread drive closed-loop
calls into the library. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs each operation untraced and then traced, and reports the
per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

from hostclock import HostClock  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is repeated and its median reported, so one slow import or write
# does not move the figure.
SETUP_REPEATS = 5
IMPORT_TIMEOUT_S = 60

_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import stefan1d, stefan1d.cli
t1 = time.perf_counter()
print(t1 - t0)
print(stefan1d.__file__)
"""


class SetupError(Exception):
    """The package could not be imported from the checkout's source tree."""


def _own_package(path: str) -> bool:
    return os.path.commonpath([os.path.abspath(path), SRC]) == SRC


def import_package():
    sys.path.insert(0, SRC)
    try:
        import stefan1d
        import stefan1d.cli  # noqa: F401  (the package does not import its command line)
    except ImportError as exc:
        raise SetupError(f"cannot import stefan1d from {SRC}: {exc}") from exc
    if not _own_package(stefan1d.__file__):
        raise SetupError(f"stefan1d was imported from {stefan1d.__file__}, not {SRC}")
    return stefan1d


def timed_import() -> float:
    """Seconds a fresh interpreter spends importing stefan1d and its command line."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, SRC],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=IMPORT_TIMEOUT_S,
    )
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or not _own_package(lines[1]):
        raise SetupError(f"import probe failed: {proc.stderr.strip() or proc.stdout.strip()}")
    return float(lines[0])


def setup(sf, workload, seed: int, workdir: str):
    """Import and input generation, repeated: the inputs and each repeat's (start, end, seconds)."""
    spans = []
    state = None
    for i in range(SETUP_REPEATS):
        rep_dir = os.path.join(workdir, f"setup-{i}")
        os.mkdir(rep_dir)
        start = time.perf_counter()
        import_s = timed_import()
        t0 = time.perf_counter()
        rng = np.random.default_rng([seed, *workload.name.encode()])
        state = workload.setup(sf, rng, rep_dir)
        end = time.perf_counter()
        spans.append((start, end, import_s + end - t0))
    return state, spans


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, op, clock: HostClock | None = None):
        """Run one operation: (result, start, end, seconds), result None when it failed.

        Time the host clock's handler spent inside the operation is not counted.
        """
        self.attempted += 1
        stolen = clock.stolen_s if clock else 0.0
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # a failed operation is counted, and the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, start, start, 0.0
        end = time.perf_counter()
        return result, start, end, end - start - ((clock.stolen_s - stolen) if clock else 0.0)

    def check(self, op, result) -> None:
        errors = op.check(result)
        for error in errors:
            print(f"check failed ({op.kind}): {error}", file=sys.stderr)
        self.errors += errors


def _rounds(sf, workload, state, seconds: float):
    """Whole rounds of operations until ``seconds`` of wall time have passed."""
    start = time.perf_counter()
    index = 0
    while True:
        yield from workload.round(sf, state, index)
        index += 1
        if time.perf_counter() - start >= seconds:
            return


def _warm_up(sf, workload, state) -> None:
    """Run each kind of operation once, untimed and uncounted, so lazy set-up is done."""
    if not workload.warm_up:
        return
    seen = set()
    for op in workload.round(sf, state, 0):
        if op.kind not in seen:
            seen.add(op.kind)
            op.run()


def measure(sf, workload, state, seconds: float, counter: Counter, clock: HostClock) -> list:
    """(start, end, seconds) of each operation that did not fail."""
    spans = []
    for op in _rounds(sf, workload, state, seconds):
        result, start, end, elapsed = counter.call(op, clock)
        if result is None:
            continue
        spans.append((start, end, elapsed))
        counter.check(op, result)
    return spans


def end_to_end(setup_spans: list, op_spans: list, clock: HostClock) -> dict:
    """Set-up and operation times scaled to the reference host; peak memory."""
    wall_ms = [elapsed * 1e3 for _, _, elapsed in op_spans]
    ms = [elapsed * 1e3 * clock.scale(start, end) for start, end, elapsed in op_spans]
    setup_s = [elapsed * clock.scale(start, end) for start, end, elapsed in setup_spans]
    print(
        f"wall clock: {len(wall_ms) / (sum(wall_ms) / 1e3):.6g} op/s, "
        f"median {statistics.median(wall_ms):.6g} ms; "
        f"host kernel median {statistics.median(clock.kernel_s) * 1e3:.4g} ms",
        file=sys.stderr,
    )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (len(ms) / (sum(ms) / 1e3), "op/ref-s"),
        "op_ms_p50": (statistics.median(ms), "ref-ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def traced(sf, workload, state, seconds: float, counter: Counter, spans_path: str, seed: int) -> dict:
    """Each operation untraced, then traced; per-layer metrics per traced operation."""
    tracer = Tracer()
    plain_s = traced_s = 0.0
    n = 0
    for op in _rounds(sf, workload, state, seconds):
        result, _, _, elapsed = counter.call(op)
        if result is None:
            continue
        counter.check(op, result)
        tracer.install(sf)
        try:
            with tracer.span("op"):
                result, _, _, elapsed_traced = counter.call(op)
        finally:
            tracer.uninstall()
        if result is None:
            continue
        counter.check(op, result)
        plain_s += elapsed
        traced_s += elapsed_traced
        n += 1
    tracer.write(spans_path)
    if n == 0:
        return {}
    return per_layer(tracer, n, (traced_s - plain_s) * 1e3 / n, seed)


def rng_floor_ms(walker_steps: float, seed: int, chunk: int = 100_000) -> float:
    """Time for numpy to draw ``walker_steps`` float32 normals and as many uniforms."""
    rng = np.random.default_rng(seed)
    buf = np.empty(chunk, dtype=np.float32)
    full, rest = divmod(int(walker_steps), chunk)
    t0 = time.perf_counter()
    for size in [chunk] * full + ([rest] if rest else []):
        out = buf[:size]
        rng.standard_normal(dtype=np.float32, out=out)
        rng.random(dtype=np.float32, out=out)
    return (time.perf_counter() - t0) * 1e3


def per_layer(tracer: Tracer, n: int, overhead_ms: float, seed: int) -> dict:
    total, self_ms = tracer.totals()
    calls, counts = tracer.calls, tracer.counts
    steps = counts["particles.walker_steps"]

    def ms(name):
        return (total[name] / n, "ms/op")

    def own(name):
        return (self_ms[name] / n, "ms/op")

    return {
        "measure.make_step_measure.ms": ms("measure.make_step_measure"),
        "measure.restrict.ms": ms("measure.restrict"),
        "measure.restrict.calls": (calls["measure.restrict"] / n, "calls/op"),
        "measure.restrict.cells_scanned": (counts["measure.restrict.cells_scanned"] / n, "cells/op"),
        "measure.merged_grid.ms": ms("measure.merged_grid"),
        "potential.potential.ms": ms("potential.potential"),
        "potential.potential.cells": (counts["potential.potential.cells"] / n, "cells/op"),
        "potential.sub.ms": ms("potential.sub"),
        "potential.max_on.ms": ms("potential.max_on"),
        "potential.max_on.pieces": (counts["potential.max_on.pieces"] / n, "pieces/op"),
        "potential.order_leq_sh_O.self_ms": own("potential.order_leq_sh_O"),
        "solver.solve.self_ms": own("solver.solve"),
        "solver.solve_component.ms": ms("solver.solve_component"),
        "solver.solve_component.calls": (calls["solver.solve_component"] / n, "calls/op"),
        "solver.independence_check.self_ms": own("solver.independence_check"),
        "solver.primal_objective.ms": ms("solver.primal_objective"),
        "solver.primal_objective.calls": (calls["solver.primal_objective"] / n, "calls/op"),
        "solver.check_admissible.ms": ms("solver.check_admissible"),
        "solver.solve_by_sweep.ms": ms("solver.solve_by_sweep"),
        "stability.weak_convergence_experiment.ms": ms("stability.weak_convergence_experiment"),
        "stability.lipschitz_ratio.ms": ms("stability.lipschitz_ratio"),
        "stability.monotonicity_report.ms": ms("stability.monotonicity_report"),
        "particles.run.ms": ms("particles.run"),
        "particles.walker_steps": (steps / n, "steps/op"),
        "particles.ns_per_walker_step": (
            total["particles.run"] * 1e6 / steps if steps else 0.0,
            "ns/step",
        ),
        "particles.compare_to_formula.ms": ms("particles.compare_to_formula"),
        "particles.rng_floor_ms": (rng_floor_ms(steps, seed) / n if steps else 0.0, "ms/op"),
        "cli.main.self_ms": own("cli.main"),
        "trace.overhead_ms": (overhead_ms, "ms/op"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        sf = import_package()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"inputs-{tag}-", dir=OUT)
    counter = Counter()
    try:
        if args.trace:
            state, _ = setup(sf, workload, args.seed, workdir)
            _warm_up(sf, workload, state)
            spans_path = os.path.join(OUT, f"spans-{tag}.jsonl")
            metrics = traced(sf, workload, state, args.seconds, counter, spans_path, args.seed)
        else:
            with HostClock() as clock:
                state, setup_spans = setup(sf, workload, args.seed, workdir)
                _warm_up(sf, workload, state)
                op_spans = measure(sf, workload, state, args.seconds, counter, clock)
            metrics = end_to_end(setup_spans, op_spans, clock) if op_spans else {}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not counter.errors,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
