"""Span recorder for the traced benchmark run.

The program has no instrumentation of its own, so the traced run rebinds
public names inside the package's modules with timing wrappers (for example
``stefan1d.solver.restrict`` and ``stefan1d.potential.restrict``), runs the
operations, and puts the original objects back. Each span records a name, a
start, an end and the index of its parent span; counts are taken from call
arguments and returned reports. Untraced runs never install the wrappers.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Functions whose calls are spans, and every module that binds each of them.
# A function reaches another module by `from .x import f`, so each binding is
# rebound; the class methods are patched on the class itself.
_FUNCTIONS = {
    "measure.make_step_measure": ("make_step_measure", ("measure",)),
    "measure.restrict": (
        "restrict",
        ("measure", "solver", "potential", "particles"),
    ),
    "potential.potential": ("potential", ("potential", "solver")),
    "potential.order_leq_sh_O": ("order_leq_sh_O", ("potential", "solver", "cli")),
    "solver.solve": ("solve", ("solver", "cli", "stability", "repro")),
    "solver.solve_component": ("solve_component", ("solver",)),
    "solver.independence_check": ("independence_check", ("solver",)),
    "solver.primal_objective": ("primal_objective", ("solver",)),
    "solver.check_admissible": ("check_admissible", ("solver",)),
    "solver.solve_by_sweep": ("solve_by_sweep", ("solver",)),
    "stability.weak_convergence_experiment": (
        "weak_convergence_experiment",
        ("stability",),
    ),
    "stability.lipschitz_ratio": ("lipschitz_ratio", ("stability",)),
    "stability.monotonicity_report": ("monotonicity_report", ("stability",)),
    "particles.run": ("run", ("particles", "cli", "repro")),
    "particles.compare_to_formula": ("compare_to_formula", ("particles", "repro")),
    "cli.main": ("main", ("cli",)),
}

# The four merged-grid operations share one span name.
_MERGED_GRID = (
    ("l1_distance", ("measure", "stability", "particles", "repro")),
    ("positive_part_l1", ("measure", "stability")),
    ("pointwise_leq", ("measure", "stability", "repro")),
    ("measures_allclose", ("measure", "solver")),
)

_METHODS = {
    "potential.sub": "__sub__",
    "potential.max_on": "max_on",
}


def _walker_steps(args, report) -> float:
    """Simulated walker-time over dt, summed over components: fine steps taken."""
    dt = args[2].dt
    return sum(c.n * c.mean_freeze_time / dt for c in report.components if c.n)


# Counts taken at a span, from the call's arguments and its result.
_COUNTERS = {
    "measure.restrict": (
        "measure.restrict.cells_scanned",
        lambda args, result: args[0].ncells * len(args[1].components),
    ),
    "potential.potential": ("potential.potential.cells", lambda args, result: args[0].ncells),
    "potential.max_on": ("potential.max_on.pieces", lambda args, result: len(args[0].coeffs)),
    "particles.run": ("particles.walker_steps", _walker_steps),
}


class Tracer:
    """In-memory spans and counts; one instance per traced run."""

    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1)
        self.spans: list[tuple[str, int, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter_ns(), 0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter_ns(), parent)
            self.calls[name] += 1

    def wrap(self, name: str, fn):
        key, count = _COUNTERS.get(name, (None, None))
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                tracer.counts[key] += count(args, result)
            return result

        return traced

    def _rebind(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self, package) -> None:
        """Rebind the traced names inside ``package``'s modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        # sys.modules, since the package re-exports the function `potential`
        # under the name of its module
        modules = {
            name: sys.modules[f"{package.__name__}.{name}"]
            for name in ("measure", "potential", "solver", "stability", "particles", "cli", "repro")
        }
        for span_name, (attr, owners) in _FUNCTIONS.items():
            for owner in owners:
                self._rebind(modules[owner], attr, span_name)
        for attr, owners in _MERGED_GRID:
            for owner in owners:
                self._rebind(modules[owner], attr, "measure.merged_grid")
        for span_name, attr in _METHODS.items():
            self._rebind(modules["potential"].PiecewiseQuadratic, attr, span_name)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per name, total and self time in ms over the outermost spans.

        A span nested inside a span of the same name (a traced function
        reached again through another traced one) is folded into the outer
        span, so no interval is counted twice.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_ms: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_ms[name] += (end - start - child_ns[i]) / 1e6
            if not self._inside_same_name(i):
                total[name] += (end - start) / 1e6
        return total, self_ms

    def _inside_same_name(self, index: int) -> bool:
        name, _, _, parent = self.spans[index]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent}
                    )
                    + "\n"
                )
