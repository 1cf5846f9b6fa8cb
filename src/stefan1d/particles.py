"""Front-freezing Brownian particle system for stochastic cross-validation.

This module holds the simulation config, the reports, the apportionment of
walkers to components and the comparison with the solver; the walk itself,
which needs numpy, is in `walkers`. Each component's frozen fronts estimate
the block widths of the maximal target.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from numbers import Real

from .errors import ValidationError
from .measure import DEFAULT_TOL, OpenSet1D, StepMeasure, _cuts, l1_distance
from .measure import restrict  # noqa: F401  (uncalled: tests/test_trace_contract.py pins it)
from .solver import MaximalSolution, _admit, _blocks_measure


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    dt is the time step in units of Brownian time and t_max the time the walk
    stops at; None picks 1e-4 and 12.5 times (component length)^2 per
    component, since exit times scale diffusively (t_max 50 at length 2).
    Seeds for component i derive from (seed, i), so per-component results do
    not depend on execution order.
    """

    n_particles: int
    seed: int = 0
    dt: float | None = None
    t_max: float | None = None
    hist_bins: int = 64

    def __post_init__(self):
        for name in ("n_particles", "seed", "hist_bins"):
            if type(getattr(self, name)) is not int:  # bool is an int too
                raise ValidationError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 1 <= self.n_particles <= 2**53:  # each component's float share stays exact
            raise ValidationError("n_particles must be from 1 to 2**53")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed!r}")
        for name in ("dt", "t_max"):  # a JSON integer may lie beyond the float range
            if (value := getattr(self, name)) is not None:
                real = isinstance(value, Real) and not isinstance(value, bool)
                if not (real and 0.0 < value <= sys.float_info.max):
                    raise ValidationError(f"{name} must be a positive finite number, not {value!r}")
                object.__setattr__(self, name, float(value))  # an integer is echoed as a float
        if not 1 <= self.hist_bins <= 2**16:  # the report lists every bin's edge and count
            raise ValidationError("hist_bins must be from 1 to 2**16")


@dataclass(frozen=True)
class ComponentRunReport:
    """One component's walk; its freeze position statistics are the slot midpoints'."""

    interval: tuple[float, float]
    n: int
    unit_mass: float
    frozen_left: int
    frozen_right: int
    unfrozen: int
    p_hat: float
    q_hat: float
    left_front: float
    right_front: float
    mean_freeze_time: float
    freeze_position_mean: float
    freeze_position_std: float
    hist_edges: tuple[float, ...]
    hist_counts: tuple[int, ...]

    def _frozen_ends(self) -> tuple[float, float, float, float]:
        c, d = self.interval
        # at saturation the walk lets the fronts cross by its rounding slack
        return (c, self.left_front, max(self.left_front, self.right_front), d)

    def frozen_measure(self) -> StepMeasure:
        return _blocks_measure([self._frozen_ends()])


@dataclass(frozen=True)
class RunReport:
    """Simulation outcome; a pure function of (inputs, config.seed)."""

    components: tuple[ComponentRunReport, ...]
    measure: StepMeasure
    config: SimConfig

    @property
    def all_frozen(self) -> bool:
        return all(c.unfrozen == 0 for c in self.components)

    def to_json(self) -> dict:
        return {**asdict(self), "all_frozen": self.all_frozen}


def _step_count(t_max: float, dt: float) -> int:
    """The fine steps of length dt ending before t_max - dt/2: at least one."""
    # dt > 0 first: a default dt of 1e-4 * width**2 underflows to 0 on tiny components
    if not (dt > 0.0 and 0.5 < t_max / dt < math.inf):
        raise ValidationError(
            f"t_max / dt must be finite and above 1/2, got t_max {t_max!r} and dt {dt!r}"
        )
    return math.ceil(t_max / dt - 0.5)


def _allocate(n_total: int, masses: list[float]) -> list[int]:
    """Largest-remainder apportionment: at least one walker per massive component, none else."""
    total = sum(masses)
    if total <= 0.0:
        return [0 for _ in masses]
    raw = [n_total * k / total for k in masses]
    alloc = [int(x) for x in raw]
    order = sorted(range(len(raw)), key=lambda i: raw[i] - alloc[i], reverse=True)
    short = n_total - sum(alloc)
    for i in order[:short]:
        alloc[i] += 1
    return [max(a, 1) if k > 0.0 else 0 for a, k in zip(alloc, masses)]


def run(mu: StepMeasure, open_set: OpenSet1D, cfg: SimConfig) -> RunReport:
    """Simulate every component independently and assemble the frozen measure.

    Component i draws from a generator seeded by (cfg.seed, i).
    """
    _admit(mu, DEFAULT_TOL)
    cuts = _cuts(mu, open_set, DEFAULT_TOL)
    alloc = _allocate(cfg.n_particles, [k for _, _, k in cuts])
    widths = [d - c for c, d in open_set.components]
    times = []  # dt, then t_max, on each component; a given time is finite
    for name, factor, given in (("dt", "1e-4", cfg.dt), ("t_max", "12.5", cfg.t_max)):
        try:  # a square raises OverflowError, but 12.5 times a finite one rounds to inf
            times.append([float(factor) * w**2 if given is None else given for w in widths])
        except OverflowError:
            times.append([math.inf])
        if math.inf in times[-1]:
            raise ValidationError(f"the default {name}, {factor} * width ** 2, overflows: give {name}")
    dts, t_maxes = times
    steps = list(map(_step_count, t_maxes, dts))  # refuse before any walk allocates

    # imported here, so that `import stefan1d` and the other commands do not load numpy
    from .walkers import simulate_component

    walks = enumerate(zip(cuts, open_set.components, alloc, dts, steps))
    components = tuple(
        simulate_component(cut, c, d, n, dt, n_steps, [cfg.seed, i], cfg.hist_bins)
        for i, (cut, (c, d), n, dt, n_steps) in walks
    )
    measure = _blocks_measure(comp._frozen_ends() for comp in components)
    return RunReport(components=components, measure=measure, config=cfg)


@dataclass(frozen=True)
class ComparisonRow:
    interval: tuple[float, float]
    p_error: float
    q_error: float
    l1_gap: float
    sigma_hat: float


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]
    total_l1: float
    max_p_error: float


def compare_to_formula(report: RunReport, solution: MaximalSolution) -> ComparisonReport:
    """Per-component errors of the simulated frozen blocks against the solver.

    sigma_hat = sqrt(p * q / n) is the binomial standard error of p_hat =
    m * frozen_left, with n walkers of mass m = k / n; the L1 gap compares the
    exact frozen block measure (density one by accounting) with the solver
    blocks.
    """
    if len(report.components) != len(solution.blocks):
        raise ValidationError(
            f"component count mismatch: report has {len(report.components)}, "
            f"solution has {len(solution.blocks)}"
        )
    rows = []
    total = 0.0
    worst = 0.0
    for comp, block in zip(report.components, solution.blocks):
        if tuple(comp.interval) != (block.c, block.d):  # both are the component's own floats
            raise ValidationError(
                f"component intervals disagree: {comp.interval} vs "
                f"({block.c}, {block.d})"
            )
        dp = abs(comp.p_hat - block.p)
        dq = abs(comp.q_hat - block.q)
        gap = l1_distance(comp.frozen_measure(), block.measure())
        # no product of two masses, which could over- or underflow
        sigma = math.sqrt(block.p) * math.sqrt(block.q / comp.n) if comp.n else 0.0
        rows.append(ComparisonRow(comp.interval, dp, dq, gap, sigma))
        total += gap
        worst = max(worst, dp)
    return ComparisonReport(tuple(rows), total, worst)
