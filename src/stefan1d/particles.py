"""Front-freezing Brownian particle system for stochastic cross-validation.

This module holds the simulation config, the reports, the apportionment of
walkers to components and the comparison with the solver; the walk itself,
which needs numpy, is in `walkers`. Each component's frozen fronts estimate
the block widths of the maximal target.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import AdmissibilityError, ValidationError
from .measure import DEFAULT_TOL, OpenSet1D, StepMeasure, l1_distance, restrict
from .solver import MaximalSolution, _blocks_measure


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    dt is the time step in units of Brownian time; None picks
    1e-4 * (component length)^2 per component, since exit times scale
    diffusively. Seeds for component i derive from (seed, i), so per-component
    results do not depend on execution order.
    """

    n_particles: int
    seed: int = 0
    dt: float | None = None
    t_max: float = 50.0
    hist_bins: int = 64

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValidationError("n_particles must be at least 1")
        if self.dt is not None and not self.dt > 0.0:
            raise ValidationError("dt must be positive")
        if not self.t_max > 0.0:
            raise ValidationError("t_max must be positive")
        if self.hist_bins < 1:
            raise ValidationError("hist_bins must be at least 1")


@dataclass(frozen=True)
class ComponentRunReport:
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


def _allocate(n_total: int, masses: list[float]) -> list[int]:
    """Largest-remainder apportionment, at least one walker per massive component."""
    total = sum(masses)
    if total <= 0.0:
        return [0 for _ in masses]
    raw = [n_total * k / total for k in masses]
    alloc = [int(x) for x in raw]
    order = sorted(range(len(raw)), key=lambda i: raw[i] - alloc[i], reverse=True)
    short = n_total - sum(alloc)
    for i in order[:short]:
        alloc[i] += 1
    for i, k in enumerate(masses):
        if k > 0.0 and alloc[i] == 0:
            alloc[i] = 1
    return alloc


def run(mu: StepMeasure, open_set: OpenSet1D, cfg: SimConfig) -> RunReport:
    """Simulate every component independently and assemble the frozen measure.

    Component i draws from a generator seeded by (cfg.seed, i).
    """
    if mu.max_density() > 1.0 + DEFAULT_TOL:
        raise AdmissibilityError(
            f"density {mu.max_density():.9g} exceeds the admissible bound 1"
        )
    parts = restrict(mu, open_set, DEFAULT_TOL)
    masses = [p.mass for p in parts]
    alloc = _allocate(cfg.n_particles, masses)

    # imported here, so that `import stefan1d` and the other commands do not load numpy
    from .walkers import simulate_component

    def one(i: int) -> ComponentRunReport:
        c, d = open_set.components[i]
        dt = cfg.dt if cfg.dt is not None else 1e-4 * (d - c) ** 2
        n_i = alloc[i] if masses[i] > 0.0 else 0
        return simulate_component(
            parts[i], c, d, n_i, dt, cfg.t_max, [cfg.seed, i], cfg.hist_bins
        )

    components = tuple(one(i) for i in range(len(open_set.components)))
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

    sigma_hat = sqrt(k * p * q) / sqrt(n) estimates the Monte Carlo standard
    error of the frozen split; the L1 gap compares the exact frozen block
    measure (density one by accounting) with the solver blocks.
    """
    if len(report.components) != len(solution.blocks):
        raise ValidationError(
            f"component count mismatch: report has {len(report.components)}, "
            f"solution has {len(solution.blocks)}"
        )
    rows = []
    total = 0.0
    worst = 0.0
    for comp, block, (k_n, _) in zip(
        report.components, solution.blocks, solution.provenance
    ):
        if tuple(comp.interval) != (block.c, block.d):  # both are the component's own floats
            raise ValidationError(
                f"component intervals disagree: {comp.interval} vs "
                f"({block.c}, {block.d})"
            )
        dp = abs(comp.p_hat - block.p)
        dq = abs(comp.q_hat - block.q)
        gap = l1_distance(comp.frozen_measure(), block.measure())
        sigma = (
            math.sqrt(k_n * block.p * block.q) / math.sqrt(comp.n)
            if comp.n > 0 and k_n > 0.0
            else 0.0
        )
        rows.append(ComparisonRow(comp.interval, dp, dq, gap, sigma))
        total += gap
        worst = max(worst, dp)
    return ComparisonReport(tuple(rows), total, worst)
