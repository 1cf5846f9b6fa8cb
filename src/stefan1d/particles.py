"""Front-freezing Brownian particle system for stochastic cross-validation.

Walkers start from the initial density and move by Gaussian increments
inside their component. Two saturation fronts advance inward from the
component endpoints; a walker meeting a front freezes there and the front
advances by one particle mass, so the frozen region has density exactly one
by accounting and the discrete stopping time never exceeds the exit time of
the component. The final front positions estimate the block widths of the
maximal target; mass and first-moment conservation force the agreement.

Crossing detection combines the post-step position test with the within-step
Brownian bridge crossing probability against the start-of-step fronts, which
keeps the weak error of the frozen split first order in dt. Walkers crossing
a front are recorded at the front (slot midpoints of the swept region), not
at their overshot position.

The walk runs in blocks of _BLOCK fine steps. A walker farther than
_Z * sqrt(_BLOCK * dt), plus a margin, from both fronts at the start of a
block is coarse: one Gaussian increment for the whole block, no uniform. The
fine scheme would freeze it within the block with probability below 2**-24,
the granularity of the float32 uniform its crossing test draws. When a
freeze moves a front into a coarse walker's band, the walker rejoins the
fine walk from its Brownian bridge point, which is exact in law.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import AdmissibilityError, ValidationError, VerificationError
from .measure import DEFAULT_TOL, OpenSet1D, StepMeasure, l1_distance, restrict
from .solver import MaximalSolution, _blocks_measure

# A path reaches a level z below its start within time T with probability
# erfc(z / sqrt(2 T)) (reflection principle), so a walker _Z * sqrt(T) from
# both fronts meets one with probability 2 * erfc(_Z / sqrt(2)) = 5.7e-8 <= 2**-24.
_BLOCK = 8
_Z = 5.55


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
        return (c, self.left_front, self.right_front, d)

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


def _positive_cell_arrays(mu: StepMeasure):
    lb, dens, cum = [], [], [0.0]
    for lo, hi, v in mu.cells():
        if v <= 0.0:
            continue
        lb.append(lo)
        dens.append(v)
        cum.append(cum[-1] + v * (hi - lo))
    return np.asarray(lb), np.asarray(dens), np.asarray(cum)


def _quantiles(mu: StepMeasure, u: np.ndarray) -> np.ndarray:
    lb, dens, cum = _positive_cell_arrays(mu)
    idx = np.searchsorted(cum[1:], u, side="left")
    idx = np.clip(idx, 0, len(lb) - 1)
    return lb[idx] + (u - cum[idx]) / dens[idx]


def _bridge_point(x0: np.ndarray, x1: np.ndarray, a: float, span: float, rng) -> np.ndarray:
    """Levy's bridge: the path at fraction a of span, N(x0 + a (x1 - x0), a (1 - a) span)."""
    z = rng.standard_normal(x0.size, dtype=np.float32)
    return x0 + a * (x1 - x0) + math.sqrt(a * (1.0 - a) * span) * z


def _simulate_component(
    mu_n: StepMeasure,
    c: float,
    d: float,
    n: int,
    dt: float,
    t_max: float,
    rng: np.random.Generator,
    hist_bins: int,
) -> ComponentRunReport:
    k = mu_n.mass
    m = k / n if n else 0.0
    left, right = c, d  # fronts; left <= right always
    frozen_left = frozen_right = 0
    pos = _quantiles(mu_n, rng.random(n) * k)

    freeze_pos = np.empty(n)
    freeze_t = np.empty(n)
    n_frozen = 0
    sqrt_dt = math.sqrt(dt)
    inv_dt = -2.0 / dt

    def freeze(left_mask: np.ndarray, right_mask: np.ndarray, when: float):
        # fronts stay at exactly c + m*count and d - m*count
        nonlocal n_frozen, left, right, frozen_left, frozen_right
        nl = int(np.count_nonzero(left_mask))
        nr = int(np.count_nonzero(right_mask))
        if nl:
            slots = left + m * (np.arange(nl) + 0.5)
            freeze_pos[n_frozen : n_frozen + nl] = slots
            freeze_t[n_frozen : n_frozen + nl] = when
            n_frozen += nl
            frozen_left += nl
            left = c + m * frozen_left
        if nr:
            slots = right - m * (np.arange(nr) + 0.5)
            freeze_pos[n_frozen : n_frozen + nr] = slots
            freeze_t[n_frozen : n_frozen + nr] = when
            n_frozen += nr
            frozen_right += nr
            right = d - m * frozen_right
        return nl + nr

    def cascade(current: np.ndarray, when: float) -> np.ndarray:
        # advancing fronts may sweep past survivors; repeat until stable
        while current.size:
            cl = current <= left
            cr = (~cl) & (current >= right)
            if not freeze(cl, cr, when):
                break
            current = current[~(cl | cr)]
        return current

    pos = cascade(pos, 0.0)  # mass starting on the boundary freezes at once

    def check(current: np.ndarray):
        # discrete stopping never leaves the component
        if not left <= right + 1e-9 * max(1.0, abs(c), abs(d)):
            raise VerificationError(f"fronts crossed: left {left!r} > right {right!r}")
        if current.size and not (current.min() > left and current.max() < right):
            raise VerificationError(
                f"live walker outside the fronts ({left!r}, {right!r})"
            )

    # The walk runs in float32: position rounding (~1e-7) is far below the
    # statistical resolution, and the narrower arrays nearly halve the step
    # cost. Front bookkeeping stays in float64 scalars, so the mass and
    # moment accounting is unaffected.
    pos = pos.astype(np.float32)
    step_buf = np.empty(n, dtype=np.float32)
    u_buf = np.empty(n, dtype=np.float32)
    tmp_a = np.empty(n, dtype=np.float32)
    tmp_b = np.empty(n, dtype=np.float32)
    n_steps = math.ceil(t_max / dt - 0.5)  # the steps ending before t_max - dt/2
    step = 0

    with np.errstate(over="ignore"):  # exp overflow on deep crossings means p >= 1
        while pos.size and step < n_steps:
            block = min(_BLOCK, n_steps - step)  # the last block ends at n_steps
            span = block * dt
            band = _Z * math.sqrt(span)
            split = band * 1.0625  # a margin for the fronts' travel keeps refinement rare
            far = (pos - left > split) & (right - pos > split)
            x0 = pos[far]
            x1 = x0 + math.sqrt(span) * rng.standard_normal(x0.size, dtype=np.float32)
            fine = pos[~far]
            # the front positions that enter the outermost coarse walker's band
            lo, hi = float(x0.min(initial=np.inf)) - band, float(x0.max(initial=-np.inf)) + band
            for j in range(1, block + 1):
                t = (step + j) * dt
                if not fine.size:
                    continue
                size = fine.size
                new = step_buf[:size]
                rng.standard_normal(dtype=np.float32, out=new)
                np.multiply(new, sqrt_dt, out=new)
                np.add(new, fine, out=new)
                u = u_buf[:size]
                rng.random(dtype=np.float32, out=u)
                # Brownian bridge crossing probability against the start-of-step
                # fronts; a post-step crossing makes the argument nonnegative, so
                # p >= 1 there and the comparison subsumes the hard-crossing test.
                p_l = tmp_a[:size]
                np.subtract(fine, left, out=p_l)
                scratch = tmp_b[:size]
                np.subtract(new, left, out=scratch)
                np.multiply(p_l, scratch, out=p_l)
                np.multiply(p_l, inv_dt, out=p_l)
                np.exp(p_l, out=p_l)
                cross_l = u < p_l
                p_r = scratch
                np.subtract(right, fine, out=p_r)
                tail = fine  # start positions no longer needed this step
                np.subtract(right, new, out=tail)
                np.multiply(p_r, tail, out=p_r)
                np.multiply(p_r, inv_dt, out=p_r)
                np.exp(p_r, out=p_r)
                np.add(p_l, p_r, out=p_l)
                cross_any = u < p_l
                cross_r = cross_any & ~cross_l
                if cross_any.any():
                    freeze(cross_l, cross_r, t)
                    fine = cascade(new[~cross_any], t)  # mask indexing copies
                    while left > lo or right < hi:
                        # a front entered coarse bands; float64, as for lo and hi,
                        # so the outermost walker is always among the refined
                        near = (np.subtract(x0, band, dtype=np.float64) < left) | (
                            np.add(x0, band, dtype=np.float64) > right
                        )
                        mid = _bridge_point(x0[near], x1[near], j / block, span, rng)
                        fine = cascade(np.concatenate((fine, mid)), t)
                        x0, x1 = x0[~near], x1[~near]
                        lo, hi = float(x0.min(initial=np.inf)) - band, float(x0.max(initial=-np.inf)) + band
                else:
                    fine = new.copy()  # new is a view of step_buf
                check(fine)
            # a coarse endpoint beyond a front (probability < 2**-24) freezes here
            pos = cascade(np.concatenate((fine, x1)), t)
            check(pos)
            step += block

    frozen = freeze_pos[:n_frozen]
    times = freeze_t[:n_frozen]
    counts, edges = np.histogram(frozen, bins=hist_bins, range=(c, d))
    return ComponentRunReport(
        interval=(c, d),
        n=n,
        unit_mass=m,
        frozen_left=frozen_left,
        frozen_right=frozen_right,
        unfrozen=int(pos.size),
        p_hat=m * frozen_left,
        q_hat=m * frozen_right,
        left_front=left,
        right_front=right,
        mean_freeze_time=float(times.mean()) if n_frozen else math.nan,
        freeze_position_mean=float(frozen.mean()) if n_frozen else math.nan,
        freeze_position_std=float(frozen.std()) if n_frozen else math.nan,
        hist_edges=tuple(edges.tolist()),
        hist_counts=tuple(int(x) for x in counts),
    )


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

    def one(i: int) -> ComponentRunReport:
        c, d = open_set.components[i]
        rng = np.random.default_rng([cfg.seed, i])
        dt = cfg.dt if cfg.dt is not None else 1e-4 * (d - c) ** 2
        n_i = alloc[i] if masses[i] > 0.0 else 0
        return _simulate_component(
            parts[i], c, d, n_i, dt, cfg.t_max, rng, cfg.hist_bins
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
        if abs(comp.interval[0] - block.c) > 1e-9 or abs(comp.interval[1] - block.d) > 1e-9:
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
