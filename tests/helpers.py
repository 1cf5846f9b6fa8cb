"""Random instance generators and reference implementations for the tests."""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_right
from typing import Iterable

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from stefan1d import (
    DEFAULT_TOL,
    OpenSet1D,
    StepMeasure,
    SupportError,
    ValidationError,
    VerificationError,
    indicator,
    make_step_measure,
    zero_measure,
)
from stefan1d.measure import _bounds, _from_cells
from stefan1d.particles import ComponentRunReport
from stefan1d.potential import OrderCertificate, PiecewiseQuadratic
from stefan1d.solver import BlockPair, _unit_blocks, solve_component
from stefan1d.walkers import _quantiles


def sum_measures(measures: Iterable[StepMeasure]) -> StepMeasure:
    out = zero_measure()
    for mu in measures:
        out = out + mu
    return out


def cdf(mu: StepMeasure, y: float) -> float:
    """Mass of (-inf, y]; piecewise linear and nondecreasing in y."""
    acc = 0.0
    for lo, hi, v in mu.cells():
        if y <= lo:
            break
        acc += v * (min(y, hi) - lo)
    return acc


def canonicalize(mu: StepMeasure) -> StepMeasure:
    """Re-normalise a StepMeasure; idempotent on canonical inputs."""
    return _from_cells(mu.cells())


def random_open_set(rng: np.random.Generator, max_components: int = 3) -> OpenSet1D:
    n = int(rng.integers(1, max_components + 1))
    comps = []
    left = float(rng.uniform(-3.0, -2.0))
    for _ in range(n):
        width = float(rng.uniform(0.4, 1.6))
        comps.append((left, left + width))
        left += width + float(rng.uniform(0.05, 0.6))
    return OpenSet1D.of(*comps)


def random_admissible_measure(
    rng: np.random.Generator,
    open_set: OpenSet1D,
    max_cells: int = 4,
    allow_empty_components: bool = True,
) -> StepMeasure:
    """Random step density <= 1 supported inside the open set."""
    parts = []
    for c, d in open_set.components:
        if allow_empty_components and rng.random() < 0.15:
            continue
        ncells = int(rng.integers(1, max_cells + 1))
        lo = float(rng.uniform(c + 1e-6, c + 0.45 * (d - c)))
        hi = float(rng.uniform(d - 0.45 * (d - c), d - 1e-6))
        pts = np.linspace(lo, hi, ncells + 1)
        vals = rng.uniform(0.0, 1.0, ncells)
        if rng.random() < 0.2:
            vals[int(rng.integers(0, ncells))] = 1.0
        parts.append(make_step_measure(pts.tolist(), vals.tolist()))
    if not parts:
        c, d = open_set.components[0]
        parts.append(indicator(c + 0.3 * (d - c), d - 0.3 * (d - c), 0.5))
    return sum_measures(parts)


@st.composite
def unit_block_measures(draw, max_blocks: int = 12):
    """1 to max_blocks disjoint unit blocks at random places in (-1, 1)."""
    inner = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
    nb = draw(st.integers(1, max_blocks))
    edges = sorted(draw(st.lists(inner, min_size=2 * nb, max_size=2 * nb, unique=True)))
    return make_step_measure(edges, [1.0, 0.0] * (nb - 1) + [1.0])


def random_unit_blocks(
    rng: np.random.Generator,
    c: float,
    d: float,
    n_blocks: int,
    margin: float = 0.02,
) -> StepMeasure:
    """Disjoint unit-density blocks strictly inside (c, d)."""
    width = d - c
    inner_lo = c + margin * width
    inner_hi = d - margin * width
    # 2*n_blocks edges with guaranteed separation: draw weights, renormalise
    weights = rng.uniform(0.2, 1.0, 2 * n_blocks + 1)
    edges = inner_lo + (inner_hi - inner_lo) * np.cumsum(weights)[:-1] / weights.sum()
    blocks = [
        indicator(float(edges[2 * i]), float(edges[2 * i + 1]))
        for i in range(n_blocks)
    ]
    return sum_measures(blocks)


# -- references: the direct algorithms that the fast paths must reproduce ------


def sweep_reference(mu: StepMeasure, open_set: OpenSet1D):
    """The sweep that builds every intermediate state as it merges."""
    if len(open_set.components) != 1:
        raise ValidationError("sweep operates on a single-interval domain")
    (c, d) = open_set.components[0]
    blocks = _unit_blocks(mu)
    if not blocks:
        return BlockPair(c, c, d, d), []
    if blocks[0][0] <= c or blocks[-1][1] >= d:
        raise ValidationError("sweep blocks must lie strictly inside the domain")

    states: list[StepMeasure] = []
    sat_end = c  # (c, sat_end) is saturated so far
    carry = blocks[0]
    for i, nxt in enumerate(blocks[1:], start=1):
        a, b = carry
        sub = solve_component(sat_end, nxt[0], b - a, (b * b - a * a) / 2.0)
        sat_end = sub.e
        carry = (sub.f, nxt[1])  # produced right block touches the next one
        states.append(
            _from_cells(
                [(c, sat_end, 1.0), (carry[0], carry[1], 1.0)]
                + [(lo, hi, 1.0) for lo, hi in blocks[i + 1 :]]
            )
        )
    a, b = carry
    final = solve_component(sat_end, d, b - a, (b * b - a * a) / 2.0)
    return BlockPair(c, final.e, final.f, d), states


def density_at(mu: StepMeasure, y: float) -> float:
    """Density at y; at a break the right cell wins (a.e. irrelevant)."""
    if not mu.breaks or y < mu.breaks[0] or y >= mu.breaks[-1]:
        return 0.0
    return mu.values[bisect_right(mu.breaks, y) - 1]


def restrict_reference(
    mu: StepMeasure, open_set: OpenSet1D, tol: float = DEFAULT_TOL
) -> list[StepMeasure]:
    """Quadratic restriction: clip every cell of mu to every component."""
    parts: list[StepMeasure] = []
    for c, d in open_set.components:
        sub = [
            (max(lo, c), min(hi, d), v)
            for lo, hi, v in mu.cells()
            if min(hi, d) > max(lo, c)
        ]
        parts.append(_from_cells(sub))
    leaked = mu.mass - sum(p.mass for p in parts)
    if leaked > _bounds(tol, mu.mass, *mu.support())[0]:
        raise SupportError(
            f"measure carries mass {leaked:.9g} outside the open set", leaked
        )
    return parts


def merged_cells_reference(mu: StepMeasure, nu: StepMeasure) -> list[tuple]:
    """(lo, hi, density_mu, density_nu) on the sorted union of both grids.

    Reads each density at the cell midpoint, so it is right only where that
    midpoint falls strictly inside the cell (see :func:`midpoints_interior`).
    """
    grid = sorted({*mu.breaks, *nu.breaks})
    return [
        (lo, hi, density_at(mu, 0.5 * (lo + hi)), density_at(nu, 0.5 * (lo + hi)))
        for lo, hi in zip(grid, grid[1:])
    ]


def _sample_point(bp, piece: int) -> float:
    if not bp:
        return 0.0
    if piece == 0:
        return bp[0] - 1.0
    if piece == len(bp):
        return bp[-1] + 1.0
    return 0.5 * (bp[piece - 1] + bp[piece])


def sub_reference(f, g):
    """f - g for piecewise polynomials, one bisect per piece on each side.

    Right only where every sample point falls strictly inside its piece
    (see :func:`midpoints_interior`).
    """
    bp = sorted({*f.breakpoints, *g.breakpoints})
    coeffs = []
    for i in range(len(bp) + 1):
        y = _sample_point(bp, i)
        mine = f.coeffs[bisect_right(f.breakpoints, y)]
        theirs = g.coeffs[bisect_right(g.breakpoints, y)]
        coeffs.append(tuple(map(operator.sub, mine, theirs)))
    return type(f)(tuple(bp), tuple(coeffs))


def midpoints_interior(*grids) -> bool:
    """Whether every sample point of the references lies inside its piece.

    It fails on ulp-adjacent breaks, whose midpoint rounds onto an end, and
    on tails whose sample point rounds onto the outermost break.
    """
    bp = sorted({x for grid in grids for x in grid})
    if bp and not (bp[0] - 1.0 < bp[0] and bp[-1] < bp[-1] + 1.0):
        return False
    return all(lo < 0.5 * (lo + hi) < hi for lo, hi in zip(bp, bp[1:]))


# -- the solve path before it became one pass per cell ----------------------------


def make_step_measure_reference(breaks, values) -> StepMeasure:
    """Validate index by index, then sort and rebuild the cells in _from_cells."""
    b = tuple(float(x) for x in breaks)
    v = tuple(float(x) for x in values)
    if len(b) == 0 and len(v) == 0:
        return StepMeasure((), ())
    if len(v) != len(b) - 1:
        raise ValidationError(
            f"expected len(values) == len(breaks) - 1, got {len(v)} and {len(b)}"
        )
    for i, x in enumerate(b):
        if not math.isfinite(x):
            raise ValidationError(f"breaks[{i}] is not finite: {x!r}")
    for i in range(len(b) - 1):
        if b[i + 1] <= b[i]:
            raise ValidationError(
                f"breaks must be strictly increasing: breaks[{i}]={b[i]!r} "
                f">= breaks[{i + 1}]={b[i + 1]!r}"
            )
    for i, x in enumerate(v):
        if not math.isfinite(x):
            raise ValidationError(f"values[{i}] is not finite: {x!r}")
        if x < 0.0:
            raise ValidationError(f"values[{i}] is negative: {x!r}")
    return _from_cells(zip(b, b[1:], v))


def mass_reference(mu: StepMeasure) -> float:
    return sum((v * (hi - lo) for lo, hi, v in mu.cells()), 0.0)


def first_moment_reference(mu: StepMeasure) -> float:
    return sum((v * (hi * hi - lo * lo) / 2.0 for lo, hi, v in mu.cells()), 0.0)


def potential_reference(mu: StepMeasure) -> PiecewiseQuadratic:
    """Coefficients cell by cell from explicit prefix sums."""
    n = mu.ncells
    if n == 0:
        return PiecewiseQuadratic((), ((0.0, 0.0, 0.0),))
    b = mu.breaks
    v = mu.values
    cell_mass = [v[i] * (b[i + 1] - b[i]) for i in range(n)]
    cell_mom = [v[i] * (b[i + 1] ** 2 - b[i] ** 2) / 2.0 for i in range(n)]
    k = sum(cell_mass)
    beta = sum(cell_mom)
    pre_m = [0.0] * (n + 1)
    pre_s = [0.0] * (n + 1)
    for i in range(n):
        pre_m[i + 1] = pre_m[i] + cell_mass[i]
        pre_s[i + 1] = pre_s[i] + cell_mom[i]
    coeffs = [(0.0, k / 2.0, -beta / 2.0)]
    for i in range(n):
        suf_m = k - pre_m[i + 1]
        suf_s = beta - pre_s[i + 1]
        a = -v[i] / 2.0
        bb = v[i] * (b[i] + b[i + 1]) / 2.0 + (suf_m - pre_m[i]) / 2.0
        cc = -v[i] * (b[i] ** 2 + b[i + 1] ** 2) / 4.0 + (pre_s[i] - suf_s) / 2.0
        coeffs.append((a, bb, cc))
    coeffs.append((0.0, -k / 2.0, beta / 2.0))
    return PiecewiseQuadratic(b, tuple(coeffs))


def max_on_reference(f: PiecewiseQuadratic, lo: float, hi: float) -> tuple[float, float]:
    """Candidates listed per piece, the window clipped piece by piece."""
    if hi < lo:
        raise ValidationError("empty window")
    best, arg = -math.inf, lo
    bp = f.breakpoints
    for i, (a, b, c) in enumerate(f.coeffs):
        seg_lo = lo if i == 0 else max(lo, bp[i - 1])
        seg_hi = hi if i == len(bp) else min(hi, bp[i])
        if seg_hi < seg_lo:
            continue
        candidates = [seg_lo, seg_hi]
        if a < 0.0:
            vertex = -b / (2.0 * a)
            if seg_lo < vertex < seg_hi:
                candidates.append(vertex)
        for y in candidates:
            val = (a * y + b) * y + c
            if val > best:
                best, arg = val, y
    return best, arg


def dominates_reference(mu: StepMeasure, nu: StepMeasure, tol: float = DEFAULT_TOL):
    """The certificate from the built difference, maximised over its hull."""
    diff = potential_reference(nu) - potential_reference(mu)
    if diff.breakpoints:
        gap, point = max_on_reference(diff, diff.breakpoints[0], diff.breakpoints[-1])
    else:
        gap, point = diff.coeffs[0][2], 0.0
    mass_gap = abs(mass_reference(mu) - mass_reference(nu))
    moment_gap = abs(first_moment_reference(mu) - first_moment_reference(nu))
    mass_bound, bound = _bounds(tol, mass_reference(mu), *hull(mu, nu))
    ordered = gap <= bound and mass_gap <= mass_bound and moment_gap <= bound
    return OrderCertificate(ordered, mass_gap, moment_gap, point, gap)


def hull(mu: StepMeasure, nu: StepMeasure) -> tuple[float, float]:
    """Joint hull of both grids; (0, 0) when both measures are zero."""
    breaks = (*mu.breaks, *nu.breaks)
    return (min(breaks), max(breaks)) if breaks else (0.0, 0.0)


# -- particle system: exact initial sampling and the single-rate loop -----------


def sample_initial(mu: StepMeasure, n: int, seed) -> np.ndarray:
    """n i.i.d. draws from mu / mass(mu) by exact inversion of the cdf."""
    if mu.ncells == 0 or mu.mass <= 0.0:
        raise ValidationError("cannot sample from a zero-mass measure")
    if n < 1:
        raise ValidationError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    return _quantiles(mu, rng.random(n) * mu.mass)


def simulate_component_reference(
    mu_n: StepMeasure,
    c: float,
    d: float,
    n: int,
    dt: float,
    t_max: float,
    rng: np.random.Generator,
    hist_bins: int,
) -> ComponentRunReport:
    """One component's run with the fine step for every walker at every step.

    The particle system before multi-rate stepping: ``particles.run`` must
    reproduce its law, not its random stream.
    """
    k = mu_n.mass
    m = k / n
    left, right = c, d  # fronts; left <= right always
    frozen_left = frozen_right = 0
    pos = _quantiles(mu_n, rng.random(n) * k)

    freeze_pos = np.empty(n)
    freeze_t = np.empty(n)
    n_frozen = 0
    sqrt_dt = math.sqrt(dt)
    inv_dt = -2.0 / dt
    t = 0.0

    def freeze(left_mask: np.ndarray, right_mask: np.ndarray, when: float):
        # fronts stay at exactly c + m*count and d - m*count
        nonlocal n_frozen, left, right, frozen_left, frozen_right
        nl = int(left_mask.sum())
        nr = int(right_mask.sum())
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

    # The walk runs in float32: position rounding (~1e-7) is far below the
    # statistical resolution, and the narrower arrays nearly halve the step
    # cost. Front bookkeeping stays in float64 scalars, so the mass and
    # moment accounting is unaffected.
    pos = pos.astype(np.float32)
    step_buf = np.empty(n, dtype=np.float32)
    u_buf = np.empty(n, dtype=np.float32)
    tmp_a = np.empty(n, dtype=np.float32)
    tmp_b = np.empty(n, dtype=np.float32)

    with np.errstate(over="ignore"):  # exp overflow on deep crossings means p >= 1
        while pos.size and t < t_max - 0.5 * dt:
            size = pos.size
            new = step_buf[:size]
            rng.standard_normal(dtype=np.float32, out=new)
            np.multiply(new, sqrt_dt, out=new)
            np.add(new, pos, out=new)
            u = u_buf[:size]
            rng.random(dtype=np.float32, out=u)
            # Brownian bridge crossing probability against the start-of-step
            # fronts; a post-step crossing makes the argument nonnegative, so
            # p >= 1 there and the comparison subsumes the hard-crossing test.
            p_l = tmp_a[:size]
            np.subtract(pos, left, out=p_l)
            scratch = tmp_b[:size]
            np.subtract(new, left, out=scratch)
            np.multiply(p_l, scratch, out=p_l)
            np.multiply(p_l, inv_dt, out=p_l)
            np.exp(p_l, out=p_l)
            cross_l = u < p_l
            p_r = scratch
            np.subtract(right, pos, out=p_r)
            tail = pos  # start positions no longer needed this step
            np.subtract(right, new, out=tail)
            np.multiply(p_r, tail, out=p_r)
            np.multiply(p_r, inv_dt, out=p_r)
            np.exp(p_r, out=p_r)
            np.add(p_l, p_r, out=p_l)
            cross_any = u < p_l
            cross_r = cross_any & ~cross_l
            t += dt
            if cross_any.any():
                freeze(cross_l, cross_r, t)
                pos = cascade(new[~cross_any], t)  # mask indexing copies
            else:
                pos = new.copy()  # new is a view of step_buf
            # discrete stopping never leaves the component
            if not left <= right + 1e-9 * max(1.0, abs(c), abs(d)):
                raise VerificationError(f"fronts crossed: left {left!r} > right {right!r}")
            if pos.size and not (pos.min() > left and pos.max() < right):
                raise VerificationError(
                    f"live walker outside the fronts ({left!r}, {right!r})"
                )

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


# -- strategies for the reference comparisons -----------------------------------

#: Breaks, breakpoints and component endpoints share this grid, so endpoints
#: fall exactly on breaks, components touch or miss the support, and -0.0
#: meets 0.0.
GRID = [k / 4 for k in range(-12, 13)] + [-0.0]


def grid_breaks(min_size: int = 0, max_size: int = 8):
    """Strictly increasing tuples mixing grid points and arbitrary floats."""
    point = st.one_of(st.sampled_from(GRID), st.floats(-4.0, 4.0))
    return st.lists(point, min_size=min_size, max_size=max_size, unique=True).map(
        lambda xs: tuple(sorted(xs))
    )


@st.composite
def grid_measures(draw):
    """Canonical measures on grid breaks, with zero cells inside and at the ends."""
    breaks = draw(grid_breaks())
    if len(breaks) < 2:
        return zero_measure()
    density = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]), st.floats(0.0, 5.0))
    values = draw(st.lists(density, min_size=len(breaks) - 1, max_size=len(breaks) - 1))
    return make_step_measure(breaks, values)


@st.composite
def grid_open_sets(draw):
    """Open sets on grid endpoints; a step of 1 makes the next component touch."""
    ends = draw(grid_breaks(min_size=2, max_size=9))
    assume(len(ends) >= 2)
    comps, i = [], 0
    while i + 1 < len(ends):
        comps.append((ends[i], ends[i + 1]))
        i += draw(st.sampled_from([1, 2]))
    return OpenSet1D.of(*comps)


#: A break whose libm square differs from the product: x ** 2 != x * x.
POW_BREAK = 1.6650523950856364

#: Densities at the edges of the flush: signed zero, subnormal, smallest normal.
EDGE_DENSITIES = [0.0, -0.0, 5e-324, 1e-310, sys.float_info.min, 0.25, 0.5, 1.0, 2.0]


@st.composite
def raw_cells(draw):
    """Input breaks and densities: grid points, -0.0, ulp neighbours, POW_BREAK."""
    xs = list(draw(grid_breaks(max_size=7)))
    xs += draw(st.lists(st.sampled_from([POW_BREAK, -POW_BREAK]), max_size=1))
    for x in draw(st.lists(st.sampled_from(xs), max_size=2)) if xs else ():
        xs.append(math.nextafter(x, math.inf))
    breaks = sorted(set(xs))
    density = st.one_of(st.sampled_from(EDGE_DENSITIES), st.floats(0.0, 5.0))
    n = max(len(breaks) - 1, 0)
    return breaks, draw(st.lists(density, min_size=n, max_size=n))


def cell_measures():
    """Canonical measures built from :func:`raw_cells`."""
    return raw_cells().map(lambda bv: make_step_measure(*bv))
