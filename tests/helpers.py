"""Random instance generators and reference implementations for the tests."""

from __future__ import annotations

import math
import operator
import random
import sys
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, count, repeat
from typing import Iterable, Sequence

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from stefan1d import (
    DEFAULT_TOL,
    AdmissibilityError,
    MaximalSolution,
    OpenSet1D,
    StepMeasure,
    SupportError,
    ValidationError,
    VerificationError,
    indicator,
    make_step_measure,
)
from stefan1d.measure import _MIN_DENSITY, _bounds, _canonical, _checked, _unit
from stefan1d.particles import ComponentRunReport
from stefan1d.potential import (
    EXIT_TIME_ASSUMPTION,
    OrderCertificate,
    PiecewiseQuadratic,
    _certify,
    _sigma,
)
from stefan1d.solver import BlockPair, _blocks_measure, _gap, _holes, _two_holes, _unit_blocks
from stefan1d.walkers import _quantiles


def zero_measure() -> StepMeasure:
    return StepMeasure((), ())


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
    return _canonical(mu.breaks, mu.values)


def from_cells_reference(cells: Iterable[tuple[float, float, float]]) -> StepMeasure:
    """Canonical StepMeasure from (lo, hi, density) cells: the sort-and-clamp loop.

    Cells must be non-overlapping but may touch, arrive unsorted, and may
    include zero-width entries or densities below _MIN_DENSITY (both dropped).
    Gaps between kept cells become explicit zero cells so the break grid
    stays contiguous.
    """
    pos = sorted(
        (float(lo), float(hi), float(v))
        for lo, hi, v in cells
        if hi > lo and v >= _MIN_DENSITY
    )
    breaks: list[float] = []
    values: list[float] = []
    for lo, hi, v in pos:
        if breaks:
            # tolerate rounding dust, reject genuine overlap
            if lo < breaks[-1] and breaks[-1] - lo > _bounds(0.0, 0.0, pos[0][0], pos[-1][1])[0]:
                raise ValidationError("internal: overlapping cells")
            lo = max(lo, breaks[-1])
            if hi <= lo:
                continue
        if not breaks:
            breaks.extend((lo, hi))
            values.append(v)
            continue
        if lo > breaks[-1]:
            values.append(0.0)
            breaks.append(lo)
        if values and values[-1] == v:
            breaks[-1] = hi
        else:
            values.append(v)
            breaks.append(hi)
    if 0.0 in breaks:  # a zero break is 0.0
        breaks[breaks.index(0.0)] = 0.0
    return _checked(tuple(breaks), tuple(values))


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
    hole = blocks[0][0] - c  # then a hole of this mass, then the carried block
    carry = blocks[0]
    for i, nxt in enumerate(blocks[1:], start=1):
        # the carried block's gap in the sub-domain, from the hole's mass and the next hole
        hole, off = _two_holes(sat_end, hole, carry[1], nxt[0])
        sat_end, f = _gap(sat_end, nxt[0], hole, off)
        carry = (f, nxt[1])  # produced right block touches the next one
        states.append(
            from_cells_reference(
                [(c, sat_end, 1.0), (carry[0], carry[1], 1.0)]
                + [(lo, hi, 1.0) for lo, hi in blocks[i + 1 :]]
            )
        )
    e, f = _gap(sat_end, d, *_two_holes(sat_end, hole, carry[1], d))
    return BlockPair(c, e, f, d), states


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
        parts.append(from_cells_reference(sub))
    leaked = mu.mass - sum(p.mass for p in parts)
    if leaked > _bounds(tol, mu.mass, *mu.support())[0]:
        raise SupportError(
            f"measure carries mass {leaked:.9g} outside the open set", leaked
        )
    return parts


# -- the certificate on per-component measures, before it read cuts ----------------


def slices_reference(mu: StepMeasure, open_set: OpenSet1D) -> list[StepMeasure]:
    """The bisect-and-slice parts of mu, each built through the door, without the leak check."""
    b, v = mu.breaks, mu.values
    parts: list[StepMeasure] = []
    for c, d in open_set.components:
        lo = max(bisect_right(b, c) - 1, 0)
        hi = min(bisect_left(b, d), len(v))
        while lo < hi and not v[lo]:
            lo += 1
        while lo < hi and not v[hi - 1]:
            hi -= 1
        if lo == hi:
            parts.append(zero_measure())
        elif hi - lo == len(v) and b[0] >= c and b[-1] <= d:
            parts.append(mu)
        else:
            breaks = (float(max(b[lo], c)), *b[lo + 1 : hi], float(min(b[hi], d)))
            parts.append(_checked(breaks, v[lo:hi]))
    return parts


def sliced_restrict_reference(
    mu: StepMeasure, open_set: OpenSet1D, tol: float = DEFAULT_TOL
) -> list[StepMeasure]:
    """The slices, then the check for mass outside the set on their cached masses."""
    parts = slices_reference(mu, open_set)
    leaked = mu.mass - sum(p.mass for p in parts)
    if leaked > _bounds(tol, mu.mass, *mu.support())[0]:
        raise SupportError(f"measure carries mass {leaked:.9g} outside the open set", leaked)
    return parts


def certify_parts_reference(mus, nus, open_set: OpenSet1D, tol: float) -> OrderCertificate:
    """The component-wise certificate on measures aligned with the components."""
    per = [
        _certify(m.mass, n.mass, *_sigma(n.breaks, n.values, m.breaks, m.values), c, d, tol)
        for (c, d), m, n in zip(open_set.components, mus, nus)
    ]
    worst_gap, worst_point, mass_gap, moment_gap = 0.0, 0.0, 0.0, 0.0
    for cert in per:
        if cert.worst_gap > worst_gap:
            worst_gap, worst_point = cert.worst_gap, cert.worst_point
        mass_gap = max(mass_gap, cert.mass_gap)
        moment_gap = max(moment_gap, cert.moment_gap)
    return OrderCertificate(
        all(cert.ordered for cert in per), mass_gap, moment_gap, worst_point, worst_gap,
        per_component=tuple(per), assumptions=EXIT_TIME_ASSUMPTION,
    )


def order_reference(mu, nu, open_set: OpenSet1D, tol: float = DEFAULT_TOL) -> OrderCertificate:
    mus = sliced_restrict_reference(mu, open_set, tol)
    return certify_parts_reference(mus, sliced_restrict_reference(nu, open_set, tol), open_set, tol)


def solve_reference(
    mu: StepMeasure, open_set: OpenSet1D, tol: float = DEFAULT_TOL
) -> MaximalSolution:
    """The solve that restricts mu and slices its target into measures, then certifies those."""
    top = mu.max_density()
    if top > 1.0 + tol:
        raise AdmissibilityError(f"density {top:.9g} exceeds the admissible bound 1")
    parts = sliced_restrict_reference(mu, open_set, tol)
    blocks, stats = [], []
    for (c, d), mu_n in zip(open_set.components, parts):
        h, off, moment = _holes(mu_n.breaks, mu_n.values, c, d)
        blocks.append(BlockPair(c, *_gap(c, d, h, off), d))
        stats.append((mu_n.mass, mu_n.mass * (0.5 * (c + d)) + moment))
    target = _blocks_measure(b.as_tuple() for b in blocks)
    certificate = certify_parts_reference(parts, slices_reference(target, open_set), open_set, tol)
    if not certificate.ordered:
        raise VerificationError(
            "solver output failed the potential order certification "
            f"(worst gap {certificate.worst_gap:.3e} at {certificate.worst_point:.9g})",
            certificate,
        )
    return MaximalSolution(tuple(blocks), tuple(stats), certificate)


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
    """Validate index by index, then sort and rebuild the cells in from_cells_reference."""
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
    return from_cells_reference(zip(b, b[1:], v))


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


# -- the certificate's merge and walk as list passes, before runs and loops -----


def merged_reference(nu: StepMeasure, mu: StepMeasure) -> tuple[list[float], list[float]]:
    """The stable sort of both grids, then one density lookup per merged break."""
    nb, mb = nu.breaks, mu.breaks
    xs = sorted((*nb, *mb))
    # nu's break i sits at i plus the count of mu's breaks below it
    from_nu = [0] * len(xs)
    for at in map(operator.add, count(), map(bisect_left, repeat(mb), nb)):
        from_nu[at] = 1
    nu_v = map((0.0, *nu.values, 0.0).__getitem__, accumulate(from_nu))
    mu_v = map((0.0, *mu.values, 0.0).__getitem__, accumulate(map(operator.sub, repeat(1), from_nu)))
    return xs, [*map(operator.sub, nu_v, mu_v)][:-1]


def walk_reference(xs, sigma, centre: float, unit: float) -> tuple[float, float, float]:
    """The certificate walk over lists of widths, F, 2G and the break values.

    The maximum over the breaks is taken first, then each vertex wins when
    larger, or equal and before the break that holds the maximum.
    """
    if not xs:
        return 0.0, 0.0, 0.0
    widths = [*map(unit.__mul__, map(operator.sub, xs[1:], xs))]
    cum = [*accumulate(map(operator.mul, sigma, widths), initial=0.0)]
    twice_g = [*accumulate(map(operator.mul, widths, map(operator.add, cum, cum[1:])), initial=0.0)]
    mass = cum[-1]
    moment = (xs[-1] - centre) * unit * mass - 0.5 * twice_g[-1]
    diff = [0.5 * ((x - centre) * unit * mass - moment - g) for x, g in zip(xs, twice_g)]
    best = max(diff)
    at = diff.index(best)
    point = xs[at]
    half_m = 0.5 * mass
    for j in [j for j, (lo, hi) in enumerate(zip(cum, cum[1:])) if lo < half_m < hi]:
        rise = half_m - cum[j]
        t = rise / sigma[j]
        if 0.0 < t < widths[j]:
            val = diff[j] + 0.5 * rise * t
            if val > best or (val == best and j < at):
                best, at, point = val, j + 1, xs[j] + t / unit
    return best + 0.0, point, moment


# -- the canonicaliser before it became one pass ---------------------------------


def canonical_reference(breaks: Sequence[float], values: Iterable[float]) -> StepMeasure:
    """``stefan1d.measure._canonical`` as masks: kept cells, then run starts, then the ends."""
    keep = [*map(operator.lt, breaks, breaks[1:])]  # cell i is wider than zero
    if not all(keep) and any(map(operator.gt, breaks, breaks[1:])):  # a break steps back
        top = [*accumulate(breaks, max)]
        keep = [*map(operator.lt, top, top[1:])]
    v = [x if x >= _MIN_DENSITY else 0.0 for x in compress(values, keep)]
    b = [*breaks[:1], *compress(breaks[1:], keep)]
    starts = [True, *map(operator.ne, v[1:], v)]  # cell i starts a run of equal densities
    values, cuts = [*compress(v, starts)], [*compress(b, starts), *b[-1:]]
    if values and not values[-1]:
        del values[-1], cuts[-1]
    if values and not values[0]:
        del values[0], cuts[0]
    if 0.0 in cuts:  # a zero break is 0.0
        cuts[cuts.index(0.0)] = 0.0
    return _checked(tuple(cuts), tuple(values)) if values else StepMeasure((), ())


# -- the hole pass before it became one loop ------------------------------------


def holes_reference(breaks, values, c: float, d: float) -> tuple[float, float, float]:
    """``stefan1d.solver._holes`` with its three summand lists built by comprehensions."""
    mid, unit = 0.5 * (c + d), _unit(c, d)
    b, v = (c, *breaks, d), (0.0, *values, 0.0)
    w = [(1.0 - x) * ((hi - lo) * unit) if x < 1.0 else 0.0 for x, lo, hi in zip(v, b, b[1:])]
    h = sum(w, 0.0)
    off = sum([x * ((lo - mid) + (hi - mid)) for x, lo, hi in zip(w, b, b[1:])], 0.0)
    s = sum(
        [
            x * (((hi - lo) * unit) * (((lo - mid) + (hi - mid)) * unit))
            for x, lo, hi in zip(v, b, b[1:])
        ],
        0.0,
    )
    return h / unit, (0.5 * off / h if h else 0.0), 0.5 * s / unit / unit


# -- the per-break merge walk that the run merge replaced -------------------------


def merge_walk_reference(a, b):
    """Walk the merged grid of two strictly increasing break sequences.

    Yields (lo, hi, i, j) for every interval, both unbounded tails included;
    i and j count the breaks of a and of b that are <= lo, so they index the
    piece of each side covering it. A break both sides hold comes once, as a's.
    """
    a, b = (*a, math.inf), (*b, math.inf)
    i = j = 0
    lo = -math.inf
    while lo < math.inf:
        x, y = a[i], b[j]
        if x <= y:
            yield lo, x, i, j
            lo = x
            i += 1
            j += x == y
        else:
            yield lo, y, i, j
            lo = y
            j += 1


def walked_cells_reference(mu: StepMeasure, nu: StepMeasure) -> list[tuple]:
    """(lo, hi, density_mu, density_nu) over the merged break grid, by the walk."""
    mv, nv = (0.0, *mu.values, 0.0), (0.0, *nu.values, 0.0)
    return [
        (lo, hi, mv[i], nv[j])
        for lo, hi, i, j in merge_walk_reference(mu.breaks, nu.breaks)
        if -math.inf < lo and hi < math.inf
    ]


def walked_sub_reference(f, g):
    """f - g for piecewise quadratics, one piece per interval of the walk."""
    bp, coeffs = [], []
    for _, hi, i, j in merge_walk_reference(f.breakpoints, g.breakpoints):
        bp.append(hi)
        coeffs.append(tuple(map(operator.sub, f.coeffs[i], g.coeffs[j])))
    bp.pop()  # the right tail's infinite end
    return type(f)(tuple(bp), tuple(coeffs))


#: Grid lengths: none, one lone break, a cell, a few, and long enough that
#: nu's breaks fall in long runs of mu's, or mu's between long runs of nu's.
MERGE_LENGTHS = [0, 1, 2, 5, 40, 300]


def _grid(rng: random.Random, n: int, place, shared, zero) -> tuple[float, ...]:
    """n distinct breaks, some from the shared pool, led by ``zero`` if given."""
    points = {zero} if n and zero is not None else set()
    while len(points) < n:
        points.add(rng.choice(shared) if rng.random() < 0.3 else place(rng.uniform(-1.0, 1.0)))
    return tuple(sorted(points))


@st.composite
def merge_pairs(draw):
    """Two measures placed alike, sharing breaks; nu may hold 0.0 where mu holds -0.0.

    Built without canonicalisation, so zero cells and the drawn lengths stay.
    Densities shrink with a scale above 1, so the door admits every pair.
    """
    offset = draw(st.one_of(st.just(0.0), st.floats(-1e8, 1e8)))
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    if offset:
        scale = max(scale, 1e-6 * abs(offset))
    place = (lambda u: offset + scale * u) if offset else (lambda u: scale * u)
    shared = [place(k / 4) for k in range(-4, 5)]
    signed_zeros = st.sampled_from([(None, None), (0.0, -0.0), (-0.0, 0.0)])
    zeros = (None, None) if offset else draw(signed_zeros)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pair = []
    for zero in zeros:
        breaks = _grid(rng, draw(st.sampled_from(MERGE_LENGTHS)), place, shared, zero)
        values = tuple(
            rng.choice([0.0, 0.5, 1.0, rng.random()]) / max(scale, 1.0) for _ in breaks[1:]
        )
        pair.append(_checked(breaks, values) if len(breaks) > 1 else StepMeasure(breaks, values))
    return tuple(pair)


# -- particle system: exact initial sampling and the single-rate loop -----------


def quantiles_reference(breaks, values, u: np.ndarray) -> np.ndarray:
    """The inverse cdf of the cells (breaks, values) at the masses u, from a loop over the cells.

    The positive cells and their cumulative masses are built in Python, one
    cell at a time: ``walkers._quantiles`` must match it bit for bit.
    """
    lb, dens, cum = [], [], [0.0]
    for lo, hi, v in zip(breaks, breaks[1:], values):
        if v <= 0.0:
            continue
        lb.append(lo)
        dens.append(v)
        cum.append(cum[-1] + v * (hi - lo))
    lb, dens, cum = np.asarray(lb), np.asarray(dens), np.asarray(cum)
    idx = np.searchsorted(cum[1:], u, side="left")
    np.clip(idx, 0, len(lb) - 1, out=idx)
    return lb[idx] + (u - cum[idx]) / dens[idx]


def sample_initial(mu: StepMeasure, n: int, seed) -> np.ndarray:
    """n i.i.d. draws from mu / mass(mu) by exact inversion of the cdf."""
    if mu.ncells == 0 or mu.mass <= 0.0:
        raise ValidationError("cannot sample from a zero-mass measure")
    if n < 1:
        raise ValidationError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    return _quantiles(mu.breaks, mu.values, rng.random(n) * mu.mass)


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
    pos = _quantiles(mu_n.breaks, mu_n.values, rng.random(n) * k)

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
