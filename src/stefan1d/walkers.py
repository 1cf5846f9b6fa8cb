"""Front-freezing Brownian particle walk: the numpy engine of `particles.run`.

Walkers start from their component's cut of the initial density, which
`particles.run` takes once, and move by Gaussian increments inside the
component. Two saturation fronts advance inward from the component
endpoints; a walker meeting a front freezes there and the front advances by
one particle mass, so the frozen region has density exactly one by
accounting and the discrete stopping time never exceeds the exit time of
the component. The final front positions estimate the block widths of the
maximal target; mass and first-moment conservation force the agreement.

Crossing detection combines the post-step position test with the within-step
Brownian bridge crossing probability against the start-of-step fronts, which
keeps the weak error of the frozen split first order in dt. Walkers crossing
a front are recorded at the front (slot midpoints of the swept region), not
at their overshot position.

The walk runs in nested blocks: a level-l block lasts _RADIX**l fine steps.
At its start, a walker farther than _Z * sqrt(_RADIX**l * dt), plus a margin,
from both fronts is coarse at that level: one Gaussian increment for the
whole block, no uniform. The others walk the block's _RADIX sub-blocks of
level l - 1, down to the single fine step at level 0. The fine scheme would
freeze a coarse walker within its block with probability below 2**-24, the
granularity of the float32 uniform its crossing test draws; like
walk-on-spheres (Muller 1956), the rule sizes each step by the distance to
the boundary, while the fine step keeps the bridge correction (Gobet 2000).
When a freeze moves a front into the band of a coarse walker, at any level
in force, the walker rejoins the walk from its Brownian bridge point, which
is exact in law. The coarsest level is the last whose band is narrower than
half the component, since no walker could be coarse at a coarser one.

Memory: the walk keeps each side's frozen count and the sum of the freeze
steps, from which the report's statistics come in closed form
(`_midpoint_stats`), and holds nothing per walker beyond the positions of
the live ones. Each fine step allocates float32 arrays for its fine set
alone (the new positions, the uniforms and each front's crossing
probability), a small share of the walkers, since most of them are coarse
at most steps. The start is sampled in place. On 0.99 chi_(0, sqrt(0.75))
in (-1, 1) at dt = 1e-3 the tracemalloc peak is 25.1, 25.3 and 24.0 B per
walker for n = 2e4, 1e5 and 1e6: in the walk for the first two, and
sampling the start for the third.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import VerificationError
from .measure import DEFAULT_TOL, _bounds, _unit
from .particles import ComponentRunReport

# A path reaches a level z below its start within time T with probability
# erfc(z / sqrt(2 T)) (reflection principle), so a walker _Z * sqrt(T) from
# both fronts meets one with probability 2 * erfc(_Z / sqrt(2)) = 5.7e-8 <= 2**-24.
_Z = 5.55
_RADIX = 4  # sub-blocks per block


def _quantiles(breaks: Sequence[float], values: Sequence[float], u: np.ndarray) -> np.ndarray:
    """The points of a cut's inverse cdf at the masses u, written over u and returned.

    The positive cells' masses are summed left to right (cumsum). u must be
    a float64 array that the caller gives up: the transform runs in place, so
    the only other n-sized array is the cell index.
    """
    b, v = np.asarray(breaks, dtype=float), np.asarray(values, dtype=float)
    positive = v > 0.0
    lb, dens = b[:-1][positive], v[positive]
    cum = np.concatenate(([0.0], np.cumsum(dens * (b[1:] - b[:-1])[positive])))
    idx = np.searchsorted(cum[1:], u, side="left")
    np.clip(idx, 0, len(lb) - 1, out=idx)
    # lb + (u - cum) / dens, in that order: addition commutes exactly
    u -= cum[idx]
    u /= dens[idx]
    u += lb[idx]
    return u


def _bridge_point(x0: np.ndarray, x1: np.ndarray, a: float, span: float, rng) -> np.ndarray:
    """Levy's bridge: the path at fraction a of span, N(x0 + a (x1 - x0), a (1 - a) span)."""
    z = rng.standard_normal(x0.size, dtype=np.float32)
    return x0 + a * (x1 - x0) + math.sqrt(a * (1.0 - a) * span) * z


class _Coarse:
    """The walkers that take one increment for the block of steps start + 1 to
    end: x0 are their positions after step start, x1 after step end."""

    __slots__ = ("x0", "x1", "start", "end", "span", "band", "lo", "hi")

    def __init__(self, x0, x1, start: int, end: int, span: float, band: float):
        self.start, self.end, self.span, self.band = start, end, span, band
        self.keep(x0, x1)

    def keep(self, x0: np.ndarray, x1: np.ndarray):
        self.x0, self.x1 = x0, x1
        # the front positions that enter the outermost walker's band
        self.lo = float(x0.min(initial=np.inf)) - self.band
        self.hi = float(x0.max(initial=-np.inf)) + self.band


class _Walk:
    """One component's fronts and freeze counts.

    Positions, fronts, c, d, m and dt are in the component's frame
    (`simulate_component`). Fine step s ends at time s * dt. The walk runs in
    float32: position rounding (~1e-7 of the width) is far below the
    statistical resolution, and the narrower arrays nearly halve the step
    cost. Front bookkeeping stays in float64 scalars, so the mass and moment
    accounting is unaffected; `fronts` holds both as a float32 column, the
    value a float32 operation gives a float64 scalar, so that one subtraction
    serves both.
    """

    def __init__(self, c: float, d: float, n: int, m: float, dt: float, n_steps: int, rng):
        self.c, self.d, self.m, self.dt, self.rng = c, d, m, dt, rng
        self.n_steps = n_steps
        self.left, self.right = c, d  # fronts; left <= right always
        self.fronts = np.array([[c], [d]], dtype=np.float32)
        self.frozen_left = self.frozen_right = 0
        self.step_sum = 0  # of the freeze steps, one per walker
        self.slack = _bounds(DEFAULT_TOL, n * m, c, d)[0]  # admissible excess mass, as in solve
        self.sqrt_dt = math.sqrt(dt)
        self.inv_dt = -2.0 / dt
        self.coarse: list[_Coarse] = []  # the blocks in force, outermost first

    def freeze(self, nl: int, nr: int, step: int) -> int:
        # fronts stay at exactly c + m*count and d - m*count, so each walker
        # freezes at its slot's midpoint (`_midpoint_stats`)
        self.step_sum += (nl + nr) * step
        if nl:
            self.frozen_left += nl
            self.left = self.c + self.m * self.frozen_left
        if nr:
            self.frozen_right += nr
            self.right = self.d - self.m * self.frozen_right
        self.fronts[:, 0] = (self.left, self.right)
        return nl + nr

    def settle(self, pos: np.ndarray, step: int) -> np.ndarray:
        """Freeze the walkers the fronts have swept, repeating while they advance."""
        # discrete stopping never leaves the component: the loop ends with every
        # walker strictly inside the fronts
        while pos.size and not (pos.min() > self.left and pos.max() < self.right):
            swept_l = pos <= self.left
            swept = swept_l | (pos >= self.right)
            nl = int(np.count_nonzero(swept_l))
            if not self.freeze(nl, int(np.count_nonzero(swept)) - nl, step):
                # neither inside nor swept: a NaN
                raise VerificationError(
                    f"live walker outside the fronts ({self.left!r}, {self.right!r})"
                )
            pos = pos[~swept]
        if not self.left <= self.right + self.slack:
            raise VerificationError(f"fronts crossed: left {self.left!r} > right {self.right!r}")
        return pos

    def refine(self, pos: np.ndarray, step: int) -> np.ndarray:
        """Bring the coarse walkers whose band a front has entered to this step.

        The bridge point is exact in law; from it the walker walks on at the
        levels below.
        """
        while True:
            group = next((g for g in self.coarse if self.left > g.lo or self.right < g.hi), None)
            if group is None:
                return pos
            # float64, as for lo and hi, so the outermost walker is always among the refined
            x0, x1, band = group.x0, group.x1, group.band
            near = (np.subtract(x0, band, dtype=np.float64) < self.left) | (
                np.add(x0, band, dtype=np.float64) > self.right
            )
            a = (step - group.start) / (group.end - group.start)
            mid = _bridge_point(x0[near], x1[near], a, group.span, self.rng)
            pos = self.settle(np.concatenate((pos, mid)), step)
            group.keep(x0[~near], x1[~near])

    def block(self, level: int, start: int, pos: np.ndarray) -> np.ndarray:
        """Walk pos, the walkers after step start, through a level-`level` block."""
        if not level:
            return self.fine_step(pos, start + 1)
        end = min(start + _RADIX**level, self.n_steps)  # the last block ends at n_steps
        span = (end - start) * self.dt
        band = _Z * math.sqrt(span)
        split = band * 1.0625  # a margin for the fronts' travel keeps refinement rare
        far = np.minimum(pos - self.left, self.right - pos) > split
        x0 = pos[far]
        x1 = self.rng.standard_normal(x0.size, dtype=np.float32)
        x1 *= math.sqrt(span)
        x1 += x0
        group = _Coarse(x0, x1, start, end, span, band)
        self.coarse.append(group)
        pos = pos[~far]
        for sub in range(start, end, _RADIX ** (level - 1)):
            if not pos.size:
                break  # the fronts stand still until the coarse walkers land
            pos = self.block(level - 1, sub, pos)
        self.coarse.pop()
        # a coarse endpoint beyond a front (probability < 2**-24) freezes here
        return self.refine(self.settle(np.concatenate((pos, group.x1)), end), end)

    def fine_step(self, pos: np.ndarray, step: int) -> np.ndarray:
        """Move every walker of pos through fine step `step`."""
        new = self.rng.standard_normal(pos.size, dtype=np.float32)
        new *= self.sqrt_dt
        new += pos
        u = self.rng.random(pos.size, dtype=np.float32)
        # Brownian bridge crossing probability exp(-2 (x - f)(y - f) / dt) of each
        # front f, one row each, against the start-of-step fronts; a post-step
        # crossing makes the argument nonnegative, so p >= 1 there and the
        # comparison subsumes the hard-crossing test.
        p = pos - self.fronts
        p *= new - self.fronts
        p *= self.inv_dt
        np.exp(p, out=p)
        cross = u < p[0] + p[1]
        n_cross = int(np.count_nonzero(cross))
        if not n_cross:
            return self.settle(new, step)
        nl = int(np.count_nonzero(u < p[0]))  # u < p_l implies u < p_l + p_r
        self.freeze(nl, n_cross - nl, step)
        return self.refine(self.settle(new[~cross], step), step)


def _midpoint_stats(
    nl: int, nr: int, c: float, d: float, m: float, bins: int
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """The mean, std and np.histogram on (c, d) of the slot midpoints c + m*(i + 0.5)
    for i < nl and d - m*(i + 0.5) for i < nr, without an array of them.

    Within a side the evenly spaced midpoints have variance m**2 (count**2 - 1)
    / 12, and the sides' means differ by gap; no m**2 or squared coordinate is
    formed, so nothing under- or overflows. A bin counts the midpoints below
    its upper edge (at or below d for the last) less those below its lower
    one, each side's by a binary search over i, in which they are monotone.
    """
    edges = np.linspace(c, d, bins + 1)
    t = np.append(edges[:-1], np.nextafter(d, np.inf))
    # row 0 counts the left midpoints below each t, row 1 the right ones at or above it
    ends, sign, count = np.array([[c], [d]]), np.array([[1.0], [-1.0]]), np.array([[nl], [nr]])
    k = np.zeros((2, t.size), dtype=np.int64)
    for b in reversed(range(max(nl, nr).bit_length())):
        trial = k + (1 << b)
        x = ends + sign * (m * (trial - 0.5))  # the midpoint of slot trial - 1
        k = np.where((trial <= count) & ((x < t) != (sign < 0.0)), trial, k)
    counts = np.diff(k[0] + nr - k[1])
    n = nl + nr
    if not n:
        return math.nan, math.nan, edges, counts
    # the sides' means are c + m*nl/2 and d - m*nr/2; their gap is taken from
    # d - c, so the std carries no rounding of the coordinates themselves
    gap = (d - c) - m * n / 2
    a = (nl * (nl * nl - 1) + nr * (nr * nr - 1)) / (12 * n)
    std = math.hypot(m * math.sqrt(a), gap * (math.sqrt(nl * nr) / n))
    return c + m * nl / 2 + nr / n * gap, std, edges, counts


def simulate_component(
    cut: tuple[Sequence[float], Sequence[float], float],
    c: float,
    d: float,
    n: int,
    dt: float,
    n_steps: int,
    seed: list[int],
    hist_bins: int,
) -> ComponentRunReport:
    """Walk n walkers from cut, the input's (breaks, values, mass) on (c, d) as
    :func:`stefan1d.measure._cuts` gives it, for n_steps steps of dt, seeded by seed."""
    breaks, values, k = cut
    rng = np.random.default_rng(seed)
    m = k / n if n else 0.0
    # the walk runs in the component's frame x -> (x - mid) * unit, exact when
    # mid = 0; values stay densities in x, so the masses scale by unit
    mid, unit = 0.5 * (c + d), _unit(c, d)
    lc, ld = (c - mid) * unit, (d - mid) * unit
    local_dt = dt * unit * unit
    # sampled in place: the uniforms become the start positions
    pos = rng.random(n)
    pos *= k * unit
    pos = _quantiles([(x - mid) * unit for x in breaks], values, pos)
    walk = _Walk(lc, ld, n, m * unit, local_dt, n_steps, rng)
    # mass starting on the boundary freezes at once
    pos = walk.settle(pos, 0).astype(np.float32)
    # the coarsest level is the last whose band is narrower than half the
    # component: a coarser one could hold no walker
    top = 0
    while _Z * math.sqrt(_RADIX ** (top + 1) * local_dt) < 0.5 * (ld - lc):
        top += 1
    with np.errstate(over="ignore"):  # exp overflow on deep crossings means p >= 1
        for start in range(0, n_steps, _RADIX**top):
            if not pos.size:
                break
            pos = walk.block(top, start, pos)

    nl, nr = walk.frozen_left, walk.frozen_right
    mean, std, edges, counts = _midpoint_stats(nl, nr, c, d, m, hist_bins)
    return ComponentRunReport(
        interval=(c, d),
        n=n,
        unit_mass=m,
        frozen_left=nl,
        frozen_right=nr,
        unfrozen=int(pos.size),
        p_hat=m * nl,
        q_hat=m * nr,
        left_front=c + m * nl,
        right_front=d - m * nr,
        mean_freeze_time=walk.step_sum / (nl + nr) * dt if nl + nr else math.nan,
        freeze_position_mean=mean,
        freeze_position_std=std,
        hist_edges=tuple(edges.tolist()),
        hist_counts=tuple(int(x) for x in counts),
    )
