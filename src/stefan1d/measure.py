"""Step densities on the real line and finite unions of open intervals.

Two value types are the common currency of the whole package: StepMeasure,
a nonnegative piecewise-constant density with bounded support, and
OpenSet1D, a finite disjoint union of bounded open intervals. Every
integral here (mass, first moment, L1 gaps) is evaluated in closed form
over merged break grids; nothing is approximated by quadrature.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .errors import SupportError, ValidationError

#: Default comparison tolerance, relative to each gap's dimension (:func:`_bounds`).
DEFAULT_TOL = 1e-9

#: Densities below the smallest normal float are flushed to zero at
#: construction: a subnormal density makes cell masses underflow, so cdf and
#: the particle sampler's inverse cdf could no longer invert each other.
_MIN_DENSITY = sys.float_info.min


def _bounds(tol: float, k: float, lo: float, hi: float) -> tuple[float, float]:
    """The tolerance policy: bounds on a mass gap, and on a potential or centred moment gap.

    For mass k on (lo, hi) they are tol * k and tol * k * (hi - lo), each plus a
    floor of 4 ulps of max(|lo|, |hi|), times hi - lo for the second: rounding
    a block endpoint to a float alone moves a mass by an ulp.
    """
    mass = tol * k + 4 * math.ulp(max(abs(lo), abs(hi)))
    return mass, mass * (hi - lo)


@dataclass(frozen=True)
class StepMeasure:
    """Nonnegative piecewise-constant density with bounded support.

    ``values[i]`` is the density on ``(breaks[i], breaks[i+1])``; the density
    is zero outside ``[breaks[0], breaks[-1]]``. Instances are kept canonical:
    strictly increasing breaks, no adjacent cells with equal density, no
    leading or trailing zero cells, and the zero measure is ``breaks == ()``.
    Build instances through :func:`make_step_measure`, :func:`indicator` or
    arithmetic on existing measures; direct construction skips
    canonicalisation.

    Values are immutable after construction and safe to share across
    concurrent tasks.
    """

    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        nb, nv = len(self.breaks), len(self.values)
        if nb == 0:
            if nv != 0:
                raise ValidationError("zero measure must have empty values")
        elif nv != nb - 1:
            raise ValidationError(
                f"expected len(values) == len(breaks) - 1, got {nv} and {nb}"
            )

    # -- basic queries ----------------------------------------------------

    @property
    def ncells(self) -> int:
        return len(self.values)

    def cells(self) -> Iterator[tuple[float, float, float]]:
        """(lo, hi, density) triples, left to right."""
        return zip(self.breaks, self.breaks[1:], self.values)

    @cached_property
    def mass(self) -> float:
        b = self.breaks
        return sum([v * (hi - lo) for v, lo, hi in zip(self.values, b, b[1:])], 0.0)

    @cached_property
    def first_moment(self) -> float:
        b = self.breaks
        return sum(
            [v * (hi * hi - lo * lo) / 2.0 for v, lo, hi in zip(self.values, b, b[1:])], 0.0
        )

    def support(self) -> tuple[float, float]:
        """Hull of the support; (0, 0) for the zero measure."""
        if not self.breaks:
            return (0.0, 0.0)
        return self.breaks[0], self.breaks[-1]

    def max_density(self) -> float:
        return max(self.values, default=0.0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "StepMeasure") -> "StepMeasure":
        return _from_cells(
            (lo, hi, a + b) for lo, hi, a, b in _merged_cells(self, other)
        )

    # -- wire format --------------------------------------------------------

    def to_json(self) -> dict:
        return {"breaks": list(self.breaks), "values": list(self.values)}

    @classmethod
    def from_json(cls, obj: dict) -> "StepMeasure":
        return make_step_measure(obj["breaks"], obj["values"])


@dataclass(frozen=True)
class OpenSet1D:
    """Finite disjoint union of bounded open intervals, sorted left to right.

    Components may touch (d_n == c_{n+1}); the shared boundary point still
    separates them, which matters for the component-wise order relation.
    """

    components: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_end = -math.inf
        for i, (c, d) in enumerate(self.components):
            if not 0.0 < d - c < math.inf:  # only finite c < d give a finite positive width
                raise ValidationError(
                    f"component {i} needs finite c < d, not too wide: ({c!r}, {d!r})"
                )
            if c < prev_end:
                raise ValidationError(
                    f"component {i} overlaps or is out of order at {c!r}"
                )
            prev_end = d

    @classmethod
    def interval(cls, c: float, d: float) -> "OpenSet1D":
        return cls(((float(c), float(d)),))

    @classmethod
    def of(cls, *intervals: tuple[float, float]) -> "OpenSet1D":
        return cls(tuple((float(c), float(d)) for c, d in intervals))

    @classmethod
    def from_json(cls, obj: dict) -> "OpenSet1D":
        return cls.of(*obj["components"])


# -- constructors ------------------------------------------------------------


def _checked(breaks: tuple[float, ...], values: tuple[float, ...]) -> StepMeasure:
    """The door every constructor ends at: the measure, if its span and totals are finite.

    A finite mass bounds every cell mass, mass times span every potential and
    centred moment, and mass times the largest |coordinate| the first moment
    about 0. The mass is summed only when its bound, the top density times
    the span (doubled for the rounding of the sum), does not settle it.
    """
    mu = StepMeasure(breaks, values)
    if not breaks:
        return mu
    # breaks are sorted, so max(-breaks[0], breaks[-1]) is the largest |coordinate|
    span, scale = breaks[-1] - breaks[0], max(breaks[-1] - breaks[0], -breaks[0], breaks[-1])
    if span == math.inf:
        raise ValidationError(f"breaks span too wide: ({breaks[0]!r}, {breaks[-1]!r})")
    if not 2.0 * max(values) * span * scale < math.inf and not mu.mass * scale < math.inf:
        what = "total mass" if mu.mass == math.inf else "mass times coordinates (the moments' scale)"
        raise ValidationError(f"{what} overflows on ({breaks[0]!r}, {breaks[-1]!r})")
    return mu


def _from_cells(cells: Iterable[tuple[float, float, float]]) -> StepMeasure:
    """Canonical StepMeasure from (lo, hi, density) cells.

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
    return _checked(tuple(breaks), tuple(values))


def make_step_measure(breaks: Sequence[float], values: Sequence[float]) -> StepMeasure:
    """Validated constructor; the result is canonical and equal a.e. to the input.

    The cells arrive sorted, so one pass canonicalises them: densities below
    _MIN_DENSITY become 0, equal neighbours merge and zero end cells go.
    """
    b = tuple(map(float, breaks))
    v = tuple(map(float, values))
    if len(v) != max(len(b) - 1, 0):
        raise ValidationError(
            f"expected len(values) == len(breaks) - 1, got {len(v)} and {len(b)}"
        )
    if not all(map(math.isfinite, b)):
        i = [*map(math.isfinite, b)].index(False)
        raise ValidationError(f"breaks[{i}] is not finite: {b[i]!r}")
    if not all(map(operator.lt, b, b[1:])):
        i = [*map(operator.lt, b, b[1:])].index(False)
        raise ValidationError(
            f"breaks must be strictly increasing: breaks[{i}]={b[i]!r} "
            f">= breaks[{i + 1}]={b[i + 1]!r}"
        )
    if not (all(map(math.isfinite, v)) and min(v, default=0.0) >= 0.0):
        i, x = next((i, x) for i, x in enumerate(v) if not 0.0 <= x < math.inf)
        problem = "negative" if math.isfinite(x) else "not finite"
        raise ValidationError(f"values[{i}] is {problem}: {x!r}")
    v = [x if x >= _MIN_DENSITY else 0.0 for x in v]
    starts = [True, *map(operator.ne, v[1:], v)]  # cell i starts a run of equal densities
    values, cuts = [*compress(v, starts)], [*compress(b, starts), *b[-1:]]
    if values and not values[-1]:
        del values[-1], cuts[-1]
    if values and not values[0]:
        del values[0], cuts[0]
    return _checked(tuple(cuts), tuple(values)) if values else StepMeasure((), ())


def indicator(a: float, b: float, density: float = 1.0) -> StepMeasure:
    """density * chi_(a, b)."""
    if not -math.inf < a < b < math.inf:
        raise ValidationError(f"indicator endpoints must be finite with a < b: ({a!r}, {b!r})")
    if not 0.0 <= density < math.inf:
        raise ValidationError(f"density must be finite and nonnegative, got {density!r}")
    return _from_cells([(a, b, density)])


def zero_measure() -> StepMeasure:
    return StepMeasure((), ())


# -- merged-grid operations ---------------------------------------------------


def _merge_walk(a: Sequence[float], b: Sequence[float]) -> Iterator[tuple]:
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


def _merged_cells(
    mu: StepMeasure, nu: StepMeasure
) -> Iterator[tuple[float, float, float, float]]:
    """Yield (lo, hi, density_mu, density_nu) over the merged break grid."""
    # a count of breaks <= lo indexes the densities padded by both zero tails
    mv, nv = (0.0, *mu.values, 0.0), (0.0, *nu.values, 0.0)
    for lo, hi, i, j in _merge_walk(mu.breaks, nu.breaks):
        if -math.inf < lo and hi < math.inf:
            yield lo, hi, mv[i], nv[j]


def positive_part_l1(mu: StepMeasure, nu: StepMeasure) -> float:
    """Integral of max(mu - nu, 0), exact over the merged break grid."""
    return sum(
        (a - b) * (hi - lo) for lo, hi, a, b in _merged_cells(mu, nu) if a > b
    )


def l1_distance(mu: StepMeasure, nu: StepMeasure) -> float:
    """Integral of |mu - nu|."""
    return sum(abs(a - b) * (hi - lo) for lo, hi, a, b in _merged_cells(mu, nu))


def pointwise_leq(mu: StepMeasure, nu: StepMeasure, tol: float = DEFAULT_TOL) -> bool:
    """True iff mu <= nu + tol a.e."""
    if tol < 0.0:
        raise ValidationError("tolerance must be nonnegative")
    return all(a <= b + tol for _, _, a, b in _merged_cells(mu, nu))


def measures_allclose(mu: StepMeasure, nu: StepMeasure, tol: float = DEFAULT_TOL) -> bool:
    """True iff the densities agree within tol a.e."""
    return all(abs(a - b) <= tol for _, _, a, b in _merged_cells(mu, nu))


def restrict(
    mu: StepMeasure, open_set: OpenSet1D, tol: float = DEFAULT_TOL
) -> list[StepMeasure]:
    """Component-wise restrictions of mu to the open set.

    The returned list is aligned with ``open_set.components`` and the sum of
    the parts equals mu restricted to the set. Mass outside the set beyond
    the policy's mass bound (:func:`_bounds`, relative to the total mass)
    raises SupportError carrying the leaked amount.

    Costs O(cells + components · log cells): each component bisects its
    endpoints into mu's breaks and slices the cells between them.
    """
    parts = _slices(mu, open_set)
    leaked = mu.mass - sum(p.mass for p in parts)
    if leaked > _bounds(tol, mu.mass, *mu.support())[0]:
        raise SupportError(
            f"measure carries mass {leaked:.9g} outside the open set", leaked
        )
    return parts


def _slices(mu: StepMeasure, open_set: OpenSet1D) -> list[StepMeasure]:
    """:func:`restrict`'s parts, without its check for mass outside the set."""
    b, v = mu.breaks, mu.values
    parts: list[StepMeasure] = []
    for c, d in open_set.components:
        # mu's cells lo..hi-1 meet (c, d): drop zero end cells, clip end breaks
        lo = max(bisect_right(b, c) - 1, 0)
        hi = min(bisect_left(b, d), len(v))
        while lo < hi and not v[lo]:
            lo += 1
        while lo < hi and not v[hi - 1]:
            hi -= 1
        if lo == hi:
            parts.append(zero_measure())
            continue
        if hi - lo == len(v) and b[0] >= c and b[-1] <= d:
            # all of mu, ends unclipped: mu itself, with its cached totals
            parts.append(mu)
            continue
        breaks = (float(max(b[lo], c)), *b[lo + 1 : hi], float(min(b[hi], d)))
        parts.append(_checked(breaks, v[lo:hi]))
    return parts
