"""Step densities on the real line and finite unions of open intervals.

Two value types are the common currency of the whole package: StepMeasure,
a nonnegative piecewise-constant density with bounded support, and
OpenSet1D, a finite disjoint union of bounded open intervals. Every
integral here (mass, L1 gaps) is evaluated in closed form
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


def _bounds(tol: float, k: float, lo: float, hi: float, unit: float = 1.0) -> tuple[float, float]:
    """The tolerance policy: bounds on a mass gap, and on a potential or centred moment gap.

    For mass k on (lo, hi) they are tol * k and tol * k * (hi - lo), each plus a
    floor of 4 ulps of max(|lo|, |hi|), times hi - lo for the second: rounding
    a block endpoint to a float alone moves a mass by an ulp; a zero mass has no
    relative term, even at tol = inf. Lengths are in ``unit`` (:func:`_unit`);
    the ulps are the unscaled ends', then scaled: a subnormal's does not scale.
    """
    mass = (tol * (k * unit) if k else 0.0) + 4 * math.ulp(max(abs(lo), abs(hi))) * unit
    return mass, mass * ((hi - lo) * unit)


def _unit(lo: float, hi: float) -> float:
    """The power of two scaling hi - lo into [0.5, 1): exact, and safe from under- and overflow."""
    return math.ldexp(1.0, min(-math.frexp(hi - lo)[1], 1023))


@dataclass(frozen=True)
class StepMeasure:
    """Nonnegative piecewise-constant density with bounded support.

    ``values[i]`` is the density on ``(breaks[i], breaks[i+1])``; the density
    is zero outside ``[breaks[0], breaks[-1]]``. Instances are kept canonical:
    strictly increasing breaks, no adjacent cells with equal density, no
    leading or trailing zero cells, and the zero measure is ``breaks == ()``.
    Build instances through :func:`make_step_measure`, :func:`indicator` or
    arithmetic on existing measures: each ends in the one canonicaliser,
    :func:`_canonical`. Direct construction skips it.

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
        return _mass(self.breaks, self.values)

    def support(self) -> tuple[float, float]:
        """Hull of the support; (0, 0) for the zero measure."""
        if not self.breaks:
            return (0.0, 0.0)
        return self.breaks[0], self.breaks[-1]

    def max_density(self) -> float:
        return max(self.values, default=0.0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "StepMeasure") -> "StepMeasure":
        nb, mb = other.breaks, self.breaks
        xs, n, m = _once(*_merged(nb, (0.0, *other.values, 0.0), mb, (0.0, *self.values, 0.0)))
        return _canonical(xs, map(operator.add, m, n))

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
    An end of -0.0 is stored as 0.0.
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
        object.__setattr__(self, "components", tuple((c + 0.0, d + 0.0) for c, d in self.components))

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


def _mass(breaks: Sequence[float], values: Sequence[float]) -> float:
    """Sum of the cells' masses, left to right: a measure's or a cut's."""
    return sum(map(operator.mul, values, map(operator.sub, breaks[1:], breaks)), 0.0)


def _checked(breaks: tuple[float, ...], values: tuple[float, ...]) -> StepMeasure:
    """The door every constructor ends at: the measure, if its span and totals are finite.

    A finite mass bounds every cell mass, mass times span every potential and
    centred moment, and mass times the largest |coordinate| the beta that
    solve reports. The mass is summed only when its bound, the top density times
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


def make_step_measure(breaks: Sequence[float], values: Sequence[float]) -> StepMeasure:
    """Validated constructor; the result is canonical (:func:`_canonical`) and a.e. the input."""
    b = tuple(map(float, breaks))
    v = tuple(map(float, values))
    if len(v) != max(len(b) - 1, 0):
        raise ValidationError(f"expected len(values) == len(breaks) - 1, got {len(v)} and {len(b)}")
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
    return _canonical(b, v)


def _canonical(breaks: Sequence[float], values: Iterable[float]) -> StepMeasure:
    """The one canonicaliser: the measure with density ``values[i]`` on (breaks[i], breaks[i+1]).

    A value past the last cell is ignored. A cell goes when its right break is not above every
    break before it: breaks may repeat, or step back where a particle front overshoots. Densities
    below _MIN_DENSITY become 0, equal neighbours merge, zero end cells go. A repeated break
    keeps its first copy; a zero break is 0.0.
    """
    v, cuts, top = [], [], breaks[0] if breaks else 0.0
    for hi, x in zip(breaks[1:], values):
        if hi > top:  # the cell counts: its right break is above every break before it
            x = x if x >= _MIN_DENSITY else 0.0
            if x != (v[-1] if v else 0.0):  # x starts a run of equal densities
                v.append(x)
                cuts.append(top)
            top = hi
    cuts.append(top)
    if v and not v[-1]:  # a trailing zero run ends the measure at its start
        del v[-1], cuts[-1]
    if 0.0 in cuts:
        cuts[cuts.index(0.0)] = 0.0
    return _checked(tuple(cuts), tuple(v)) if v else StepMeasure((), ())


def indicator(a: float, b: float, density: float = 1.0) -> StepMeasure:
    """density * chi_(a, b)."""
    if not -math.inf < a < b < math.inf:
        raise ValidationError(f"indicator endpoints must be finite with a < b: ({a!r}, {b!r})")
    if not 0.0 <= density < math.inf:
        raise ValidationError(f"density must be finite and nonnegative, got {density!r}")
    return _canonical((float(a), float(b)), (float(density),))


# -- merged-grid operations ---------------------------------------------------


def _merged(nb: Sequence, nv: Sequence, mb: Sequence, mv: Sequence) -> tuple[list, list, list]:
    """Two grids' breaks in order, and each side's value right of every one.

    ``nv`` and ``mv`` are the values padded by both tails, so a count of a
    grid's breaks so far indexes them. A break both grids hold comes twice,
    nu's copy first. Each of nu's m breaks is bisected into mu's n, whose run
    of breaks below it is copied as one slice: O(m log n + n), so a solve's
    few-break target, its nu, costs list copies of the input.
    """
    xs, a, b, q = [], [], [], 0
    for i, x in enumerate(nb):  # mu's breaks below x come before it
        p = bisect_left(mb, x, q)
        xs += mb[q:p]
        a += [nv[i]] * (p - q)
        b += mv[q + 1 : p + 1]
        xs.append(x)
        a.append(nv[i + 1])
        b.append(mv[p])
        q = p
    xs += mb[q:]
    a += [nv[len(nb)]] * (len(mb) - q)
    b += mv[q + 1 : len(mb) + 1]  # an empty grid pads one tail value twice
    return xs, a, b


def _once(xs: list, a: list, b: list) -> tuple[list, list, list]:
    """:func:`_merged` with each shared break once, as mu's copy: the zero-width piece goes."""
    keep = [*map(operator.ne, xs, xs[1:]), True]
    return [*compress(xs, keep)], [*compress(a, keep)], [*compress(b, keep)]


def _merged_cells(mu: StepMeasure, nu: StepMeasure) -> Iterator[tuple[float, float, float, float]]:
    """(lo, hi, density_mu, density_nu) over the merged break grid, left to right."""
    xs, n, m = _once(*_merged(nu.breaks, (0.0, *nu.values, 0.0), mu.breaks, (0.0, *mu.values, 0.0)))
    return zip(xs, xs[1:], m, n)


def positive_part_l1(mu: StepMeasure, nu: StepMeasure) -> float:
    """Integral of max(mu - nu, 0), exact over the merged break grid."""
    return sum(((a - b) * (hi - lo) for lo, hi, a, b in _merged_cells(mu, nu) if a > b), 0.0)


def l1_distance(mu: StepMeasure, nu: StepMeasure) -> float:
    """Integral of |mu - nu|."""
    return sum((abs(a - b) * (hi - lo) for lo, hi, a, b in _merged_cells(mu, nu)), 0.0)


def _check_tol(tol: float) -> None:
    if not tol >= 0.0:  # NaN too
        raise ValidationError(f"tolerance must be nonnegative, got {tol!r}")


def pointwise_leq(mu: StepMeasure, nu: StepMeasure, tol: float = DEFAULT_TOL) -> bool:
    """True iff mu <= nu + tol a.e."""
    _check_tol(tol)
    return all(a <= b + tol for _, _, a, b in _merged_cells(mu, nu))


def measures_allclose(mu: StepMeasure, nu: StepMeasure, tol: float = DEFAULT_TOL) -> bool:
    """True iff the densities agree within tol a.e."""
    _check_tol(tol)
    return all(abs(a - b) <= tol for _, _, a, b in _merged_cells(mu, nu))


def restrict(
    mu: StepMeasure, open_set: OpenSet1D, tol: float = DEFAULT_TOL
) -> list[StepMeasure]:
    """Component-wise restrictions of mu to the open set: :func:`_cuts` as measures.

    No in-package caller: the public wrapper of :func:`_cuts`. The list is
    aligned with ``open_set.components``; the parts sum to mu restricted to
    the set, and a part is mu itself where one component holds all of it.
    Mass outside the set beyond the policy's mass bound (:func:`_bounds`,
    relative to the total mass) raises SupportError carrying the leaked amount.
    """
    _check_tol(tol)
    return [
        StepMeasure((), ()) if not b else mu if b is mu.breaks else _checked(b, v)
        for b, v, _ in _cuts(mu, open_set, tol)
    ]


def _cuts(
    mu: StepMeasure, open_set: OpenSet1D, tol: float | None = None
) -> list[tuple[Sequence[float], Sequence[float], float]]:
    """(breaks, values, mass) of mu on each component: its restriction, as no measure.

    mu's cells meeting (c, d), zero end cells dropped and end breaks clipped at
    c and d; mu's own when it lies in (c, d) unclipped, ``((), (), 0.0)`` when
    none does; masses summed as :attr:`StepMeasure.mass` sums. Given ``tol``,
    mass outside the set beyond the policy's bound raises SupportError. Each
    component bisects its ends into mu's breaks: O(cells + components · log cells).
    The package's one restriction: solve, order_leq_sh_O, check_admissible and
    particles.run read it; :func:`restrict` wraps it.
    """
    b, v = mu.breaks, mu.values
    cuts = []
    for c, d in open_set.components:
        # mu's cells lo..hi-1 meet (c, d): drop zero end cells, clip end breaks
        lo = max(bisect_right(b, c) - 1, 0)
        hi = min(bisect_left(b, d), len(v))
        while lo < hi and not v[lo]:
            lo += 1
        while lo < hi and not v[hi - 1]:
            hi -= 1
        if lo == hi:
            cuts.append(((), (), 0.0))
        elif hi - lo == len(v) and b[0] >= c and b[-1] <= d:
            cuts.append((b, v, mu.mass))
        else:
            breaks, values = (float(max(b[lo], c)), *b[lo + 1 : hi], float(min(b[hi], d))), v[lo:hi]
            cuts.append((breaks, values, _mass(breaks, values)))
    if tol is not None:
        leaked = mu.mass - sum(m for _, _, m in cuts)
        if leaked > _bounds(tol, mu.mass, *mu.support())[0]:
            raise SupportError(f"measure carries mass {leaked:.9g} outside the open set", leaked)
    return cuts
