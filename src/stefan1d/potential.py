"""Newtonian potentials of step densities and the order verifier.

In one dimension the potential of a finite step measure,
U(y) = -1/2 * integral |y - x| dmu(x), is piecewise quadratic: concave with
curvature equal to minus the local density inside the break grid, and linear
with slopes +mass/2 (left) and -mass/2 (right) outside. The subharmonic
order check certifies U_nu <= U_mu by exact per-piece maximisation of the
difference, never by sampling: on concave pieces the maximum sits at the
interior vertex or an endpoint, everywhere else at endpoints.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import ValidationError
from .measure import DEFAULT_TOL, OpenSet1D, StepMeasure, _merge_walk, restrict

#: Hypothesis of the order relation that cannot be checked from step data;
#: recorded on every certificate built by :func:`_componentwise`.
EXIT_TIME_ASSUMPTION = (
    "exit times of the open set and of its closure are assumed to agree "
    "almost surely for the started distribution (not verifiable from step data)",
)


@dataclass(frozen=True)
class _Piecewise:
    """Polynomial per piece; piece i covers [breakpoints[i-1], breakpoints[i]].

    ``coeffs[i]`` lists piece i's coefficients from the highest power down.
    Piece 0 and the last piece are the unbounded tails.
    """

    breakpoints: tuple[float, ...]
    coeffs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.breakpoints) + 1:
            raise ValidationError("need len(coeffs) == len(breakpoints) + 1")

    def __call__(self, y: float) -> float:
        coeffs = self.coeffs[bisect_right(self.breakpoints, y)]
        val = coeffs[0]
        for coef in coeffs[1:]:
            val = val * y + coef
        return val

    def __sub__(self, other: "_Piecewise") -> "_Piecewise":
        mine, theirs = self.coeffs, other.coeffs
        bp: list[float] = []
        coeffs = []
        for _, hi, i, j in _merge_walk(self.breakpoints, other.breakpoints):
            bp.append(hi)
            coeffs.append(tuple(map(operator.sub, mine[i], theirs[j])))
        bp.pop()  # the right tail's infinite end
        return type(self)(tuple(bp), tuple(coeffs))


class PiecewiseQuadratic(_Piecewise):
    """a*y^2 + b*y + c per piece.

    For potentials of finite measures the tails are linear (a = 0) with
    slopes +-mass/2.
    """

    def derivative(self) -> "PiecewiseLinear":
        return PiecewiseLinear(
            self.breakpoints, tuple((2.0 * a, b) for a, b, _ in self.coeffs)
        )

    def max_on(self, lo: float, hi: float) -> tuple[float, float]:
        """Exact maximum of the function over [lo, hi] and its location."""
        if hi < lo:
            raise ValidationError("empty window")
        bp = self.breakpoints
        return _max_on_pieces(zip((-math.inf, *bp), (*bp, math.inf), *zip(*self.coeffs)), lo, hi)

    def to_json(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "pieces": [list(p) for p in self.coeffs],
        }


def _max_on_pieces(
    pieces: Iterable[tuple[float, ...]], lo: float, hi: float
) -> tuple[float, float]:
    """First maximum of (a*y + b)*y + c over [lo, hi], and where it sits.

    Each piece is (start, end, a, b, c), in order. A concave piece peaks at
    its interior vertex or an endpoint, any other piece at an endpoint; a
    later candidate wins only with a strictly larger value.
    """
    best, arg = -math.inf, lo
    for p_lo, p_hi, a, b, c in pieces:
        seg_lo = max(lo, p_lo)
        seg_hi = min(hi, p_hi)
        if seg_hi < seg_lo:
            continue
        val = (a * seg_lo + b) * seg_lo + c
        if val > best:
            best, arg = val, seg_lo
        val = (a * seg_hi + b) * seg_hi + c
        if val > best:
            best, arg = val, seg_hi
        if a < 0.0:
            vertex = -b / (2.0 * a)
            if seg_lo < vertex < seg_hi:
                val = (a * vertex + b) * vertex + c
                if val > best:
                    best, arg = val, vertex
    return best, arg


class PiecewiseLinear(_Piecewise):
    """m*y + b per piece."""

    def roots(self, lo: float, hi: float) -> tuple[list[float], list[tuple[float, float]]]:
        """All zeros on [lo, hi]: isolated roots plus flat zero segments.

        Exact per-piece enumeration; isolated roots closer than 1e-12 are
        merged. A flat segment means the function vanishes identically there.
        """
        bp = self.breakpoints
        points: list[float] = []
        flats: list[tuple[float, float]] = []
        for i, (m, b) in enumerate(self.coeffs):
            seg_lo = lo if i == 0 else max(lo, bp[i - 1])
            seg_hi = hi if i == len(bp) else min(hi, bp[i])
            if seg_hi < seg_lo:
                continue
            if m == 0.0:
                if b == 0.0 and seg_hi > seg_lo:
                    flats.append((seg_lo, seg_hi))
                elif b == 0.0:
                    points.append(seg_lo)
                continue
            y0 = -b / m
            eps = 1e-12 * max(1.0, abs(seg_lo), abs(seg_hi))
            if seg_lo - eps <= y0 <= seg_hi + eps:
                points.append(min(max(y0, seg_lo), seg_hi))
        points.sort()
        merged: list[float] = []
        for p in points:
            if merged and abs(p - merged[-1]) <= 1e-12 * max(1.0, abs(p)):
                continue
            merged.append(p)
        return merged, flats


# -- potentials ----------------------------------------------------------------


def potential(mu: StepMeasure) -> PiecewiseQuadratic:
    """Exact potential U(y) = -1/2 * integral |y - x| dmu(x) in d = 1.

    Breakpoints are the measure's breaks. On cell j the curvature is
    -values[j] (so U'' = -density); the left tail has slope +mass/2 and the
    right tail -mass/2.
    """
    if not mu.ncells:
        return PiecewiseQuadratic((), ((0.0, 0.0, 0.0),))
    b, v = mu.breaks, mu.values
    sq = [x ** 2 for x in b]
    cell_mass = [x * (hi - lo) for x, lo, hi in zip(v, b, b[1:])]
    cell_mom = [x * (s_hi - s_lo) / 2.0 for x, s_lo, s_hi in zip(v, sq, sq[1:])]
    k = sum(cell_mass)
    beta = sum(cell_mom)
    pre_m = list(accumulate(cell_mass, initial=0.0))
    pre_s = list(accumulate(cell_mom, initial=0.0))
    # mass/moment strictly right of cell i is total minus prefix through i
    inner = [
        (
            -x / 2.0,
            x * (lo + hi) / 2.0 + ((k - m_hi) - m_lo) / 2.0,
            -x * (s_lo + s_hi) / 4.0 + (p_lo - (beta - p_hi)) / 2.0,
        )
        for x, lo, hi, s_lo, s_hi, m_lo, m_hi, p_lo, p_hi in zip(
            v, b, b[1:], sq, sq[1:], pre_m, pre_m[1:], pre_s, pre_s[1:]
        )
    ]
    return PiecewiseQuadratic(b, ((0.0, k / 2.0, -beta / 2.0), *inner, (0.0, -k / 2.0, beta / 2.0)))


def potential_derivative(mu: StepMeasure) -> PiecewiseLinear:
    """U'(y) = (mass on (y, inf) - mass on (-inf, y)) / 2, piecewise linear.

    Built directly from mass prefix sums rather than by differentiating
    :func:`potential`; the two routes are compared in tests.
    """
    n = mu.ncells
    if n == 0:
        return PiecewiseLinear((), ((0.0, 0.0),))
    b = mu.breaks
    v = mu.values
    cell_mass = [v[i] * (b[i + 1] - b[i]) for i in range(n)]
    k = sum(cell_mass)
    coeffs: list[tuple[float, float]] = [(0.0, k / 2.0)]
    pre = 0.0
    for i in range(n):
        suf = k - pre - cell_mass[i]
        # inside cell i: ((suf + v*(b[i+1]-y)) - (pre + v*(y-b[i]))) / 2
        coeffs.append((-v[i], (suf - pre) / 2.0 + v[i] * (b[i] + b[i + 1]) / 2.0))
        pre += cell_mass[i]
    coeffs.append((0.0, -k / 2.0))
    return PiecewiseLinear(b, tuple(coeffs))


# -- order certificates ---------------------------------------------------------


@dataclass(frozen=True)
class OrderCertificate:
    """Outcome of a potential-order check.

    ``worst_gap`` is the exact maximum of U_nu - U_mu over the joint support
    hull (the difference is linear beyond it, with slope controlled by the
    mass gap, and vanishes identically once mass and moment gaps are zero).
    ``ordered`` requires the gap and both conservation gaps to clear the
    tolerance, mass and moment gaps relative to max(1, mass).
    """

    ordered: bool
    mass_gap: float
    moment_gap: float
    worst_point: float
    worst_gap: float
    per_component: tuple["OrderCertificate", ...] | None = None
    assumptions: tuple[str, ...] = ()
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "ordered": self.ordered,
            "mass_gap": self.mass_gap,
            "moment_gap": self.moment_gap,
            "worst_point": self.worst_point,
            "worst_gap": self.worst_gap,
        }
        if self.per_component is not None:
            out["per_component"] = [c.to_json() for c in self.per_component]
        if self.assumptions:
            out["assumptions"] = list(self.assumptions)
        if self.note:
            out["note"] = self.note
        return out


def dominates(mu: StepMeasure, nu: StepMeasure, tol: float = DEFAULT_TOL) -> OrderCertificate:
    """Certificate for U_mu >= U_nu on all of R (mu precedes nu in the order)."""
    # the worst gap of U_nu - U_mu over the hull of both grids, piece by piece
    # along one merge walk; the walk, min and max each take a break both grids
    # hold from nu, so its sign of zero is nu's wherever it bounds a window
    u_nu, u_mu = potential(nu), potential(mu)
    bn, bm = u_nu.breakpoints, u_mu.breakpoints
    if bn or bm:
        los, his, i, j = zip(*_merge_walk(bn, bm))
        at_i, at_j = operator.itemgetter(*i), operator.itemgetter(*j)
        diff = [
            map(operator.sub, at_i(mine), at_j(theirs))
            for mine, theirs in zip(zip(*u_nu.coeffs), zip(*u_mu.coeffs))
        ]
        hull = min(bn[:1] + bm[:1]), max(bn[-1:] + bm[-1:])
        gap, point = _max_on_pieces(zip(los, his, *diff), *hull)
    else:
        gap, point = 0.0, 0.0
    mass_gap = abs(mu.mass - nu.mass)
    moment_gap = abs(mu.first_moment - nu.first_moment)
    scale = max(1.0, mu.mass)
    ordered = gap <= tol and mass_gap <= tol * scale and moment_gap <= tol * scale
    return OrderCertificate(ordered, mass_gap, moment_gap, point, gap)


def order_leq_sh_O(
    mu: StepMeasure,
    nu: StepMeasure,
    open_set: OpenSet1D,
    tol: float = DEFAULT_TOL,
) -> OrderCertificate:
    """Component-wise order check for stopping before exiting the open set.

    Boundary points of the set block mass transport, so the relation holds
    iff every component conserves mass and first moment and the potential
    inequality holds for the restricted pair. Support outside the set (beyond
    tol) raises SupportError.
    """
    mus = restrict(mu, open_set, tol)
    nus = restrict(nu, open_set, tol)
    return _componentwise([dominates(m_n, n_n, tol) for m_n, n_n in zip(mus, nus)])


def _componentwise(per: Sequence[OrderCertificate]) -> OrderCertificate:
    """Order on an open set: holds iff on every component; worst gaps win."""
    worst_gap, worst_point = 0.0, 0.0
    mass_gap = moment_gap = 0.0
    for c in per:
        if c.worst_gap > worst_gap:
            worst_gap, worst_point = c.worst_gap, c.worst_point
        mass_gap = max(mass_gap, c.mass_gap)
        moment_gap = max(moment_gap, c.moment_gap)
    return OrderCertificate(
        all(c.ordered for c in per),
        mass_gap,
        moment_gap,
        worst_point,
        worst_gap,
        per_component=tuple(per),
        assumptions=EXIT_TIME_ASSUMPTION,
    )
