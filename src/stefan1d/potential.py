"""Newtonian potentials of step densities and the order verifier.

In one dimension the potential of a finite step measure,
U(y) = -1/2 * integral |y - x| dmu(x), is piecewise quadratic: concave with
curvature equal to minus the local density inside the break grid, and linear
with slopes +mass/2 (left) and -mass/2 (right) outside; :func:`potential`
builds it for the ``potential`` command.

The order certificate does not build potentials. With sigma = nu - mu,
F(y) = sigma(-inf, y], G = integral of F, M = sigma(R) and B the first
moment of sigma about a centre,

    U_nu(y) - U_mu(y) = -G(y) + ((y - centre) * M - B) / 2,

the integrated-distribution form of the convex order (Chacon and Walsh,
1976; Hobson's survey of the Skorokhod embedding problem, 2011). The two
grids merge in O(m log n + n) for m breaks of nu and n of mu, nu's bisected
into mu's by the package's one merge (:func:`stefan1d.measure._merged`). Two
passes over the merged cells accumulate F and G from cell widths and
densities, so no absolute coordinate is squared: the first sums M and B, the
second maximises the difference exactly, at every break and at the vertex of
each cell where sigma > 0. Both run about the component's midpoint (the joint
hull's for a bare :func:`dominates`) in a power of two near its width as the
length unit: the verdict depends neither on position nor on scale, though
reported gaps still underflow below ~1e-154. For equal masses the derivative
of the difference is -F, so an interior maximum sits at a cell's vertex,
where F crosses zero: a stationary point of the difference.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Sequence

from .errors import ValidationError
from .measure import DEFAULT_TOL, OpenSet1D, StepMeasure, _bounds, _check_tol, _cuts, _merged
from .measure import _once, _unit
from .measure import restrict  # noqa: F401  (uncalled: tests/test_trace_contract.py pins it)

#: Hypothesis of the order relation that cannot be checked from step data;
#: recorded on every certificate built by :func:`_certify_parts`.
EXIT_TIME_ASSUMPTION = (
    "exit times of the open set and of its closure are assumed to agree "
    "almost surely for the started distribution (not verifiable from step data)",
)


@dataclass(frozen=True)
class PiecewiseQuadratic:
    """a*y^2 + b*y + c per piece; piece i covers [breakpoints[i-1], breakpoints[i]].

    Piece 0 and the last piece are the unbounded tails. For potentials of
    finite measures the tails are linear (a = 0) with slopes +-mass/2.
    """

    breakpoints: tuple[float, ...]
    coeffs: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.breakpoints) + 1:
            raise ValidationError("need len(coeffs) == len(breakpoints) + 1")

    def __call__(self, y: float) -> float:
        a, b, c = self.coeffs[bisect_right(self.breakpoints, y)]
        return (a * y + b) * y + c

    def __sub__(self, other: "PiecewiseQuadratic") -> "PiecewiseQuadratic":
        mine, theirs = self.coeffs, other.coeffs
        # the piece left of every break, then the one right of each; a shared break as self's
        bp, right_t, right_m = _once(*_merged(other.breakpoints, theirs, self.breakpoints, mine))
        pieces = zip((mine[0], *right_m), (theirs[0], *right_t))
        coeffs = tuple(tuple(map(operator.sub, p, q)) for p, q in pieces)
        return PiecewiseQuadratic(tuple(bp), coeffs)

    def derivative(self) -> "PiecewiseQuadratic":
        """The derivative, 2a*y + b per piece, as pieces (0, 2a, b)."""
        return PiecewiseQuadratic(
            self.breakpoints, tuple((0.0, 2.0 * a, b) for a, b, _ in self.coeffs)
        )

    def max_on(self, lo: float, hi: float) -> tuple[float, float]:
        """Exact first maximum of the function over [lo, hi], and where it sits.

        A concave piece peaks at its interior vertex or an end, any other
        piece at an end; a later candidate wins only when strictly larger.
        """
        if hi < lo:
            raise ValidationError("empty window")
        bp = self.breakpoints
        best, arg = -math.inf, lo
        for p_lo, p_hi, (a, b, c) in zip((-math.inf, *bp), (*bp, math.inf), self.coeffs):
            seg_lo, seg_hi = max(lo, p_lo), min(hi, p_hi)
            if seg_hi < seg_lo:
                continue
            ys = [seg_lo, seg_hi]
            if a < 0.0 and seg_lo < -b / (2.0 * a) < seg_hi:
                ys.append(-b / (2.0 * a))
            for y in ys:
                val = (a * y + b) * y + c
                if val > best:
                    best, arg = val, y
        return best, arg

    def to_json(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "pieces": [list(p) for p in self.coeffs],
        }


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
    try:
        sq = [x ** 2 for x in b]
    except OverflowError:
        raise ValidationError(f"breaks too far from 0 to square: ({b[0]!r}, {b[-1]!r})") from None
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
    coeffs = ((0.0, k / 2.0, -beta / 2.0), *inner, (0.0, -k / 2.0, beta / 2.0))
    # two finite squares may still add past the float range
    if not all(map(math.isfinite, chain.from_iterable(coeffs))):
        raise ValidationError(f"potential coefficients overflow: breaks ({b[0]!r}, {b[-1]!r})")
    return PiecewiseQuadratic(b, coeffs)


# -- order certificates ---------------------------------------------------------


@dataclass(frozen=True)
class OrderCertificate:
    """Outcome of a potential-order check, built only by this module's walk.

    Refused input raises instead of yielding a certificate. ``worst_gap`` is
    the maximum of U_nu - U_mu over the joint support hull, taken exactly per
    cell by the cumulative walk (the difference is linear beyond the hull,
    with slope controlled by the mass gap, and vanishes identically once mass
    and moment gaps are zero); ``worst_point`` is the first place along the
    line where it is attained. ``mass_gap`` is
    |mass(mu) - mass(nu)|; ``moment_gap`` is |B|, the first moment of
    nu - mu taken about the walk's centre (the component's midpoint, or the
    joint hull's for :func:`dominates`), not about 0. ``ordered`` requires
    each gap to clear the tolerance policy (:func:`stefan1d.measure._bounds`):
    tol * k for the mass gap and tol * k * W for the others, with k mu's mass
    and W the interval's length, each plus a few ulps' rounding floor.
    """

    ordered: bool
    mass_gap: float
    moment_gap: float
    worst_point: float
    worst_gap: float
    per_component: tuple["OrderCertificate", ...] | None = None
    assumptions: tuple[str, ...] = ()

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
        return out


def _sigma(nb: Sequence, nv: Sequence, mb: Sequence, mv: Sequence) -> tuple[list, list]:
    """Both grids' breaks, a shared one twice with nu's copy first, and nu - mu right of each.

    Each side comes as its breaks and values, a measure's or a cut's. The cell
    between a shared break's copies, of width zero, and the last break's right
    tail add nothing.
    """
    xs, a, b = _merged(nb, (0.0, *nv, 0.0), mb, (0.0, *mv, 0.0))
    return xs, [*map(operator.sub, a, b)]


def _walk(xs, sigma, centre: float, unit: float) -> tuple[float, float, float]:
    """First maximum of U_nu - U_mu on [xs[0], xs[-1]], where, and the moment B.

    ``sigma[j]`` is the density of nu - mu on (xs[j], xs[j+1]); the module
    docstring gives the difference in terms of F, G, M and B about
    ``centre``, every length but the returned point's taken times ``unit``.
    A first pass sums F and 2G for M and B; a second redoes the same sums and
    offers each cell's vertex, where F crosses M/2 with s > 0, then its right
    break: a later candidate wins only when strictly larger.
    """
    if not xs:
        return 0.0, 0.0, 0.0
    f = twice_g = 0.0
    for lo, hi, s in zip(xs, xs[1:], sigma):
        w = unit * (hi - lo)
        f_hi = f + s * w
        f, twice_g = f_hi, twice_g + w * (f + f_hi)
    mass, half_m = f, 0.5 * f
    moment = (xs[-1] - centre) * unit * mass - 0.5 * twice_g
    f = twice_g = 0.0
    best = at_lo = 0.5 * ((xs[0] - centre) * unit * mass - moment - twice_g)
    point = xs[0]
    for lo, hi, s in zip(xs, xs[1:], sigma):
        w = unit * (hi - lo)
        f_hi = f + s * w
        if f < half_m < f_hi:
            rise = half_m - f
            t = rise / s
            if 0.0 < t < w:
                val = at_lo + 0.5 * rise * t
                if val > best:
                    best, point = val, lo + t / unit
        f, twice_g = f_hi, twice_g + w * (f + f_hi)
        at_lo = 0.5 * ((hi - centre) * unit * mass - moment - twice_g)
        if at_lo > best:
            best, point = at_lo, hi
    return best + 0.0, point, moment  # + 0.0 reads a gap of -0.0 as 0.0


def _certify(
    mu_mass: float, nu_mass: float, xs, sigma, lo: float, hi: float, tol: float
) -> OrderCertificate:
    """The policy's verdict on nu - mu over (lo, hi): the walk about its midpoint, in its unit."""
    unit = _unit(lo, hi)
    gap, point, moment = _walk(xs, sigma, 0.5 * (lo + hi), unit)
    mass_gap = abs(mu_mass - nu_mass)
    mass_bound, bound = _bounds(tol, mu_mass, lo, hi, unit)
    ordered = gap <= bound and mass_gap * unit <= mass_bound and abs(moment) <= bound
    return OrderCertificate(ordered, mass_gap, abs(moment) / unit / unit, point, gap / unit / unit)


def dominates(mu: StepMeasure, nu: StepMeasure, tol: float = DEFAULT_TOL) -> OrderCertificate:
    """Certificate for U_mu >= U_nu on all of R (mu precedes nu in the order).

    The walk runs over the joint hull of both grids, about its midpoint.
    """
    _check_tol(tol)
    xs, sigma = _sigma(nu.breaks, nu.values, mu.breaks, mu.values)
    lo, hi = (xs[0], xs[-1]) if xs else (0.0, 0.0)
    return _certify(mu.mass, nu.mass, xs, sigma, lo, hi, tol)


def order_leq_sh_O(
    mu: StepMeasure,
    nu: StepMeasure,
    open_set: OpenSet1D,
    tol: float = DEFAULT_TOL,
) -> OrderCertificate:
    """Component-wise order check for stopping before exiting the open set.

    Boundary points of the set block mass transport, so the relation holds
    iff every component conserves mass and first moment and the potential
    inequality holds for the restricted pair. Each component is walked about
    its midpoint. Support outside the set (beyond tol) raises SupportError.
    """
    _check_tol(tol)
    mus = _cuts(mu, open_set, tol)
    return _certify_parts(mus, _cuts(nu, open_set, tol), open_set, tol)


def _certify_parts(
    mus: Sequence, nus: Sequence, open_set: OpenSet1D, tol: float
) -> OrderCertificate:
    """:func:`order_leq_sh_O` on cuts aligned with the set's components.

    Each cut is a component's (breaks, values, mass), as :func:`stefan1d.measure._cuts`
    gives it: the order holds iff it holds on every component; the worst gaps win.
    :func:`stefan1d.solver.solve` passes its block pairs' cuts as ``nus``, equal
    to ``_cuts``' cuts of the target it returns.
    """
    per = [
        _certify(m_k, n_k, *_sigma(nb, nv, mb, mv), c, d, tol)
        for (c, d), (mb, mv, m_k), (nb, nv, n_k) in zip(open_set.components, mus, nus)
    ]
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
