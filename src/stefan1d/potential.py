"""Newtonian potentials of step densities and the order verifier.

In one dimension the potential of a finite step measure,
U(y) = -1/2 * integral |y - x| dmu(x), is piecewise quadratic: concave with
curvature equal to minus the local density inside the break grid, and linear
with slopes +mass/2 (left) and -mass/2 (right) outside; :func:`potential`
builds it for the ``potential`` command and as the second route of the
stationary-point check.

The order certificate does not build potentials. With sigma = nu - mu,
F(y) = sigma(-inf, y], G = integral of F, M = sigma(R) and B the first
moment of sigma about a centre,

    U_nu(y) - U_mu(y) = -G(y) + ((y - centre) * M - B) / 2,

the integrated-distribution form of the convex order (Chacon and Walsh,
1976; Hobson's survey of the Skorokhod embedding problem, 2011). One walk
over the merged cells accumulates F and G from cell widths and densities,
so no absolute coordinate is squared, and maximises the difference exactly:
at every break, and at the vertex of each cell where sigma > 0. The centre
is the component's midpoint, or the joint hull's for a bare
:func:`dominates`, which keeps the error independent of where the measures
sit on the line. For equal masses the derivative of the difference is -F,
so the same cumulative sum locates its stationary points as the zeros of F.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, count, repeat
from typing import Sequence

from .errors import ValidationError
from .measure import DEFAULT_TOL, OpenSet1D, StepMeasure, _bounds, _merge_walk, restrict

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
        bp: list[float] = []
        coeffs = []
        for _, hi, i, j in _merge_walk(self.breakpoints, other.breakpoints):
            bp.append(hi)
            coeffs.append(tuple(map(operator.sub, mine[i], theirs[j])))
        bp.pop()  # the right tail's infinite end
        return PiecewiseQuadratic(tuple(bp), tuple(coeffs))

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


# -- order certificates ---------------------------------------------------------


@dataclass(frozen=True)
class OrderCertificate:
    """Outcome of a potential-order check.

    ``worst_gap`` is the maximum of U_nu - U_mu over the joint support hull,
    taken exactly per cell by the cumulative walk (the difference is linear
    beyond the hull, with slope controlled by the mass gap, and vanishes
    identically once mass and moment gaps are zero); ``worst_point`` is the
    first place along the line where it is attained. ``mass_gap`` is
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


def _merged(nu: StepMeasure, mu: StepMeasure) -> tuple[list[float], list[float]]:
    """Both grids' breaks in order, and the density of nu - mu on each cell between them.

    The stable sort of the two sorted grids is a linear merge. A break both
    grids hold comes twice, nu's copy first, so the walk reads nu's sign of
    zero there; the cell between the copies has width zero and adds nothing.
    """
    nb, mb = nu.breaks, mu.breaks
    xs = sorted((*nb, *mb))
    # nu's break i sits at i plus the count of mu's breaks below it
    from_nu = [0] * len(xs)
    for at in map(operator.add, count(), map(bisect_left, repeat(mb), nb)):
        from_nu[at] = 1
    # a grid's breaks up to a point index its densities padded by both zero tails
    nu_v = map((0.0, *nu.values, 0.0).__getitem__, accumulate(from_nu))
    mu_v = map((0.0, *mu.values, 0.0).__getitem__, accumulate(map(operator.sub, repeat(1), from_nu)))
    return xs, [*map(operator.sub, nu_v, mu_v)][:-1]


def _cumulative(xs: Sequence[float], sigma: Sequence[float]) -> tuple[list[float], list[float]]:
    """Cell widths, and F = sigma(-inf, xs[i]] at every break from a zero start."""
    widths = [*map(operator.sub, xs[1:], xs)]
    return widths, [*accumulate(map(operator.mul, sigma, widths), initial=0.0)]


def _walk(xs: Sequence[float], sigma: Sequence[float], centre: float) -> tuple[float, float, float]:
    """First maximum of U_nu - U_mu on [xs[0], xs[-1]], where, and the moment B.

    ``sigma[j]`` is the density of nu - mu on (xs[j], xs[j+1]); the module
    docstring gives the difference in terms of F, G, M and B about
    ``centre``. On a cell of density s > 0 it is concave with its vertex
    where F crosses M/2; every other cell peaks at an end. Candidates are
    compared in order along the line, a later one winning only when strictly
    larger.
    """
    if not xs:
        return 0.0, 0.0, 0.0
    widths, cum = _cumulative(xs, sigma)
    twice_g = [*accumulate(map(operator.mul, widths, map(operator.add, cum, cum[1:])), initial=0.0)]
    mass = cum[-1]
    moment = (xs[-1] - centre) * mass - 0.5 * twice_g[-1]
    diff = [0.5 * ((x - centre) * mass - moment - g) for x, g in zip(xs, twice_g)]
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
                best, at, point = val, j + 1, xs[j] + t
    return best + 0.0, point, moment  # + 0.0 reads a gap of -0.0 as 0.0


def _zeros_of_f(
    xs: Sequence[float], sigma: Sequence[float]
) -> tuple[list[float], list[tuple[float, float]]]:
    """Zeros of F on [xs[0], xs[-1]]: isolated points, and cells where F vanishes.

    F is linear on each cell of the walk's grid, so it vanishes at a break
    where the cumulative sum is zero, or at one point inside a cell where it
    changes sign. When nu and mu have equal mass, U_nu' - U_mu' = -F, so these
    are the stationary points of the potential difference.
    """
    widths, cum = _cumulative(xs, sigma)
    points = [x for x, f in zip(xs, cum) if f == 0.0]
    flats = []
    for j, (lo, hi) in enumerate(zip(cum, cum[1:])):
        if lo == hi == 0.0 and widths[j] > 0.0:
            flats.append((xs[j], xs[j + 1]))
        elif lo < 0.0 < hi or hi < 0.0 < lo:
            points.append(min(xs[j] - lo / sigma[j], xs[j + 1]))
    # a break both grids hold comes twice
    return sorted(set(points)), flats


def _certify(
    mu_mass: float, nu_mass: float, xs, sigma, lo: float, hi: float, tol: float
) -> OrderCertificate:
    """The walk's certificate for nu - mu on (lo, hi), about its midpoint, under the policy."""
    gap, point, moment = _walk(xs, sigma, 0.5 * (lo + hi))
    mass_gap = abs(mu_mass - nu_mass)
    moment_gap = abs(moment)
    mass_bound, bound = _bounds(tol, mu_mass, lo, hi)
    ordered = gap <= bound and mass_gap <= mass_bound and moment_gap <= bound
    return OrderCertificate(ordered, mass_gap, moment_gap, point, gap)


def dominates(mu: StepMeasure, nu: StepMeasure, tol: float = DEFAULT_TOL) -> OrderCertificate:
    """Certificate for U_mu >= U_nu on all of R (mu precedes nu in the order).

    The walk runs over the joint hull of both grids, about its midpoint.
    """
    xs, sigma = _merged(nu, mu)
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
    mus = restrict(mu, open_set, tol)
    return _certify_parts(mus, restrict(nu, open_set, tol), open_set, tol)


def _certify_parts(
    mus: Sequence[StepMeasure],
    nus: Sequence[StepMeasure],
    open_set: OpenSet1D,
    tol: float,
) -> OrderCertificate:
    """:func:`order_leq_sh_O` on restrictions aligned with the set's components.

    The order holds iff it holds on every component; the worst gaps win.
    """
    per = [
        _certify(m_n.mass, n_n.mass, *_merged(n_n, m_n), c, d, tol)
        for (c, d), m_n, n_n in zip(open_set.components, mus, nus)
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
