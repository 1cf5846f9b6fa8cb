"""Exact referee for the order certificate, in rational arithmetic.

Every float is a dyadic rational, so ``Fraction(x)`` converts it exactly and
every sum, product and quotient below is exact. The referee takes the same
difference as ``stefan1d.potential._walk``: with sigma = nu - mu, F(y) =
sigma(-inf, y], G = integral of F, M = sigma(R) and B = integral x dsigma,

    U_nu(y) - U_mu(y) = -G(y) + (y * M - B) / 2,

maximised over the joint hull of both grids at every break and at the vertex
of every cell where sigma > 0. Like ``_walk``'s two passes,
:func:`worst_gap` takes M and B first and then walks the cells, each offering
its vertex and then its right break. It also gives the exact hole mass and
barycentre of an input, and so the exact gap of its two-block target. It is
slow (hundreds of milliseconds at a few thousand cells) and lives in the
tests only.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from stefan1d import StepMeasure
from stefan1d.measure import _bounds


def _density(mu: StepMeasure, breaks: list[Fraction], y: Fraction) -> Fraction:
    i = bisect_right(breaks, y)
    if i == 0 or i == len(breaks):
        return Fraction(0)
    return Fraction(mu.values[i - 1])


def sigma_cells(mu: StepMeasure, nu: StepMeasure) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(lo, hi, density of nu - mu) over the merged grid, exactly."""
    bm = [Fraction(x) for x in mu.breaks]
    bn = [Fraction(x) for x in nu.breaks]
    xs = sorted({*bm, *bn})
    cells = []
    for lo, hi in zip(xs, xs[1:]):
        mid = (lo + hi) / 2
        cells.append((lo, hi, _density(nu, bn, mid) - _density(mu, bm, mid)))
    return cells


def totals(mu: StepMeasure, nu: StepMeasure) -> tuple[Fraction, Fraction]:
    """Exact mass M and first moment B (about 0) of nu - mu."""
    cells = sigma_cells(mu, nu)
    mass = sum((s * (hi - lo) for lo, hi, s in cells), Fraction(0))
    moment = sum((s * (hi * hi - lo * lo) / 2 for lo, hi, s in cells), Fraction(0))
    return mass, moment


def difference_at(mu: StepMeasure, nu: StepMeasure, y: float | Fraction) -> Fraction:
    """U_nu(y) - U_mu(y), exactly."""
    y = Fraction(y)
    mass, moment = totals(mu, nu)
    g = Fraction(0)
    for lo, hi, s in sigma_cells(mu, nu):
        if y > lo:
            # integral over (lo, min(y, hi)) of (y - x) s dx, the cell's share of G(y)
            top = min(y, hi)
            g += s * ((y - lo) ** 2 - (y - top) ** 2) / 2
    return -g + (y * mass - moment) / 2


def worst_gap(mu: StepMeasure, nu: StepMeasure) -> Fraction:
    """Exact maximum of U_nu - U_mu over the joint hull; 0 when both are zero."""
    cells = sigma_cells(mu, nu)
    if not cells:
        return Fraction(0)
    mass, moment = totals(mu, nu)
    f = g = Fraction(0)
    y0 = cells[0][0]
    best = (y0 * mass - moment) / 2
    for lo, hi, s in cells:
        w = hi - lo
        left = -g + (lo * mass - moment) / 2
        if s > 0:
            t = (mass / 2 - f) / s
            if 0 < t < w:
                best = max(best, left + (mass / 2 - f) * t / 2)
        g += f * w + s * w * w / 2
        f += s * w
        best = max(best, -g + (hi * mass - moment) / 2)
    return best


def holes(mu: StepMeasure, c: float, d: float) -> tuple[Fraction, Fraction]:
    """Exact mass h and barycentre g of mu's holes (1 - mu)^+ on (c, d).

    mu must lie inside (c, d); g is the midpoint when there are no holes.
    """
    b = [Fraction(x) for x in (c, *mu.breaks, d)]
    v = [Fraction(0), *map(Fraction, mu.values), Fraction(0)]
    h = moment = Fraction(0)
    for x, lo, hi in zip(v, b, b[1:]):
        w = max(1 - x, Fraction(0)) * (hi - lo)
        h += w
        moment += w * (lo + hi) / 2
    return h, (moment / h if h else (b[0] + b[-1]) / 2)


def gap(mu: StepMeasure, c: float, d: float) -> tuple[Fraction, Fraction]:
    """Exact ends (g - h/2, g + h/2) of the target's gap on (c, d)."""
    h, g = holes(mu, c, d)
    return g - h / 2, g + h / 2


def ordered(mu: StepMeasure, nu: StepMeasure, c: float, d: float, tol: float) -> bool:
    """The order verdict on (c, d) from exact gaps, held to the tolerance policy.

    The policy's bounds, tol * k + floor for the mass gap and that times
    d - c for the potential and the moment about the midpoint, are taken
    exactly too, so that they do not underflow at tiny scales.
    """
    mass, moment = totals(mu, nu)
    mid = (Fraction(c) + Fraction(d)) / 2
    # the floor, a few ulps, is a float exactly
    mass_bound = Fraction(tol) * Fraction(mu.mass) + Fraction(_bounds(0.0, 0.0, c, d)[0])
    bound = mass_bound * (Fraction(d) - Fraction(c))
    return (
        abs(mass) <= mass_bound
        and abs(moment - mid * mass) <= bound
        and worst_gap(mu, nu) <= bound
    )
