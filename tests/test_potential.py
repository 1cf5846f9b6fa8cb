import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stefan1d import (
    DEFAULT_TOL,
    OpenSet1D,
    PiecewiseQuadratic,
    dominates,
    indicator,
    make_step_measure,
    measures_allclose,
    order_leq_sh_O,
    potential,
    solve,
    solve_component,
    sweep_states,
    zero_measure,
)
from stefan1d.measure import _bounds

import referee
from helpers import (
    GRID,
    POW_BREAK,
    cdf,
    cell_measures,
    density_at,
    dominates_reference,
    grid_breaks,
    hull,
    max_on_reference,
    midpoints_interior,
    potential_reference,
    random_admissible_measure,
    random_open_set,
    random_unit_blocks,
    sub_reference,
)


EPS = sys.float_info.epsilon

# -- potentials -----------------------------------------------------------


def test_potential_of_unit_block():
    U = potential(indicator(-1.0, 1.0))
    assert U(0.0) == pytest.approx(-0.5, abs=1e-15)
    # exact tails: slope -k/2 on the right, +k/2 on the left
    assert U.coeffs[-1] == (0.0, -1.0, 0.0)
    assert U.coeffs[0] == (0.0, 1.0, 0.0)


def test_potential_of_zero_measure():
    U = potential(zero_measure())
    for y in (-3.0, 0.0, 7.5):
        assert U(y) == 0.0


def test_curvature_equals_minus_density():
    rng = np.random.default_rng(11)
    for _ in range(50):
        O = random_open_set(rng)
        mu = random_admissible_measure(rng, O)
        U = potential(mu)
        for (lo, hi, v), (a, _, _) in zip(mu.cells(), U.coeffs[1:-1]):
            assert 2.0 * a == pytest.approx(-v, abs=0.0)


def test_potential_c1_at_breakpoints():
    rng = np.random.default_rng(12)
    for _ in range(50):
        O = random_open_set(rng)
        mu = random_admissible_measure(rng, O)
        U = potential(mu)
        D = U.derivative()
        for i, y in enumerate(U.breakpoints):
            a0, b0, c0 = U.coeffs[i]
            a1, b1, c1 = U.coeffs[i + 1]
            left_val = (a0 * y + b0) * y + c0
            right_val = (a1 * y + b1) * y + c1
            assert abs(left_val - right_val) <= 1e-9
            _, m0, d0 = D.coeffs[i]
            _, m1, d1 = D.coeffs[i + 1]
            assert abs((m0 * y + d0) - (m1 * y + d1)) <= 1e-9


def test_derivative_routes_agree():
    # U'(y) = (mass right of y - mass left of y) / 2, from the cumulative mass
    rng = np.random.default_rng(13)
    for _ in range(50):
        O = random_open_set(rng)
        mu = random_admissible_measure(rng, O)
        D = potential(mu).derivative()
        lo, hi = mu.support()
        for y in (lo - 1.0, *mu.breaks, *rng.uniform(lo, hi, 8), hi + 1.0):
            left = cdf(mu, y)
            assert D(y) == pytest.approx(((mu.mass - left) - left) / 2.0, abs=1e-12)


def test_derivative_inside_single_block():
    mu = indicator(0.2, 0.8)
    k = mu.mass
    beta = mu.first_moment
    D = potential(mu).derivative()
    for y in (0.3, 0.5, 0.7):
        assert D(y) == pytest.approx(-y + beta / k, abs=1e-12)
    assert D(5.0) == pytest.approx(-k / 2.0, abs=1e-15)
    assert D(-5.0) == pytest.approx(k / 2.0, abs=1e-15)


def test_two_block_target_plateau_slope():
    from stefan1d import solve_component

    k, beta = 0.7, 0.1
    target = solve_component(-1.0, 1.0, k, beta).measure()
    D = potential(target).derivative()
    mid = 0.5 * (-1 + k / 2 - beta / (2 - k) + 1 - k / 2 - beta / (2 - k))
    assert D(mid) == pytest.approx(beta / (2.0 - k), abs=1e-12)


def test_potential_derivative_of_zero():
    D = potential(zero_measure()).derivative()
    assert D(1.0) == 0.0


# -- order certificates -----------------------------------------------------


def test_dominates_reflexive():
    mu = indicator(-0.3, 0.4, 0.8)
    cert = dominates(mu, mu)
    assert cert.ordered and cert.worst_gap == 0.0


def test_dominates_single_block_vs_target():
    mu = indicator(-0.2, 0.5)
    sol = solve(mu, OpenSet1D.interval(-1.0, 1.0))
    cert = dominates(mu, sol.measure)
    assert cert.ordered
    assert not dominates(sol.measure, mu).ordered


def test_remark_pair_globally_ordered_but_not_componentwise():
    mu = make_step_measure([-0.5, 0.5], [1.0])
    nu = make_step_measure([-1.0, -0.5, 0.5, 1.0], [1.0, 0.0, 1.0])
    assert dominates(mu, nu).ordered
    split = OpenSet1D.of((-1.0, 0.0), (0.0, 1.0))
    cert = order_leq_sh_O(mu, nu, split)
    assert not cert.ordered
    assert cert.moment_gap == pytest.approx(0.25, abs=1e-12)
    assert cert.per_component is not None and len(cert.per_component) == 2
    assert cert.assumptions  # exit-time regularity recorded, not verified


def test_order_respects_identity_and_symmetric_target():
    O = OpenSet1D.interval(-1.0, 1.0)
    mu = indicator(-0.25, 0.25)
    assert order_leq_sh_O(mu, mu, O).ordered
    nu = indicator(-1.0, -0.75) + indicator(0.75, 1.0)
    assert order_leq_sh_O(mu, nu, O).ordered


def test_tails_vanish_for_equal_mass_and_moment():
    # equal (k, beta) makes the difference identically zero outside the hull
    mu = indicator(-0.5, 0.5)
    nu = indicator(-1.0, -0.5) + indicator(0.5, 1.0)
    diff = potential(nu) - potential(mu)
    a, b, c = diff.coeffs[0]
    assert (a, b, c) == (0.0, 0.0, 0.0)
    a, b, c = diff.coeffs[-1]
    assert (a, b, c) == (0.0, 0.0, 0.0)


def test_antisymmetry_on_random_pairs():
    rng = np.random.default_rng(14)
    both_ordered = 0
    for _ in range(100):
        O = random_open_set(rng, max_components=1)
        mu = random_admissible_measure(rng, O)
        if rng.random() < 0.5:
            # same density, different grid: must be detected as equal
            c, d = O.components[0]
            mid = 0.5 * (mu.support()[0] + mu.support()[1])
            nu = make_step_measure(
                sorted({*mu.breaks, mid}),
                [density_at(mu, 0.5 * (a + b)) for a, b in zip(
                    sorted({*mu.breaks, mid}), sorted({*mu.breaks, mid})[1:]
                )],
            )
        else:
            nu = random_admissible_measure(rng, O)
        fwd = dominates(mu, nu)
        bwd = dominates(nu, mu)
        if fwd.ordered and bwd.ordered:
            both_ordered += 1
            assert fwd.worst_gap <= 1e-9 and bwd.worst_gap <= 1e-9
            assert measures_allclose(mu, nu, 1e-9)
    assert both_ordered > 10  # the equal-pair branch fired


def test_transitivity_along_sweep_chains():
    rng = np.random.default_rng(15)
    O = OpenSet1D.interval(-1.0, 1.0)
    for _ in range(20):
        mu = random_unit_blocks(rng, -1.0, 1.0, 3)
        states = sweep_states(mu, O)
        sol = solve(mu, O)
        chain = [mu] + states + [sol.measure]
        for a, b in zip(chain, chain[1:]):
            assert order_leq_sh_O(a, b, O).ordered
        assert order_leq_sh_O(mu, sol.measure, O).ordered


def test_slope_limits_at_infinity():
    rng = np.random.default_rng(16)
    for _ in range(20):
        O = random_open_set(rng)
        mu = random_admissible_measure(rng, O)
        U = potential(mu)
        k = mu.mass
        assert U.coeffs[0][1] == pytest.approx(k / 2.0, rel=1e-12, abs=1e-15)
        assert U.coeffs[-1][1] == pytest.approx(-k / 2.0, rel=1e-12, abs=1e-15)
        assert U.coeffs[0][0] == 0.0 and U.coeffs[-1][0] == 0.0


# -- the walk-merged subtraction against its reference -------------------------


@st.composite
def piecewise_pairs(draw):
    """Two piecewise quadratics on breakpoints from a shared grid."""
    coef = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))

    def one():
        bp = draw(grid_breaks(max_size=6))
        pieces = st.tuples(coef, coef, coef)
        coeffs = draw(st.lists(pieces, min_size=len(bp) + 1, max_size=len(bp) + 1))
        return PiecewiseQuadratic(bp, tuple(coeffs))

    return one(), one()


@settings(max_examples=200, deadline=None)
@given(piecewise_pairs())
def test_subtraction_matches_reference(pair):
    f, g = pair
    assume(midpoints_interior(f.breakpoints, g.breakpoints))
    new, ref = f - g, sub_reference(f, g)
    assert type(new) is type(ref)
    assert new == ref
    assert repr(new) == repr(ref)


def test_subtraction_on_ulp_adjacent_breaks():
    # the midpoint of the ulp-wide piece (a, b) rounds onto b, so a lookup at
    # midpoints would take the coefficients of the piece right of b there
    a = math.nextafter(1.0, 2.0)
    b = math.nextafter(a, 2.0)
    P = potential(make_step_measure([0.0, a, b, 2.0], [0.2, 0.9, 0.4]))
    assert (P - potential(zero_measure())).coeffs == P.coeffs


# -- the one-pass potential and the certificate against their references --------

_ZERO = zero_measure()
_POW = make_step_measure([-1.0, 0.0, POW_BREAK], [0.75, 0.25])


@settings(max_examples=200, deadline=None)
@given(cell_measures())
@example(_POW)
@example(make_step_measure([-1.0, -0.0, 1.0], [0.5, 1.0]))
@example(make_step_measure([0.0, math.nextafter(1.0, 2.0), 2.0], [5e-324, 0.5]))
def test_potential_matches_reference(mu):
    assert repr(potential(mu)) == repr(potential_reference(mu))


def test_potential_squares_breaks_with_pow():
    # b ** 2 and b * b round apart at POW_BREAK, and the coefficients keep pow's
    if POW_BREAK**2 == POW_BREAK * POW_BREAK:
        pytest.skip("this libm rounds POW_BREAK ** 2 as the product")
    assert potential(_POW) == potential_reference(_POW)


@st.composite
def windows(draw):
    point = st.one_of(st.sampled_from(GRID), st.floats(-4.0, 4.0))
    return tuple(sorted(draw(st.tuples(point, point))))


# max_on's first-maximum rule and window clipping: signed zeros at a breakpoint
# pick -0.0 or 0.0, and ties keep the first candidate
_STEP_DOWN = PiecewiseQuadratic((0.0,), ((0.0, 0.0, 0.0), (0.0, -1.0, 1.0)))
_STEP_UP = PiecewiseQuadratic((0.0,), ((0.0, 1.0, 1.0), (0.0, 0.0, 0.0)))
_FLAT = potential(_ZERO)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        cell_measures().map(potential),
        piecewise_pairs().map(lambda pair: pair[0]),
    ),
    windows(),
)
@example(_STEP_DOWN, (-0.0, 1.0))
@example(_STEP_UP, (-1.0, -0.0))
@example(_FLAT, (-1.0, 1.0))
@example(potential(indicator(-1.0, 1.0)), (-2.0, 2.0))
def test_max_on_matches_reference(f, window):
    assert repr(f.max_on(*window)) == repr(max_on_reference(f, *window))


def test_max_on_keeps_signed_zero_and_first_tie():
    assert repr(_STEP_DOWN.max_on(-0.0, 1.0)) == "(1.0, -0.0)"
    assert repr(_STEP_UP.max_on(-1.0, -0.0)) == "(1.0, -0.0)"
    assert _FLAT.max_on(-1.0, 1.0) == (0.0, -1.0)


def _bound(mu, nu) -> Fraction:
    """8 (n + 2) eps W max(1, k): rounding allowed to the walk, whatever the position.

    Exact, so that it does not underflow on subnormal widths.
    """
    cells = referee.sigma_cells(mu, nu)
    if not cells:
        return Fraction(0)
    width = cells[-1][1] - cells[0][0]
    return 8 * (len(cells) + 2) * Fraction(EPS) * width * Fraction(max(1.0, mu.mass, nu.mass))


def _scale(mu, nu) -> float:
    """max(1, mass) times max(1, hull width), for loose bounds."""
    breaks = (*mu.breaks, *nu.breaks)
    width = max(breaks) - min(breaks) if breaks else 0.0
    return max(1.0, mu.mass, nu.mass) * max(1.0, width)


def _error(value: float, exact: Fraction) -> Fraction:
    return abs(Fraction(value) - exact)


def _clear(value: float, bound: float) -> bool:
    return abs(value - bound) > 1e-12


@settings(max_examples=200, deadline=None)
@given(cell_measures(), cell_measures())
@example(_ZERO, _ZERO)
@example(_ZERO, indicator(-0.5, 0.5))
@example(indicator(-0.5, 0.5), _ZERO)
@example(indicator(-0.5, 0.5), indicator(-0.5, 0.5))
@example(indicator(-1.0, -0.0), indicator(0.0, 1.0))
@example(_POW, make_step_measure([-1.0, POW_BREAK], [0.5]))
def test_dominates_matches_referee(mu, nu):
    for tol in (DEFAULT_TOL, 0.0):
        cert = dominates(mu, nu, tol)
        exact = referee.worst_gap(mu, nu)
        assert _error(cert.worst_gap, exact) <= _bound(mu, nu)
        assert abs(referee.difference_at(mu, nu, cert.worst_point) - exact) <= _bound(mu, nu)
        # the retired route, maximising the built potential difference, is a
        # second opinion on the verdict wherever neither route sits on a
        # threshold; its moment gap is taken about 0 and the walk's about the
        # hull midpoint, so the two differ by the mass gap times the midpoint
        ref = dominates_reference(mu, nu, tol)
        assert cert.mass_gap == ref.mass_gap
        # near the origin its worst gap is off by rounding only: a slip in
        # the formula both the walk and the referee use shows here
        assert abs(cert.worst_gap - ref.worst_gap) <= 1e-12 * _scale(mu, nu)
        bound = _bounds(tol, mu.mass, *hull(mu, nu))[1]
        if (
            _clear(ref.worst_gap, bound)
            and _clear(ref.moment_gap, bound)
            and _clear(cert.moment_gap, bound)
        ):
            assert cert.ordered == ref.ordered
        mu, nu = nu, mu


def test_shared_break_keeps_nus_sign_of_zero():
    # the merged grid holds a break both measures have twice, nu's copy first,
    # so a worst point there carries nu's sign
    plus, minus = make_step_measure([0.0, 1.0], [0.5]), make_step_measure([-0.0, 1.0], [0.5])
    assert repr(dominates(minus, plus).worst_point) == "0.0"
    assert repr(dominates(plus, minus).worst_point) == "-0.0"


def _shifted(mu, s: float):
    return make_step_measure([x + s for x in mu.breaks], mu.values)


def _translated_pairs(rng, s: float, count: int):
    """Random pairs on (-1, 1) moved by s: unrelated measures and two-block targets.

    The targets are solved at the origin and then moved, so the pairs stay
    nearly ordered whatever s is.
    """
    for i in range(count):
        n = int(rng.integers(1, 12))
        mu = make_step_measure(np.sort(rng.uniform(-0.95, 0.95, n + 1)), rng.uniform(0.0, 1.0, n))
        if i % 2:
            nu = solve_component(-1.0, 1.0, mu.mass, mu.first_moment).measure()
        else:
            m = int(rng.integers(1, 12))
            nu = make_step_measure(np.sort(rng.uniform(-1.0, 1.0, m + 1)), rng.uniform(0.0, 1.0, m))
        yield _shifted(mu, s), _shifted(nu, s)


@pytest.mark.parametrize("s", [0.0, 1e2, 1e4, 1e6, 1e8])
def test_walk_error_does_not_grow_with_position(s):
    rng = np.random.default_rng(31)
    for mu, nu in _translated_pairs(rng, s, 60):
        for a, b in ((mu, nu), (nu, mu)):
            cert = dominates(a, b)
            assert _error(cert.worst_gap, referee.worst_gap(a, b)) <= _bound(a, b), (s, a, b)
