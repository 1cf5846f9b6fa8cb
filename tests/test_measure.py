import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stefan1d import (
    DEFAULT_TOL,
    OpenSet1D,
    PiecewiseQuadratic,
    StepMeasure,
    SupportError,
    ValidationError,
    dominates,
    indicator,
    l1_distance,
    make_step_measure,
    measures_allclose,
    order_leq_sh_O,
    pointwise_leq,
    positive_part_l1,
    restrict,
    solve,
)
from helpers import (
    EDGE_DENSITIES,
    POW_BREAK,
    canonical_reference,
    canonicalize,
    cdf,
    cell_measures,
    first_moment_reference,
    from_cells_reference,
    grid_breaks,
    grid_measures,
    grid_open_sets,
    make_step_measure_reference,
    mass_reference,
    merge_pairs,
    merged_cells_reference,
    midpoints_interior,
    quantiles_reference,
    raw_cells,
    restrict_reference,
    sweep_reference,
    unit_block_measures,
    walked_cells_reference,
    walked_sub_reference,
    zero_measure,
)
from stefan1d.measure import _canonical, _cuts, _merged_cells
from stefan1d.particles import ComponentRunReport
from stefan1d.solver import _blocks_measure, sweep_states
from stefan1d.walkers import _quantiles


def test_indicator_constructor():
    mu = make_step_measure([-1.0, 1.0], [1.0])
    assert mu.breaks == (-1.0, 1.0)
    assert mu.values == (1.0,)
    assert mu.mass == 2.0


@pytest.mark.parametrize(
    "a, b, density, match",
    [
        (0.0, 1.0, math.nan, "density"),
        (0.0, 1.0, math.inf, "density"),
        (0.0, math.inf, 1.0, "endpoints"),
        (-math.inf, 0.0, 1.0, "endpoints"),
        (math.nan, 1.0, 1.0, "a < b"),
        (0.0, 1.0, -0.5, "nonnegative"),
    ],
)
def test_indicator_rejects_non_finite_input(a, b, density, match):
    with pytest.raises(ValidationError, match=match):
        indicator(a, b, density)


@pytest.mark.parametrize(
    "build",
    [
        lambda: OpenSet1D.interval(-1e308, 1e308),
        lambda: make_step_measure([-1e308, 1e308], [1e-300]),
        lambda: indicator(-1e308, 1e308),
    ],
    ids=["open_set", "make_step_measure", "indicator"],
)
def test_spans_whose_width_overflows_are_rejected(build):
    # finite endpoints 2e308 apart: their width, and a mass over it, would be inf
    with pytest.raises(ValidationError, match=r"too wide.*\(-1e\+308, 1e\+308\)"):
        build()


def test_indicator_flushes_subnormal_density():
    assert indicator(0.0, 1.0, 5e-324) == zero_measure()
    assert indicator(0.0, 1.0, sys.float_info.min).values == (sys.float_info.min,)


def test_constructor_matches_block_density():
    mu = make_step_measure([0.0, math.sqrt(0.75)], [0.99])
    assert mu.mass == pytest.approx(0.99 * math.sqrt(0.75), rel=1e-15)
    assert first_moment_reference(mu) == pytest.approx(0.37125, abs=1e-12)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValidationError, match="breaks"):
        make_step_measure([1.0, 0.0], [1.0])
    with pytest.raises(ValidationError, match="values\\[0\\]"):
        make_step_measure([0.0, 1.0], [-0.5])
    with pytest.raises(ValidationError, match="len"):
        make_step_measure([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        make_step_measure([0.0, float("nan")], [1.0])


def test_mass_examples():
    assert indicator(-2.0, 3.0).mass == 5.0
    assert indicator(-0.5, 1.0, 0.99).mass == pytest.approx(1.485, abs=1e-15)
    a = indicator(0.0, 1.0, 0.3)
    b = indicator(2.0, 3.0, 0.7)
    assert (a + b).mass == pytest.approx(a.mass + b.mass, rel=1e-15)


def test_first_moment_examples():
    assert first_moment_reference(indicator(-0.5, 1.0, 0.99)) == pytest.approx(0.37125, abs=1e-12)
    assert first_moment_reference(indicator(-2.0, 2.0, 0.7)) == pytest.approx(0.0, abs=1e-15)
    assert first_moment_reference(indicator(-0.5, 0.0)) == pytest.approx(-0.125, abs=1e-15)


def test_first_moment_of_a_light_measure_far_from_zero_is_finite():
    # squares of breaks past ~1.34e154 overflow; the hole pass sums about the midpoint
    mu = indicator(1e200, 1.5e200, 1e-250)
    assert mu.mass == pytest.approx(5e-51, rel=1e-15)
    ((k, beta),) = solve(mu, OpenSet1D.interval(1e200, 1.5e200)).provenance
    assert k == mu.mass
    assert beta == pytest.approx(6.25e149, rel=1e-15)


def test_positive_part_l1():
    mu = indicator(0.0, 1.0)
    assert positive_part_l1(mu, mu) == 0.0
    nu = indicator(5.0, 6.0, 0.5)
    assert positive_part_l1(mu, nu) == pytest.approx(mu.mass, rel=1e-15)
    # one-sided gap of overlapping blocks
    a = indicator(0.0, 1.0, 0.9)
    b = indicator(0.0, 0.5, 0.9) + indicator(0.5, 1.0, 0.2)
    assert positive_part_l1(a, b) == pytest.approx(0.7 * 0.5, rel=1e-12)


def test_pointwise_leq():
    assert pointwise_leq(indicator(-0.9, 0.0), indicator(-1.0, 0.0))
    mu = indicator(0.2, 0.4, 0.5)
    assert pointwise_leq(mu, mu)
    assert not pointwise_leq(indicator(-1.0, 0.0), indicator(-0.9, 0.0))


def test_cdf_quantile_examples():
    mu = indicator(-1.0, 1.0)
    assert cdf(mu, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert _quantiles(mu.breaks, mu.values, np.array([0.0, mu.mass])).tolist() == [-1.0, 1.0]
    ys = np.linspace(-2.0, 2.0, 41)
    vals = [cdf(mu, y) for y in ys]
    assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


def test_quantile_skips_zero_density_gaps():
    mu = indicator(0.0, 1.0, 0.5) + indicator(2.0, 3.0, 0.5)
    # just past the first cell's mass the quantile must land in the second block
    assert _quantiles(mu.breaks, mu.values, np.array([0.5 + 1e-9]))[0] == pytest.approx(
        2.0, abs=1e-8
    )


def test_restrict_examples():
    O = OpenSet1D.interval(-1.0, 1.0)
    parts = restrict(indicator(-0.5, 0.5), O)
    assert len(parts) == 1 and l1_distance(parts[0], indicator(-0.5, 0.5)) == 0.0

    Osplit = OpenSet1D.of((-1.0, 0.0), (0.0, 1.0))
    mu = indicator(-0.9, -0.1) + indicator(0.1, 0.9)
    left, right = restrict(mu, Osplit)
    assert l1_distance(left, indicator(-0.9, -0.1)) == 0.0
    assert l1_distance(right, indicator(0.1, 0.9)) == 0.0

    with pytest.raises(SupportError) as err:
        restrict(indicator(-2.0, 0.0), O)
    assert err.value.leaked_mass == pytest.approx(1.0, rel=1e-12)


def test_restrict_returns_mu_itself_when_one_component_holds_all_of_it():
    mu = make_step_measure([-0.5, 0.0, 0.5], [0.5, 1.0])
    mass = mu.mass
    # inside, touching both ends, or one of several components: mu itself, so
    # its cached totals are not summed again
    for O in (
        OpenSet1D.interval(-1.0, 1.0),
        OpenSet1D.interval(-0.5, 0.5),
        OpenSet1D.of((-3.0, -2.0), (-1.0, 1.0)),
    ):
        part = restrict(mu, O)[-1]
        assert part is mu and part.mass is mass
    # a clipped end makes a new part
    part = restrict(mu, OpenSet1D.interval(-0.25, 1.0), tol=1.0)[0]
    assert part is not mu and part.breaks == (-0.25, 0.0, 0.5)


def test_restrict_is_additive():
    rng = np.random.default_rng(7)
    from helpers import random_admissible_measure, random_open_set

    for _ in range(50):
        O = random_open_set(rng)
        mu = random_admissible_measure(rng, O)
        parts = restrict(mu, O)
        k = sum(p.mass for p in parts)
        b = sum(first_moment_reference(p) for p in parts)
        assert k == pytest.approx(mu.mass, rel=1e-12, abs=1e-12)
        assert b == pytest.approx(first_moment_reference(mu), rel=1e-12, abs=1e-12)


def test_open_set_validation():
    with pytest.raises(ValidationError):
        OpenSet1D.of((0.0, 0.0))
    with pytest.raises(ValidationError):
        OpenSet1D.of((0.0, 1.0), (0.5, 2.0))
    # touching components are allowed and stay separate
    O = OpenSet1D.of((-1.0, 0.0), (0.0, 1.0))
    assert len(O.components) == 2
    assert not any(c < 0.0 < d for c, d in O.components)


@st.composite
def step_measures(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    start = draw(st.floats(-50.0, 50.0))
    widths = draw(
        st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n)
    )
    vals = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 5.0)), min_size=n, max_size=n
        )
    )
    breaks = [start]
    for w in widths:
        breaks.append(breaks[-1] + w)
    return make_step_measure(breaks, vals)


@settings(max_examples=150, deadline=None)
@given(step_measures())
def test_canonicalization_idempotent(mu):
    assert canonicalize(mu) == mu
    # no mergeable neighbours, no zero tails
    for a, b in zip(mu.values, mu.values[1:]):
        assert a != b
    if mu.values:
        assert mu.values[0] != 0.0 and mu.values[-1] != 0.0


@settings(max_examples=100, deadline=None)
@given(step_measures(), step_measures())
def test_positive_parts_sum_to_l1(mu, nu):
    total = positive_part_l1(mu, nu) + positive_part_l1(nu, mu)
    assert total == pytest.approx(l1_distance(mu, nu), rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(step_measures(), st.floats(0.0, 1.0))
@example(make_step_measure([0.0, 2.0], [5e-324]), 0.0)
@example(make_step_measure([0.0, 1e-3], [sys.float_info.min]), 0.0)
def test_quantile_inverts_cdf_on_support(mu, frac):
    if mu.mass <= 0.0:
        return
    # pick a point strictly inside a positive-density cell
    for lo, hi, v in mu.cells():
        if v > 0.0:
            y = lo + frac * (hi - lo)
            y = min(max(y, lo + 1e-9 * (hi - lo)), hi - 1e-9 * (hi - lo))
            u = cdf(mu, y)
            x = _quantiles(mu.breaks, mu.values, np.array([u]))[0]
            assert x == pytest.approx(y, rel=1e-9, abs=1e-9)
            break


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(grid_measures(), step_measures()), grid_open_sets(), st.lists(st.floats(0.0, 1.0))
)
# one clipped cell; clipped ends about an interior zero cell
@example(indicator(-1.0, 1.0, 0.7), OpenSet1D.interval(-0.5, 0.25), [0.5])
@example(indicator(-1.0, -0.5) + indicator(0.0, 1.0, 0.3), OpenSet1D.interval(-0.75, 0.5), [0.5])
def test_quantiles_match_the_cell_loop_bit_for_bit(mu, O, fracs):
    # on the cuts the particle run samples from, u from exactly 0 to exactly the mass
    for breaks, values, k in _cuts(mu, O):
        if not k:
            continue  # an empty component samples no walker
        u = [0.0, *(f * k for f in fracs), k]
        got = _quantiles(breaks, values, np.array(u)).tolist()
        assert repr(got) == repr(quantiles_reference(breaks, values, np.array(u)).tolist())


def test_zero_measure_propagates():
    z = zero_measure()
    assert z.mass == 0.0 and first_moment_reference(z) == 0.0
    assert (z + z).mass == 0.0
    assert positive_part_l1(z, z) == 0.0
    assert restrict(z, OpenSet1D.interval(0.0, 1.0)) == [zero_measure()]


def test_canonical_merging_of_equal_neighbours():
    mu = make_step_measure([0.0, 1.0, 2.0], [0.5, 0.5])
    assert mu.breaks == (0.0, 2.0)  # equal neighbours merged


@st.composite
def canonical_inputs(draw):
    """Breaks sorted, repeated or stepping back, and densities with extra values."""
    point = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 5e-324]), st.floats(-3.0, 3.0))
    breaks = draw(st.lists(point, max_size=8))
    if draw(st.booleans()):
        breaks.sort()
    density = st.one_of(st.sampled_from([*EDGE_DENSITIES, math.nan]), st.floats(0.0, 3.0))
    n = max(len(breaks) - 1, 0) + draw(st.integers(0, 2))
    return tuple(breaks), draw(st.lists(density, min_size=n, max_size=n))


def _canonical_outcome(fn, breaks, values):
    try:
        return repr(fn(breaks, iter(values)))
    except ValidationError as exc:
        return repr(exc)


@settings(max_examples=500, deadline=None)
@given(canonical_inputs())
@example(((0.0, 1.0, 0.5, 2.0), [0.5, 0.25, 0.75]))  # a break steps back
@example(((-1.0, -0.0, 0.0, 1.0), [0.0, 0.5, 0.5]))  # -0.0 then 0.0 after a zero run
@example(((-1.0, 0.0, -0.0, 1.0), [0.5, 0.0, 0.5]))
@example(((0.0, 1.0, 1.0, 2.0, 3.0), [0.5, 0.25, 0.5, 0.0, 1.0]))  # repeat, trailing zero
@example(((-0.0, 1.0, 2.0), [5e-324, math.nan, 1.0]))  # flushed densities, one extra value
@example(((0.0, 1e300, 2e300), [1e10, 1e10]))  # refused: the mass overflows
def test_canonicaliser_matches_the_mask_passes_bit_for_bit(cut):
    assert _canonical_outcome(_canonical, *cut) == _canonical_outcome(canonical_reference, *cut)


# -- the bisect-and-slice restriction and the merge walk against references --


def _restrict_outcome(fn, mu, open_set, tol):
    try:
        return fn(mu, open_set, tol)
    except SupportError as exc:
        return ("SupportError", str(exc), exc.leaked_mass)


@settings(max_examples=200, deadline=None)
@given(grid_measures(), grid_open_sets(), st.sampled_from([1e-9, 0.1, 10.0]))
# interior zero cell, components touching each other and on breaks
@example(
    make_step_measure([-1.0, -0.5, 0.0, 0.5, 1.0], [0.5, 0.0, 1.0, 0.25]),
    OpenSet1D.of((-1.0, -0.5), (-0.5, 0.0), (0.0, 1.0)),
    1e-9,
)
# components outside the support and one holding only a zero cell
@example(
    make_step_measure([-1.0, -0.5, 0.5, 1.0], [1.0, 0.0, 1.0]),
    OpenSet1D.of((-3.0, -2.0), (-1.0, 1.0), (2.0, 3.0)),
    1e-9,
)
@example(
    make_step_measure([-1.0, -0.5, 0.5, 1.0], [1.0, 0.0, 1.0]),
    OpenSet1D.of((-2.0, -1.0), (-0.25, 0.25), (1.0, 3.0)),
    1e-9,
)
# leaking mass: raised under a tight tolerance, forgiven under a loose one
@example(indicator(-1.0, 1.0, 0.5), OpenSet1D.of((-0.25, 0.75)), 1e-9)
@example(indicator(-1.0, 1.0, 0.5), OpenSet1D.of((-0.25, 0.75)), 10.0)
# -0.0 endpoints against 0.0 breaks, at either end of a component
@example(indicator(0.0, 1.0), OpenSet1D.of((-0.0, 0.5), (0.5, 1.0)), 1e-9)
@example(indicator(-1.0, 0.0), OpenSet1D.of((-1.0, -0.0)), 1e-9)
def test_restrict_matches_reference(mu, O, tol):
    new = _restrict_outcome(restrict, mu, O, tol)
    ref = _restrict_outcome(restrict_reference, mu, O, tol)
    assert new == ref
    assert repr(new) == repr(ref)


@settings(max_examples=100, deadline=None)
@given(grid_measures(), grid_measures())
def test_merged_cells_match_reference(mu, nu):
    assume(midpoints_interior(mu.breaks, nu.breaks))
    new = list(_merged_cells(mu, nu))
    ref = merged_cells_reference(mu, nu)
    assert new == ref
    assert repr(new) == repr(ref)


def test_merged_grid_on_ulp_adjacent_breaks():
    # the midpoint of the ulp-wide cell (a, b) rounds onto b, so a density read
    # at midpoints would see 0.4 there where it is 0.9
    a = math.nextafter(1.0, 2.0)
    b = math.nextafter(a, 2.0)
    mu = make_step_measure([0.0, a, b, 2.0], [0.2, 0.9, 0.4])
    assert [v for _, _, v, _ in _merged_cells(mu, zero_measure())] == [0.2, 0.9, 0.4]
    assert mu + zero_measure() == mu
    assert l1_distance(mu, mu) == 0.0
    assert l1_distance(mu, zero_measure()) == mu.mass


def test_l1_helpers_sum_from_a_float_zero():
    # with no cell contributing, a sum started at the int 0 printed as `0`
    for mu in (indicator(0.0, 1.0), zero_measure()):
        assert repr(positive_part_l1(mu, mu)) == "0.0"
        assert repr(l1_distance(mu, mu)) == "0.0"


_UNIT_SET = OpenSet1D.interval(-1.0, 1.0)


@pytest.mark.parametrize("tol", [-1.0, -5e-324, -math.inf, math.nan])
@pytest.mark.parametrize(
    "compare",
    [
        pointwise_leq,
        measures_allclose,
        dominates,
        pytest.param(
            lambda mu, nu, tol: order_leq_sh_O(mu, nu, _UNIT_SET, tol), id="order_leq_sh_O"
        ),
        pytest.param(lambda mu, nu, tol: solve(mu, _UNIT_SET, tol), id="solve"),
        pytest.param(lambda mu, nu, tol: restrict(mu, _UNIT_SET, tol), id="restrict"),
    ],
)
def test_pointwise_comparisons_reject_a_bad_tolerance(compare, tol):
    # every function that takes a tolerance refuses a bad one before any other check
    mu = indicator(0.0, 1.0)
    with pytest.raises(ValidationError, match="tolerance"):
        compare(mu, mu, tol)


def _quadratics(mu: StepMeasure) -> PiecewiseQuadratic:
    """A piecewise quadratic on mu's grid, its pieces told apart by their constant terms."""
    padded = (0.0, *mu.values, 0.0)[: len(mu.breaks) + 1]
    return PiecewiseQuadratic(mu.breaks, tuple((v, -v, float(i)) for i, v in enumerate(padded)))


@settings(max_examples=200, deadline=None)
@given(merge_pairs())
@example(
    (
        make_step_measure([-1.0, 0.0, 1.0], [0.5, 1.0]),
        make_step_measure([-0.5, -0.0, 0.5], [1.0, 0.5]),
    )
)
@example((StepMeasure((0.0,), ()), make_step_measure([-0.0, 1.0], [0.5])))
@example((zero_measure(), StepMeasure((0.5,), ())))
def test_merged_grid_operations_match_the_walk_bit_for_bit(pair):
    a, b = pair
    for mu, nu in ((a, b), (b, a)):
        cells = walked_cells_reference(mu, nu)
        assert repr(list(_merged_cells(mu, nu))) == repr(cells)
        above = sum(((x - y) * (hi - lo) for lo, hi, x, y in cells if x > y), 0.0)
        assert repr(positive_part_l1(mu, nu)) == repr(above)
        total = sum((abs(x - y) * (hi - lo) for lo, hi, x, y in cells), 0.0)
        assert repr(l1_distance(mu, nu)) == repr(total)
        for tol in (0.0, DEFAULT_TOL):
            assert pointwise_leq(mu, nu, tol) is all(x <= y + tol for _, _, x, y in cells)
            close = all(abs(x - y) <= tol for _, _, x, y in cells)
            assert measures_allclose(mu, nu, tol) is close
        added = [(lo, hi, x + y) for lo, hi, x, y in cells]
        assert _outcome(operator.add, mu, nu) == _outcome(from_cells_reference, added)
        p, q = _quadratics(mu), _quadratics(nu)
        assert repr(p - q) == repr(walked_sub_reference(p, q))


# -- one-pass construction and the cached totals against their references ------


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ValidationError as exc:
        return f"ValidationError: {exc}"


@settings(max_examples=200, deadline=None)
@given(raw_cells())
@example(([-1.0, -0.0, 1.0], [0.5, -0.0]))
@example(([-0.0, 1.0, 2.0], [5e-324, 0.5]))
@example(([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.5, 1e-310, 0.5]))
@example(([0.0, 1.0, 2.0, 3.0], [0.5, 0.5, 0.0]))
@example(([0.0, 1.0, 2.0], [0.0, -0.0]))
@example(([1.0], []))
@example(([], []))
@example(([0.0, POW_BREAK], [0.75]))
@example(([0.0, math.nextafter(0.0, 1.0), 1.0], [sys.float_info.min, 1.0]))
def test_construction_matches_reference(cells):
    breaks, values = cells
    new = _outcome(make_step_measure, breaks, values)
    assert new == _outcome(make_step_measure_reference, breaks, values)
    if not new.startswith("ValidationError"):
        mu = make_step_measure(breaks, values)
        assert repr(mu.mass) == repr(mass_reference(mu))


@pytest.mark.parametrize(
    "breaks, values",
    [
        ([0.0, math.nan], [1.0]),
        ([0.0, math.inf, 2.0], [1.0, 1.0]),
        ([1.0, 1.0], [1.0]),
        ([0.0, 2.0, 1.0], [1.0, 1.0]),
        ([-0.0, 0.0], [1.0]),
        ([0.0, 1.0, 2.0], [1.0, math.nan]),
        ([0.0, 1.0, 2.0], [-math.inf, 1.0]),
        ([0.0, 1.0, 2.0], [0.5, -5e-324]),
        ([0.0, 1.0], [1.0, 2.0]),
        ([], [1.0]),
    ],
)
def test_construction_errors_match_reference(breaks, values):
    new = _outcome(make_step_measure, breaks, values)
    assert new.startswith("ValidationError")
    assert new == _outcome(make_step_measure_reference, breaks, values)


def test_mass_is_computed_once():
    mu = make_step_measure([0.0, 1.0, 3.0], [0.5, 2.0])
    assert mu.mass is mu.mass


# -- the one canonicaliser against the sort-and-clamp loop it replaced ---------------


def _frozen(c: float, d: float, left: float, right: float) -> ComponentRunReport:
    """A particle report on (c, d) whose fronts froze at left and right."""
    nan = math.nan
    return ComponentRunReport((c, d), 1, 0.0, 1, 0, 0, 0.0, 0.0, left, right, nan, nan, nan, (), ())


def _unit_cells(blocks) -> list[tuple[float, float, float]]:
    return [cell for c, e, f, d in blocks for cell in ((c, e, 1.0), (f, d, 1.0))]


def _builds(kind: str, args) -> tuple[str, str]:
    """The builder's outcome and the reference's, as repr, errors included."""
    if kind == "add":
        added = [(lo, hi, x + y) for lo, hi, x, y in walked_cells_reference(*args)]
        return _outcome(operator.add, *args), _outcome(from_cells_reference, added)
    if kind == "indicator":
        return _outcome(indicator, *args), _outcome(from_cells_reference, [args])
    if kind == "sweep":
        domain = OpenSet1D.interval(-1.0, 1.0)
        return repr(sweep_states(args, domain)), repr(sweep_reference(args, domain)[1])
    if kind == "frozen":  # each report's frozen measure, then all of them as `run` joins them
        ends = [r._frozen_ends() for r in args]
        new = [*(r.frozen_measure() for r in args), _blocks_measure(ends)]
        ref = [from_cells_reference(_unit_cells(b)) for b in ([e] for e in ends)]
        ref.append(from_cells_reference(_unit_cells(ends)))
        return repr(new), repr(ref)
    return _outcome(_blocks_measure, args), _outcome(from_cells_reference, _unit_cells(args))


@st.composite
def block_runs(draw):
    """Blocks (c, e, f, d) in order on sorted, repeating points: saturated, empty, touching."""
    point = st.one_of(st.sampled_from([k / 4 for k in range(-8, 9)] + [-0.0]), st.floats(-3.0, 3.0))
    xs = sorted(draw(st.lists(point, max_size=16)))
    return [tuple(xs[i : i + 4]) for i in range(0, len(xs) - 3, 4)]


_DENSITY = st.one_of(st.sampled_from(EDGE_DENSITIES), st.floats(0.0, 5.0))
_UP = math.nextafter(0.5, 1.0)  # one ulp above 0.5


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("add"), st.tuples(cell_measures(), cell_measures())),
        st.tuples(st.just("indicator"), st.tuples(grid_breaks(2, 2), _DENSITY).map(
            lambda t: (*t[0], t[1]))),
        st.tuples(st.just("blocks"), block_runs()),
        st.tuples(st.just("sweep"), unit_block_measures(max_blocks=6)),
    )
)
@example(("blocks", [(-1.0, -0.75, -0.25, 0.0), (0.0, 0.25, 0.5, 1.0)]))  # touching
@example(("blocks", [(-1.0, -1.0, -0.25, 0.0), (0.0, 0.0, 0.5, 1.0)]))  # e == c
@example(("blocks", [(-1.0, -0.5, 0.0, 0.0), (0.0, 0.25, 1.0, 1.0)]))  # f == d
@example(("blocks", [(-1.0, 0.0, 0.0, 0.5), (0.5, 0.75, 0.75, 1.0)]))  # e == f
# a zero's copies differ in sign: the break is 0.0
@example(("blocks", [(-1.0, -0.5, 0.0, 0.0), (-0.0, 0.25, 0.5, 1.0)]))
@example(("blocks", [(-1.0, -0.5, -0.0, -0.0), (0.0, 0.0, 0.5, 1.0)]))
@example(("blocks", [(-0.0, -0.0, 0.0, 1.0)]))
@example(("indicator", (0.0, 1.0, 5e-324)))
@example(("indicator", (0.0, 1.0, sys.float_info.min)))
@example(("add", (indicator(0.0, 1.0, sys.float_info.min), indicator(0.5, 2.0, 5e-324))))
@example(("add", (make_step_measure([0.0, 1.0, 2.0], [5e-324, 0.5]), indicator(0.0, 1.0))))
# crossed fronts put a left front past d: touching, apart, and apart by less than the overshoot
@example(("frozen", [_frozen(-1.0, 0.5, _UP, 0.5), _frozen(0.5, 2.0, 1.0, 1.5)]))
@example(("frozen", [_frozen(-1.0, 0.5, _UP, 0.5), _frozen(0.75, 2.0, 1.0, 1.5)]))
@example(("frozen", [_frozen(-1.0, 0.5, math.nextafter(_UP, 1.0), 0.5), _frozen(_UP, 2, 1, 2)]))
def test_builders_match_the_sort_and_clamp_reference(case):
    new, ref = _builds(*case)
    assert new == ref
