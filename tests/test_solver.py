import importlib
import inspect
import math
from itertools import accumulate, chain

import numpy as np
import pytest

from stefan1d import (
    AdmissibilityError,
    ConcaveGrid,
    InfeasibilityError,
    MaximalSolution,
    OpenSet1D,
    SimConfig,
    StepMeasure,
    SupportError,
    ValidationError,
    VerificationError,
    check_admissible,
    critical_point,
    dominates,
    independence_check,
    indicator,
    make_step_measure,
    measures_allclose,
    order_leq_sh_O,
    potential,
    primal_objective,
    restrict,
    run,
    solve,
    solve_by_sweep,
    solve_component,
    sweep_states,
)
from stefan1d.measure import DEFAULT_TOL, _cuts
from stefan1d.solver import BlockPair, _blocks_measure, _pair_cut
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import referee
from helpers import (
    first_moment_reference,
    grid_breaks,
    grid_measures,
    grid_open_sets,
    holes_reference,
    order_reference,
    random_admissible_measure,
    random_open_set,
    random_unit_blocks,
    sliced_restrict_reference,
    solve_reference,
    sum_measures,
    sweep_reference,
    unit_block_measures,
    zero_measure,
)

DOMAIN = OpenSet1D.interval(-1.0, 1.0)


# -- closed form -------------------------------------------------------------


def test_solve_component_reduces_to_standard_interval_form():
    rng = np.random.default_rng(21)
    for _ in range(100):
        k = rng.uniform(0.05, 1.95)
        half = k - 0.5 * k * k
        beta = rng.uniform(-half, half) * 0.98
        bp = solve_component(-1.0, 1.0, k, beta)
        assert bp.e == pytest.approx(-1.0 + k / 2.0 - beta / (2.0 - k), abs=1e-12)
        assert bp.f == pytest.approx(1.0 - k / 2.0 - beta / (2.0 - k), abs=1e-12)


def test_solve_component_symmetric():
    bp = solve_component(-1.0, 1.0, 0.5, 0.0)
    assert bp.as_tuple() == (-1.0, -0.75, 0.75, 1.0)


def test_solve_component_left_leaning_block():
    # mu = chi_(-0.5, 0): mass 0.5, first moment -0.125
    bp = solve_component(-1.0, 1.0, 0.5, -0.125)
    assert bp.e == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert bp.f == pytest.approx(5.0 / 6.0, abs=1e-12)
    # oracle: the blocks really carry that mass and moment
    target = bp.measure()
    assert target.mass == pytest.approx(0.5, abs=1e-12)
    assert first_moment_reference(target) == pytest.approx(-0.125, abs=1e-12)


@pytest.mark.parametrize(
    "c, d, k, beta",
    [(-0.0, 1.0, 0.5, 0.125), (-1.0, -0.0, 0.5, -0.125), (-0.0, 1.0, 1.0, 0.5), (-1.0, -0.0, 0.0, 0.0)],
)
def test_solve_component_stores_zero_as_0(c, d, k, beta):
    # an end written -0.0 is stored as 0.0, as OpenSet1D stores it
    assert _negative_zeros(solve_component(c, d, k, beta).as_tuple()) == []


def test_solve_component_infeasible_inputs():
    with pytest.raises(InfeasibilityError, match="negative"):
        solve_component(-1.0, 1.0, -0.2, 0.0)
    with pytest.raises(InfeasibilityError, match="exceeds"):
        solve_component(-1.0, 1.0, 2.5, 0.0)
    with pytest.raises(InfeasibilityError, match="upper"):
        solve_component(-1.0, 1.0, 0.5, 0.6)
    with pytest.raises(InfeasibilityError, match="lower"):
        solve_component(-1.0, 1.0, 0.5, -0.6)
    inf, nan = math.inf, math.nan
    for args, name in [
        ((-1.0, inf, 0.5, 0.0), "d"),
        ((-inf, 1.0, 0.5, 0.0), "c"),
        ((nan, 1.0, 0.5, 0.0), "c"),
        ((-1.0, 1.0, nan, 0.0), "k"),
        ((-1.0, 1.0, inf, 0.0), "k"),
        ((-1.0, 1.0, 0.5, nan), "beta"),
        ((-1.0, 1.0, 0.5, -inf), "beta"),
    ]:
        with pytest.raises(ValidationError, match=f"^{name} must be finite"):
            solve_component(*args)


def test_solve_component_rejects_a_width_that_overflows():
    # d - c would be inf, which passes the saturation test width - k <= slack
    with pytest.raises(ValidationError, match="too wide"):
        solve_component(-1e308, 1e308, 1.0, 0.0)


def test_solve_component_saturated():
    bp = solve_component(0.0, 1.0, 1.0, 0.5)
    assert measures_allclose(bp.measure(), indicator(0.0, 1.0), 0.0)


def test_window_edges_give_one_block_exactly():
    # Packed inputs sit on an edge of the moment window. The closed form's
    # rounding used to leave the empty block one ulp wide (f = 0.9999999999999999
    # and e = 5.6e-16 here); the edges now return the one-block answer.
    unit = OpenSet1D.interval(0.0, 1.0)
    left = solve(indicator(0.0, 0.500000001), unit)
    assert left.blocks[0].as_tuple() == (0.0, 0.500000001, 1.0, 1.0)
    assert left.measure == indicator(0.0, 0.500000001)
    mu = indicator(1.0 - 0.9, 1.0)
    right = solve(mu, unit)
    assert right.blocks[0].as_tuple() == (0.0, 0.0, 1.0 - mu.mass, 1.0)
    assert right.measure.breaks == (1.0 - mu.mass, 1.0)
    # the first moment window of mass 0.75 on (-1, 2): k*c + k^2/2 and k*d - k^2/2
    lo, hi = -0.46875, 1.21875
    assert solve_component(-1.0, 2.0, 0.75, lo).as_tuple() == (-1.0, -0.25, 2.0, 2.0)
    assert solve_component(-1.0, 2.0, 0.75, hi).as_tuple() == (-1.0, -1.0, 1.25, 2.0)


def test_feasibility_window_always_passes_for_admissible_densities():
    rng = np.random.default_rng(22)
    for _ in range(100):
        O = random_open_set(rng, max_components=1)
        mu = random_admissible_measure(rng, O)
        (c, d) = O.components[0]
        # the first moment window of mass k on (c, d): k*c + k^2/2 and k*d - k^2/2
        k = mu.mass
        beta = first_moment_reference(mu)
        assert k * c + k * k / 2 - 1e-12 <= beta <= k * d - k * k / 2 + 1e-12
        # in hole terms: the barycentre leaves room for the holes' mass on both sides
        h, g = referee.holes(mu, c, d)
        assert c + h / 2 <= g <= d - h / 2
        solve_component(c, d, mu.mass, beta)


# -- solve -------------------------------------------------------------------


def test_solve_example_pair_endpoints():
    sol1 = solve(indicator(0.0, math.sqrt(0.75), 0.99), DOMAIN)
    assert sol1.blocks[0].e == pytest.approx(-0.896224371, abs=1e-6)
    assert sol1.blocks[0].f == pytest.approx(0.246410478, abs=1e-6)
    sol2 = solve(indicator(-0.5, 1.0, 0.99), DOMAIN)
    assert sol2.blocks[0].e == pytest.approx(-0.978373786, abs=1e-6)
    assert sol2.blocks[0].f == pytest.approx(-0.463373786, abs=1e-6)


def test_solve_saturated_input_is_fixed_point():
    mu = indicator(-1.0, 0.0)
    sol = solve(mu, DOMAIN)
    assert sol.measure == mu  # exact equality of canonical forms


def test_solve_two_components_stay_independent():
    O = OpenSet1D.of((-1.0, 0.0), (0.0, 1.0))
    mu = indicator(-0.75, -0.25) + indicator(0.25, 0.75)
    sol = solve(mu, O)
    left = solve_component(-1.0, 0.0, 0.5, first_moment_reference(indicator(-0.75, -0.25)))
    right = solve_component(0.0, 1.0, 0.5, first_moment_reference(indicator(0.25, 0.75)))
    assert sol.blocks[0].as_tuple() == pytest.approx(left.as_tuple(), abs=1e-12)
    assert sol.blocks[1].as_tuple() == pytest.approx(right.as_tuple(), abs=1e-12)


def test_solve_rejects_inadmissible_density():
    with pytest.raises(AdmissibilityError):
        solve(indicator(0.0, 0.5, 1.2), DOMAIN)


def test_solve_idempotent_on_targets():
    rng = np.random.default_rng(23)
    for _ in range(30):
        O = random_open_set(rng)
        mu = random_admissible_measure(rng, O)
        sol = solve(mu, O)
        again = solve(sol.measure, O)
        for b1, b2 in zip(sol.blocks, again.blocks):
            assert b1.as_tuple() == pytest.approx(b2.as_tuple(), abs=1e-9)


def test_solve_conserves_mass_and_moment_per_component():
    rng = np.random.default_rng(24)
    for _ in range(50):
        O = random_open_set(rng)
        mu = random_admissible_measure(rng, O)
        sol = solve(mu, O)
        for block, (k, beta) in zip(sol.blocks, sol.provenance):
            assert block.p + block.q == pytest.approx(k, abs=1e-9)
            m = block.measure()
            assert first_moment_reference(m) == pytest.approx(beta, abs=1e-9)


def test_certificate_matches_order_check_on_touching_components():
    # touching components (0 and 1, 1 and 2), a zero-mass and a saturated one
    O = OpenSet1D.of((-2.0, -1.0), (-1.0, 0.5), (0.5, 1.0), (2.0, 3.0))
    mu = indicator(-1.8, -1.2, 0.6) + indicator(-1.0, 0.2, 0.9) + indicator(2.0, 3.0)
    sol = solve(mu, O)
    assert sol.certificate == order_leq_sh_O(mu, sol.measure, O)
    assert sol.certificate.ordered and len(sol.certificate.per_component) == 4
    assert sol.blocks[2].p == 0.0 and sol.blocks[2].q == 0.0
    assert sol.blocks[3].measure() == indicator(2.0, 3.0)


@pytest.mark.parametrize("s", [0.0, 1e4, 1e5, 1e8])
def test_certificate_matches_order_check_under_translation(s):
    top = math.sqrt(0.75)
    mu = indicator(s, s + top, 0.99)
    O = OpenSet1D.interval(s - 1.0, s + 1.0)
    sol = solve(mu, O)
    assert sol.certificate.ordered
    assert sol.certificate == order_leq_sh_O(mu, sol.measure, O)


@st.composite
def measures_inside(draw, may_leak: bool = False):
    """An open set on grid points and a measure of density <= 1 inside it.

    With ``may_leak``, half the measures keep their mass outside the set.
    """
    O = draw(grid_open_sets())
    breaks = draw(grid_breaks(min_size=2))
    density = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    values = draw(st.lists(density, min_size=len(breaks) - 1, max_size=len(breaks) - 1))
    mu = make_step_measure(breaks, values)
    if may_leak and draw(st.booleans()):
        return mu, O
    return sum_measures(restrict(mu, O, tol=math.inf)), O


#: Touching components, one saturated, one empty; -0.0 meeting 0.0; and
#: components one subnormal ulp wide, where the midpoint, h/2 and the half-ulp
#: mass round: the policy's 4-ulp floor must hold in the length unit.
_EDGE_CASES = [
    (indicator(-1.0, -0.5) + indicator(-0.5, 0.5, 0.5), OpenSet1D.of((-1.0, -0.5), (-0.5, 1.0))),
    (indicator(0.0, 1.0), OpenSet1D.of((-1.0, -0.0), (0.0, 1.0), (1.0, 2.0))),
    (indicator(-1.0, -0.0, 0.5), OpenSet1D.of((-1.0, -0.0), (0.0, 1.0))),
    (zero_measure(), OpenSet1D.of((-3.0, 0.0), (0.0, 5e-324))),
    (indicator(-3.0, 0.0, 0.5), OpenSet1D.of((-3.0, -2.75), (-2.75, -5e-324), (-5e-324, 0.0))),
]


#: Block pairs at the edges of the cut: an empty component, (0, 0, 1, 1), beside
#: a massive one; a right block one ulp wide (2.2e-16 at 1.0), kept as placed;
#: touching components whose blocks merge into one cell of the target; and gaps
#: of zero width at a component end written -0.0 or 0.0 against its neighbour's.
_BLOCK_PAIR_CASES = [
    (indicator(-1.8, -1.2, 0.6), OpenSet1D.of((-2.0, -1.0), (0.0, 1.0))),
    (indicator(-1.0, -0.5) + indicator(1.0 - 1e-15, 1.0, 0.25), DOMAIN),
    (
        indicator(-1.9, -1.5, 0.5) + indicator(-0.6, 0.5, 0.9),
        OpenSet1D.of((-2.0, -1.0), (-1.0, 0.5), (0.5, 1.0)),
    ),
    (indicator(1e-300, 1.0), OpenSet1D.of((-1.0, 0.0), (-0.0, 1.0))),
    (indicator(-1.0, -1e-300) + indicator(0.0, 0.5), OpenSet1D.of((-1.0, -0.0), (0.0, 1.0))),
]


def _assert_certificate_is_the_order_check(mu, O):
    try:
        sol = solve(mu, O)
        cert = sol.certificate
    except VerificationError as exc:
        cert = exc.certificate
        sol = solve(mu, O, tol=math.inf)
    assert repr(cert) == repr(order_leq_sh_O(mu, sol.measure, O))
    # each pair's cut is the target's
    for pair, cut in zip(sol.blocks, _cuts(sol.measure, O)):
        assert repr(_pair_cut(pair)) == repr(cut)


@settings(max_examples=300, deadline=None)
@given(measures_inside())
@example(_EDGE_CASES[0])
@example(_EDGE_CASES[1])
@example(_EDGE_CASES[2])
@example(_EDGE_CASES[3])
@example(_EDGE_CASES[4])
@example(_BLOCK_PAIR_CASES[0])
@example(_BLOCK_PAIR_CASES[1])
@example(_BLOCK_PAIR_CASES[2])
@example(_BLOCK_PAIR_CASES[3])
@example(_BLOCK_PAIR_CASES[4])
def test_certificate_matches_order_check_of_the_target(case):
    # solve certifies its cuts of mu against its block pairs' cuts, which must
    # be the target's: the certificate is the order check's of the target, bit for bit
    _assert_certificate_is_the_order_check(*case)


def test_certificate_matches_order_check_on_random_multi_component_draws():
    # up to six components: some touching, some shifted so that one starts at
    # 0.0, some with a saturated component or a full block flush with one end
    rng = np.random.default_rng(34)
    for _ in range(2500):
        comps = list(random_open_set(rng, max_components=6).components)
        if rng.random() < 0.3:  # each component starts where the last one ends
            ends = [*accumulate((d - c for c, d in comps), initial=comps[0][0])]
            comps = [*zip(ends, ends[1:])]
        if rng.random() < 0.3:
            start = comps[int(rng.integers(len(comps)))][0]
            comps = [(c - start, d - start) for c, d in comps]
        O = OpenSet1D.of(*comps)
        mu = random_admissible_measure(rng, O)
        if rng.random() < 0.3:
            i, parts = int(rng.integers(len(comps))), restrict(mu, O)
            c, d = comps[i]
            w = float(rng.uniform(0.1, 0.9)) * (d - c)
            parts[i] = [indicator(c, d), indicator(c, c + w), indicator(d - w, d)][rng.integers(3)]
            mu = sum_measures(parts)
        _assert_certificate_is_the_order_check(mu, O)


def _negative_zeros(xs) -> list[float]:
    return [x for x in xs if x == 0.0 and math.copysign(1.0, x) < 0.0]


@settings(max_examples=150, deadline=None)
@given(measures_inside(), grid_measures(), grid_breaks(min_size=2))
@example(
    (indicator(-0.0, 0.5, 0.5), OpenSet1D.of((-0.0, 1.0))),
    make_step_measure([-1.0, -0.0, 0.5], [0.5, 1.0]),
    (-0.0, 1.0),
)
@example(_BLOCK_PAIR_CASES[3], indicator(-0.0, 1.0), (-1.0, -0.0))
@example(_BLOCK_PAIR_CASES[4], make_step_measure([-0.0, 1.0], [0.5]), (-0.0, 0.5))
def test_no_reported_coordinate_is_negative_zero(case, nu, ends):
    # the grids hold -0.0: every builder, the solver, the order walk and the
    # particle run report a zero coordinate as 0.0
    mu, O = case
    sol = solve(mu, O, tol=math.inf)  # the known reds' refusals aside
    coords = [
        *chain.from_iterable(O.components),
        *mu.breaks,
        *nu.breaks,
        *indicator(ends[0], ends[-1]).breaks,
        *(mu + nu).breaks,
        *chain.from_iterable(part.breaks for part in restrict(mu, O)),
        *chain.from_iterable(pair.as_tuple() for pair in sol.blocks),
        *sol.measure.breaks,
        sol.certificate.worst_point,
        dominates(mu, nu).worst_point,
        dominates(nu, mu).worst_point,
        order_leq_sh_O(mu, sol.measure, O).worst_point,
    ]
    if min(d - c for c, d in O.components) > 1e-100:  # the default dt is a normal float
        for comp in run(mu, O, SimConfig(20, hist_bins=4)).components:
            coords += [*comp.interval, comp.left_front, comp.right_front, *comp.hist_edges]
    assert _negative_zeros(coords) == []


def test_light_input_is_solved_or_refused_by_name():
    # valid input with k = 8.07e-13: solve raised VerificationError (worst gap 2.93e-11)
    mu = indicator(152.8291291561587, 224.55112085433515, 1.125309416231262e-14)
    O = OpenSet1D.interval(16.22393221576695, 261.3561094335877)
    try:
        assert solve(mu, O).certificate.ordered
    except (InfeasibilityError, AdmissibilityError):
        raise  # the input is feasible and admissible
    except ValidationError:
        pass


@st.composite
def light_blocks(draw):
    """One light block indicator(lo, hi, rho) on (c, d): ends -+10^[-3, 3], width up to 1e3."""
    c = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))
    d = c + 10.0 ** draw(st.floats(-3.0, 3.0))
    ends = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
    lo, hi = sorted(c + (d - c) * t for t in ends)
    assume(c < lo < hi < d)
    return indicator(lo, hi, 10.0 ** draw(st.floats(-16.0, -8.0))), OpenSet1D.interval(c, d)


@settings(max_examples=300, deadline=None)
@given(light_blocks())
# left blocks 1,793, 14 and 514,251 of their own ulps wide, which a floor of 4 ulps
# of the component's larger end once dropped as rounding: the mass gap then failed
@example(
    (
        indicator(136.63643295582517, 1127.069044075307, 1.94164802822987e-15),
        OpenSet1D.interval(2.626638407490304, 1163.7869495572631),
    )
)
@example(
    (
        indicator(49.031530633692775, 99.74201841196074, 2.2498138219074474e-15),
        OpenSet1D.interval(18.01562189824537, 119.7856916359793),
    )
)
@example(
    (
        indicator(339.24726738771056, 436.28307252778205, 1.3478741906998218e-14),
        OpenSet1D.interval(0.0045446815341934526, 602.7723309353878),
    )
)
def test_light_single_blocks_certify(case):
    # each block is placed by the hole form and kept however narrow, so solve
    # never fails its own certificate on a light input
    mu, O = case
    assert solve(mu, O).certificate.ordered


def _each_target_carries_its_mass(mu, O):
    try:
        sol = solve(mu, O)
    except (InfeasibilityError, AdmissibilityError):
        raise  # the input is feasible and admissible
    except ValidationError:
        return  # refused by name
    for b, (k, _) in zip(sol.blocks, sol.provenance):
        assert abs(b.p + b.q - k) <= DEFAULT_TOL * k, (b, k)


def test_wide_components_keep_their_mass():
    # 0.5 * chi(-1, 1) on (-W, 0) u (0, W): k = 0.5 per component, target (-0.5, 0), (0, 0.5)
    mu, O = indicator(-1.0, 1.0, 0.5), OpenSet1D.of((-3e15, 0.0), (0.0, 3e15))
    assert [b.as_tuple() for b in solve(mu, O).blocks] == [
        (-3e15, -3e15, -0.5, 0.0),
        (0.0, 0.5, 3e15, 3e15),
    ]


@pytest.mark.xfail(
    strict=True,
    reason="h = W - k rounds to W, so both blocks are empty, and the 4-ulp floor (8 at 1e16), "
    "read as a mass, hides the mass gap of 0.5: the certificate reads ordered",
)
def test_light_mass_on_a_wide_component_is_kept_or_refused_by_name():
    # at W = 3e15 the blocks are right; from 1e16 solve returns two empty pairs, mass 0.0
    _each_target_carries_its_mass(indicator(-1.0, 1.0, 0.5), OpenSet1D.of((-1e16, 0.0), (0.0, 1e16)))


def _result(run) -> str:
    """repr of what run returns, or of the error with its leaked mass and certificate.

    A solution is read with its target, so the target's bits and refusals are compared too.
    """
    try:
        out = run()
        return repr((out, out.measure) if isinstance(out, MaximalSolution) else out)
    except (ValueError, RuntimeError) as exc:
        extra = getattr(exc, "leaked_mass", None), getattr(exc, "certificate", None)
        return f"{type(exc).__name__}: {exc} {extra!r}"


@settings(max_examples=300, deadline=None)
@given(
    measures_inside(may_leak=True),
    st.one_of(st.none(), grid_measures()),
    st.sampled_from([1e-9, 0.1]),
)
@example(_EDGE_CASES[0], None, 1e-9)
@example(_EDGE_CASES[1], None, 1e-9)
@example(_EDGE_CASES[2], None, 1e-9)
@example(_EDGE_CASES[3], None, 1e-9)
@example(_EDGE_CASES[4], None, 1e-9)
# cells clipped at both ends of touching components; mass leaking past a clipped cell
@example(
    (indicator(-1.0, 0.5, 0.5), OpenSet1D.of((-0.75, -0.25), (-0.25, 1.0))),
    indicator(-0.5, 0.5),
    0.1,
)
@example((indicator(-1.0, 1.0, 0.5), OpenSet1D.of((-0.5, 0.5))), None, 1e-9)
def test_cuts_match_the_route_through_measures(case, nu, tol):
    # solve and order_leq_sh_O certify cuts of mu and the target; the reference
    # builds each component's part as a measure first: same bits, same errors
    mu, O = case
    if nu is None:
        try:
            nu = solve(mu, O, tol=math.inf).measure
        except (ValueError, RuntimeError):
            nu = mu
    assert _result(lambda: solve(mu, O, tol)) == _result(lambda: solve_reference(mu, O, tol))
    assert _result(lambda: order_leq_sh_O(mu, nu, O, tol)) == _result(
        lambda: order_reference(mu, nu, O, tol)
    )
    for m in (mu, nu):
        assert _result(lambda: [(p, p is m) for p in restrict(m, O, tol)]) == _result(
            lambda: [(p, p is m) for p in sliced_restrict_reference(m, O, tol)]
        )


def test_thousand_components_far_from_the_origin_certify():
    # density 0.5 / 0.8 / 0.3 on (3i + 0.2, 3i + 1.4) inside (3i, 3i + 2): the
    # walk about each component's midpoint keeps its digits up to 3,000, where
    # the difference of potentials about 0 lost them near 2,489
    breaks, values = [], []
    for i in range(1000):
        s = 3.0 * i
        values += [0.0] if breaks else []
        breaks += [s + 0.2, s + 0.6, s + 1.0, s + 1.4]
        values += [0.5, 0.8, 0.3]
    mu = make_step_measure(breaks, values)
    O = OpenSet1D.of(*[(3.0 * i, 3.0 * i + 2.0) for i in range(1000)])
    sol = solve(mu, O)
    assert sol.certificate.ordered and len(sol.certificate.per_component) == 1000


def _count_restrictions(monkeypatch, calls: list) -> None:
    """Record (measure, tol) for every restrict and _cuts that solver or potential makes."""

    def counted(fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((bound.arguments["mu"], bound.arguments["tol"]))
            return fn(*args, **kwargs)

        return wrapper

    # by module path: the package attribute `potential` is the function
    for name in ("stefan1d.solver", "stefan1d.potential"):
        module = importlib.import_module(name)
        for attr in ("restrict", "_cuts"):
            monkeypatch.setattr(module, attr, counted(getattr(module, attr)))


def test_solve_restricts_once(monkeypatch):
    # mu is cut once, with the leak check; the target is certified from its
    # block pairs, so no second cut can come back unnoticed, signed zeros included
    calls = []
    _count_restrictions(monkeypatch, calls)
    O = OpenSet1D.of((-3.0, -2.0), (-1.0, 1.0), (2.0, 3.5))
    mu = indicator(-2.8, -2.5) + indicator(-0.5, 0.5, 0.7) + indicator(2.5, 3.0)
    for mu, O in [(mu, O), *_BLOCK_PAIR_CASES[3:]]:
        calls.clear()
        solve(mu, O)
        assert [(m is mu, tol is not None) for m, tol in calls] == [(True, True)]


def _many_components(n: int = 200):
    """n components, each with 4 cells across its middle, densities in [0, 1)."""
    rng = np.random.default_rng(30)
    comps, breaks, values, left = [], [], [], -120.0
    for _ in range(n):
        c, d = left, left + float(rng.uniform(0.5, 1.5))
        comps.append((c, d))
        values += [0.0] if breaks else []
        breaks += np.linspace(c + 0.25 * (d - c), d - 0.25 * (d - c), 5).tolist()
        values += rng.uniform(0.0, 1.0, 4).tolist()
        left = d + float(rng.uniform(0.05, 0.4))
    return make_step_measure(breaks, values), OpenSet1D.of(*comps)


def test_solve_builds_one_measure_for_many_components(monkeypatch):
    # each component is certified from cuts of mu and of its block pair: only the
    # target, read once, passes the door, where the per-component parts made 2n + 1 calls
    mu, O = _many_components()
    measure = importlib.import_module("stefan1d.measure")
    calls = []
    real = measure._checked
    monkeypatch.setattr(measure, "_checked", lambda b, v: calls.append(1) or real(b, v))
    sol = solve(mu, O)
    sol.measure
    assert len(calls) == 1 and len(sol.certificate.per_component) == 200


def test_target_is_built_from_the_blocks_on_first_read(monkeypatch):
    # solve and the sweep return blocks; the target passes the door once, when first read
    mu, O = _many_components()
    blocks = random_unit_blocks(np.random.default_rng(27), -1.0, 1.0, 6)
    measure = importlib.import_module("stefan1d.measure")
    calls = []
    real = measure._checked
    monkeypatch.setattr(measure, "_checked", lambda b, v: calls.append(1) or real(b, v))
    for solve_it in (lambda: solve(mu, O), lambda: solve_by_sweep(blocks, DOMAIN)):
        calls.clear()
        sol = solve_it()
        assert calls == []
        target = sol.measure
        assert len(calls) == 1
        assert sol.measure is target and len(calls) == 1
        assert repr(target) == repr(_blocks_measure(b.as_tuple() for b in sol.blocks))


def test_target_whose_moments_overflow_is_refused_on_first_read():
    # mu passes its own checks; its target, mass 1e148 out to 1e161, does not
    mu, O = indicator(-5e147, 5e147), OpenSet1D.interval(-1e161, 1e161)
    sol = solve(mu, O)
    assert sol.certificate.ordered and len(sol.blocks) == 1
    with pytest.raises(ValidationError) as err:
        sol.measure
    assert str(err.value) == (
        "mass times coordinates (the moments' scale) overflows on (-1e+161, 1e+161)"
    )


def test_zero_mass_solution():
    sol = solve(zero_measure(), DOMAIN)
    assert sol.measure.mass == 0.0
    assert sol.blocks[0].p == 0.0 and sol.blocks[0].q == 0.0
    # the sweep has no block to merge: its answer is the whole component as gap
    assert solve_by_sweep(zero_measure(), DOMAIN).blocks[0].as_tuple() == (-1.0, -1.0, 1.0, 1.0)


# -- sweep oracle -------------------------------------------------------------


def test_sweep_single_block_matches_component_solve():
    mu = indicator(-0.3, 0.2)
    sw = solve_by_sweep(mu, DOMAIN)
    direct = solve(mu, DOMAIN)
    assert sw.blocks[0].as_tuple() == pytest.approx(
        direct.blocks[0].as_tuple(), abs=1e-12
    )


def test_sweep_symmetric_pair():
    mu = indicator(-0.6, -0.4) + indicator(0.4, 0.6)
    sw = solve_by_sweep(mu, DOMAIN)
    assert sw.blocks[0].as_tuple() == pytest.approx((-1.0, -0.8, 0.8, 1.0), abs=1e-12)


def test_sweep_asymmetric_pair_matches_solve():
    mu = indicator(-0.5, -0.3) + indicator(0.1, 0.4)
    assert mu.mass == pytest.approx(0.5, abs=1e-15)
    assert first_moment_reference(mu) == pytest.approx(-0.005, abs=1e-15)
    sw = solve_by_sweep(mu, DOMAIN)
    direct = solve(mu, DOMAIN)
    assert sw.blocks[0].as_tuple() == pytest.approx(
        direct.blocks[0].as_tuple(), abs=1e-9
    )


def test_sweep_rejects_overlapping_blocks():
    mu = indicator(-0.5, 0.0) + indicator(-0.2, 0.3)  # overlap has density 2
    with pytest.raises(ValidationError, match="unit"):
        solve_by_sweep(mu, DOMAIN)


@pytest.mark.parametrize(
    "mu, open_set, says",
    [
        (indicator(-0.5, 0.0), OpenSet1D.of((-1.0, 0.0), (0.0, 1.0)), "single-interval"),
        (indicator(-1.0, -0.5), DOMAIN, "strictly inside"),
        (indicator(0.5, 1.0), DOMAIN, "strictly inside"),
    ],
    ids=["two-components", "touching-left", "touching-right"],
)
def test_sweep_rejects_domains_it_does_not_merge_in(mu, open_set, says):
    with pytest.raises(ValidationError, match=says):
        solve_by_sweep(mu, open_set)


def test_sweep_oracle_equivalence_random():
    rng = np.random.default_rng(25)
    for trial in range(61):
        nb = int(rng.integers(1, 6)) if trial < 60 else 300
        mu = random_unit_blocks(rng, -1.0, 1.0, nb)
        sw = solve_by_sweep(mu, DOMAIN)
        direct = solve(mu, DOMAIN)
        assert sw.blocks[0].as_tuple() == pytest.approx(
            direct.blocks[0].as_tuple(), abs=1e-8
        )


def _outcome(run) -> str:
    try:
        out = run()
        return repr((out, out.measure) if isinstance(out, MaximalSolution) else out)
    except ValidationError as exc:
        return f"{type(exc).__name__}: {exc}"


def _sweep_solution_reference(mu: StepMeasure) -> MaximalSolution:
    block, _ = sweep_reference(mu, DOMAIN)
    c, d = DOMAIN.components[0]
    beta = mu.mass * (0.5 * (c + d)) + holes_reference(mu.breaks, mu.values, c, d)[2]
    return MaximalSolution((block,), ((mu.mass, beta),), certificate=None)


@settings(max_examples=100, deadline=None)
@given(unit_block_measures())
def test_sweep_matches_reference(mu):
    assert _outcome(lambda: solve_by_sweep(mu, DOMAIN)) == _outcome(
        lambda: _sweep_solution_reference(mu)
    )
    assert _outcome(lambda: sweep_states(mu, DOMAIN)) == _outcome(
        lambda: sweep_reference(mu, DOMAIN)[1]
    )


def test_sweep_builds_only_the_target(monkeypatch):
    measure = importlib.import_module("stefan1d.measure")
    mu = random_unit_blocks(np.random.default_rng(27), -1.0, 1.0, 6)
    calls = []
    real = measure._checked
    monkeypatch.setattr(measure, "_checked", lambda b, v: calls.append(1) or real(b, v))
    solve_by_sweep(mu, DOMAIN).measure
    assert len(calls) == 1


def _count_block_pairs(monkeypatch) -> list:
    calls = []
    real = BlockPair.__post_init__
    monkeypatch.setattr(BlockPair, "__post_init__", lambda self: calls.append(1) or real(self))
    return calls


@pytest.mark.parametrize("n", range(1, 7))
def test_sweep_builds_one_block_pair(monkeypatch, n):
    # the merges carry floats: only the pair returned is built
    mu = random_unit_blocks(np.random.default_rng(27), -1.0, 1.0, n)
    calls = _count_block_pairs(monkeypatch)
    sol = solve_by_sweep(mu, DOMAIN)
    assert len(calls) == 1 and len(sol.blocks) == 1
    calls.clear()
    assert len(sweep_states(mu, DOMAIN)) == n - 1
    assert len(calls) == 1  # _sweep's final pair, which sweep_states discards


def test_solve_builds_one_block_pair_per_component(monkeypatch):
    mu, O = _many_components()
    calls = _count_block_pairs(monkeypatch)
    sol = solve(mu, O)
    assert len(calls) == len(sol.blocks) == 200


def test_sweep_states_are_admissible_waypoints():
    rng = np.random.default_rng(26)
    mu = random_unit_blocks(rng, -1.0, 1.0, 4)
    states = sweep_states(mu, DOMAIN)
    assert len(states) == 3
    for s in states:
        assert s.mass == pytest.approx(mu.mass, abs=1e-12)
        assert first_moment_reference(s) == pytest.approx(first_moment_reference(mu), abs=1e-12)
        assert check_admissible(s, mu, DOMAIN).ordered


# -- stationary point ----------------------------------------------------------


def test_critical_point_symmetric():
    assert critical_point(0.5, 0.0) == 0.0


def test_critical_point_formula_value():
    assert critical_point(0.8, 0.2) == pytest.approx(1.0 / 12.0, abs=1e-14)


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-3, 2.0 - 1e-3), st.floats(-(1.0 - 1e-6), 1.0 - 1e-6))
@example(1.0, 0.0)
@example(0.5, 0.75)
def test_critical_point_matches_the_closed_form(k, t):
    # beta at the fraction t of the half window; nearer its edges see the next test
    beta = t * (k - 0.5 * k * k)
    assert abs(critical_point(k, beta) - 2.0 * beta * (1.0 - k) / (k * (2.0 - k))) <= 1e-10


def test_critical_point_at_the_window_edge_is_the_closed_form_or_refused():
    # |beta| within 1e-17 to 1e-12 (relative) of the edge k - k^2/2: the target
    # may equal the source up to rounding, and then s0 is not unique
    rng = np.random.default_rng(26)
    answered = refused = 0
    for _ in range(5000):
        k = rng.uniform(0.05, 1.95)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        beta = sign * (k - 0.5 * k * k) * (1.0 - 10.0 ** rng.uniform(-17, -12))
        try:
            s0 = critical_point(k, beta)
        except InfeasibilityError:
            refused += 1
            continue
        assert abs(s0 - 2.0 * beta * (1.0 - k) / (k * (2.0 - k))) <= 1e-10, (k, beta)
        answered += 1
    assert answered and refused


def test_critical_point_rejects_outside_window():
    with pytest.raises(InfeasibilityError):
        critical_point(0.5, 0.5)
    with pytest.raises(InfeasibilityError):
        critical_point(2.0, 0.0)


@pytest.mark.parametrize("k, beta", [(1e-17, 4e-18), (5e-324, 0.0)])
def test_critical_point_refuses_a_point_sized_source_by_name(k, beta):
    # inside the window, but the source's ends beta/k -+ k/2 round together:
    # refused as infeasible, naming k and beta
    with pytest.raises(InfeasibilityError, match="rounds to a point") as exc:
        critical_point(k, beta)
    assert repr(k) in str(exc.value) and repr(beta) in str(exc.value)


def test_critical_point_is_argmin_by_dense_scan():
    rng = np.random.default_rng(27)
    for _ in range(5):
        k = rng.uniform(0.2, 1.6)
        half = k - 0.5 * k * k
        beta = rng.uniform(-0.9 * half, 0.9 * half)
        s0 = critical_point(k, beta)
        source = indicator(beta / k - k / 2.0, beta / k + k / 2.0)
        target = solve_component(-1.0, 1.0, k, beta).measure()
        diff = potential(target) - potential(source)
        ys = np.linspace(-1.0, 1.0, 200001)
        vals = np.array([diff(y) for y in ys])
        assert abs(ys[vals.argmin()] - s0) <= 1e-4  # grid resolution bound
        assert vals.max() <= 1e-10


# -- objectives ------------------------------------------------------------------


def test_linear_cost_gives_first_moment():
    mu = indicator(-0.25, 0.25)
    grid = ConcaveGrid.from_function(lambda x: x, -1.0, 1.0, 501)
    sol = solve(mu, DOMAIN)
    for nu in (mu, sol.measure):
        assert primal_objective(nu, grid) == pytest.approx(
            first_moment_reference(nu), abs=1e-10
        )


def test_concave_cost_prefers_target():
    mu = indicator(-0.25, 0.25)
    sol = solve(mu, DOMAIN)
    grid = ConcaveGrid.from_function(lambda x: -x * x, -1.0, 1.0, 2001)
    assert primal_objective(sol.measure, grid) < primal_objective(mu, grid)


@pytest.mark.parametrize("n", [0, 1])
def test_cost_grid_needs_two_samples(n):
    with pytest.raises(ValidationError, match="at least two samples"):
        ConcaveGrid.from_function(lambda x: -x * x, -1.0, 1.0, n)


def test_non_concave_cost_rejected():
    with pytest.raises(ValidationError, match="concave"):
        ConcaveGrid.from_function(lambda x: x * x, -1.0, 1.0, 101)


@pytest.mark.parametrize(
    "xs, ys",
    [
        ((-1.0, 0.0, 1.0), (0.0, math.nan, 0.0)),
        ((-1.0, 0.0, 1.0), (0.0, math.inf, 0.0)),
        ((-1.0, 0.0, 1.0), (-math.inf, 0.0, 0.0)),
        ((-1.0, math.nan, 1.0), (0.0, 0.0, 0.0)),
        ((-1.0, 0.0, math.inf), (0.0, 0.0, 0.0)),
    ],
)
def test_non_finite_cost_samples_rejected(xs, ys):
    with pytest.raises(ValidationError, match="finite"):
        ConcaveGrid(xs, ys)


def test_cost_grid_admits_only_the_policys_rounding_floor_beyond_its_ends():
    # 1e-12 of absolute slack once let a grid 1e-13 wide extrapolate to 5e-13
    # and integrate over 9 times its width
    grid = ConcaveGrid.from_function(lambda x: -x * x, 0.0, 1e-13, 11)
    with pytest.raises(ValidationError, match="outside the cost grid"):
        grid(5e-13)
    with pytest.raises(ValidationError, match="leaves the cost grid"):
        primal_objective(indicator(0.0, 9e-13), grid)
    assert grid(1e-13) == grid.ys[-1]
    # an end rounded by an ulp still sits on the grid
    wide = ConcaveGrid.from_function(lambda x: -x * x, -1.0, 1.0, 11)
    assert wide(math.nextafter(1.0, 2.0)) == pytest.approx(-1.0)
    assert primal_objective(indicator(-1.0, math.nextafter(1.0, 2.0)), wide) < 0.0


def test_independence_check_argmin_is_target():
    rng = np.random.default_rng(28)
    mu = random_unit_blocks(rng, -1.0, 1.0, 3)
    states = sweep_states(mu, DOMAIN)
    sol = solve(mu, DOMAIN)
    candidates = [mu] + states[:2] + [sol.measure]
    costs = [
        ConcaveGrid.from_function(f, -1.0, 1.0, 2001)
        for f in (lambda x: -x * x, lambda x: -x ** 4, lambda x: -math.cosh(x))
    ]
    report = independence_check(mu, DOMAIN, candidates, costs)
    assert report.ok
    assert all(report.argmin_is_maximal)


def test_independence_check_rejects_inadmissible_candidate():
    mu = indicator(-0.25, 0.25)
    bad = indicator(0.0, 0.5, 1.5)
    costs = [ConcaveGrid.from_function(lambda x: -x * x, -1.0, 1.0, 501)]
    report = independence_check(mu, DOMAIN, [bad, solve(mu, DOMAIN).measure], costs)
    assert not report.candidates[0].admissible
    assert report.candidates[0].certificate is None
    assert all(map(math.isnan, report.candidates[0].objectives))
    # with no admissible competitor there is no argmin, and nothing to refute
    report = independence_check(mu, DOMAIN, [bad], costs)
    assert report.argmin_indices == (-1,) and report.argmin_is_maximal == (True,)
    assert report.ok


def test_independence_check_fails_a_non_maximal_target(monkeypatch):
    # a solver that returns its input: the true target beats it on the
    # concave cost and is not the claimed target, so the check fails
    import dataclasses

    from stefan1d import solver

    mu = indicator(-0.25, 0.25)
    target = solve(mu, DOMAIN).measure
    # the target is its blocks: one pair with no gap, (c, e) = mu's support, is mu
    monkeypatch.setattr(
        solver,
        "solve",
        lambda m, o: dataclasses.replace(solve(m, o), blocks=(BlockPair(-0.25, 0.25, 0.25, 0.25),)),
    )
    costs = [ConcaveGrid.from_function(lambda x: -x * x, -1.0, 1.0, 501)]
    report = independence_check(mu, DOMAIN, [target], costs)
    assert report.argmin_indices == (0,) and report.argmin_is_maximal == (False,)
    assert not report.ok


# -- admissibility checks ----------------------------------------------------------


def test_check_admissible_examples():
    mu = indicator(-0.25, 0.25)
    sol = solve(mu, DOMAIN)
    assert check_admissible(sol.measure, mu, DOMAIN).ordered
    assert check_admissible(mu, mu, DOMAIN).ordered
    with pytest.raises(AdmissibilityError, match="density 1.5 exceeds"):
        check_admissible(indicator(0.0, 0.5, 1.5), mu, DOMAIN)


# Two components with a gap (0, 0.5) between them; each "_OUT" measure puts mass
# in the gap: 0.25 of mu's, 0.2 of nu's.
ADM_O = OpenSet1D.of((-1.0, 0.0), (0.5, 1.5))
ADM_MU = indicator(-0.8, -0.2, 0.5) + indicator(0.7, 1.2, 0.5)
ADM_MU_OUT = indicator(-0.8, 0.75, 0.5)
ADM_NU_OUT = indicator(-0.5, 0.8, 0.4)


def test_check_admissible_refuses_a_too_dense_nu_before_either_support(monkeypatch):
    calls = []
    _count_restrictions(monkeypatch, calls)
    with pytest.raises(AdmissibilityError, match="density 1.5 exceeds the admissible bound 1"):
        check_admissible(indicator(-0.5, 0.8, 1.5), ADM_MU_OUT, ADM_O)
    assert calls == []


@pytest.mark.parametrize(
    "nu, mu, leaked",
    [(ADM_NU_OUT, ADM_MU, 0.2), (ADM_NU_OUT, ADM_MU_OUT, 0.25)],
    ids=["nu-outside", "both-outside"],
)
def test_check_admissible_refuses_mass_outside_the_set(nu, mu, leaked):
    with pytest.raises(SupportError) as err:
        check_admissible(nu, mu, ADM_O)
    assert str(err.value) == f"measure carries mass {leaked} outside the open set"
    assert err.value.leaked_mass == pytest.approx(leaked, abs=1e-15)


def test_check_admissible_raises_for_mu_outside():
    nu = solve(ADM_MU, ADM_O).measure
    with pytest.raises(SupportError) as err:
        check_admissible(nu, ADM_MU_OUT, ADM_O)
    assert str(err.value) == "measure carries mass 0.25 outside the open set"
    assert err.value.leaked_mass == 0.25


def test_check_admissible_is_the_order_check_on_admissible_targets():
    # the definition: a density at most 1 + tol, then order_leq_sh_O, bit for bit
    rng = np.random.default_rng(33)
    for _ in range(40):
        open_set = random_open_set(rng)
        mu = random_admissible_measure(rng, open_set)
        drawn = random_admissible_measure(rng, open_set)
        # up to the tolerance above 1 is admissible too
        dense = make_step_measure(drawn.breaks, [v * (1.0 + 5e-10) for v in drawn.values])
        for nu in (drawn, dense, solve(mu, open_set).measure):
            assert check_admissible(nu, mu, open_set) == order_leq_sh_O(mu, nu, open_set)


def test_check_admissible_restricts_nu_once(monkeypatch):
    nu = solve(ADM_MU, ADM_O).measure
    calls = []
    _count_restrictions(monkeypatch, calls)
    assert check_admissible(nu, ADM_MU, ADM_O).ordered
    assert sum(m is nu for m, _ in calls) == 1


def test_maximality_among_admissible_candidates():
    rng = np.random.default_rng(29)
    for _ in range(10):
        mu = random_unit_blocks(rng, -1.0, 1.0, 3)
        sol = solve(mu, DOMAIN)
        for cand in [mu] + sweep_states(mu, DOMAIN):
            # every admissible candidate precedes the target, never conversely
            assert dominates(cand, sol.measure).ordered
            assert (
                measures_allclose(cand, sol.measure, 1e-9)
                or not dominates(sol.measure, cand).ordered
            )


# -- answers that do not depend on coordinates -------------------------------------
# Both failed while the first moment was taken about 0 and the tolerance was
# absolute; they pass with the hole form, taken about each component's midpoint,
# and gaps held to bounds scaled to the dimension of each quantity.


@pytest.mark.parametrize("s", [1e5, 1e8])
def test_solve_is_translation_equivariant(s):
    top = math.sqrt(0.75)
    at_origin = solve(indicator(0.0, top, 0.99), DOMAIN).blocks[0]
    moved = solve(indicator(s, s + top, 0.99), OpenSet1D.interval(s - 1.0, s + 1.0))
    assert moved.certificate.ordered
    for got, want in zip(moved.blocks[0].as_tuple(), at_origin.as_tuple()):
        assert got == pytest.approx(want + s, rel=1e-12, abs=1e-12)


def test_check_admissible_rejects_unreachable_target_at_small_scale():
    L = 1e-4
    # the same pair at L = 1 is rejected with worst gap 0.031
    cert = check_admissible(
        indicator(-L / 4, L / 4), indicator(-L / 2, L / 2, 0.5), OpenSet1D.interval(-L, L)
    )
    assert not cert.ordered
