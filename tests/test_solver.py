import importlib
import math

import numpy as np
import pytest

from stefan1d import (
    AdmissibilityError,
    ConcaveGrid,
    InfeasibilityError,
    MaximalSolution,
    OpenSet1D,
    OrderCertificate,
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
    solve,
    solve_by_sweep,
    solve_component,
    sweep_states,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import referee
from helpers import (
    grid_breaks,
    grid_open_sets,
    random_admissible_measure,
    random_open_set,
    random_unit_blocks,
    sum_measures,
    sweep_reference,
    unit_block_measures,
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
    assert target.first_moment == pytest.approx(-0.125, abs=1e-12)


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
        assert k * c + k * k / 2 - 1e-12 <= mu.first_moment <= k * d - k * k / 2 + 1e-12
        # in hole terms: the barycentre leaves room for the holes' mass on both sides
        h, g = referee.holes(mu, c, d)
        assert c + h / 2 <= g <= d - h / 2
        solve_component(c, d, mu.mass, mu.first_moment)


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
    left = solve_component(-1.0, 0.0, 0.5, indicator(-0.75, -0.25).first_moment)
    right = solve_component(0.0, 1.0, 0.5, indicator(0.25, 0.75).first_moment)
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
            assert m.first_moment == pytest.approx(beta, abs=1e-9)


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
def measures_inside(draw):
    """An open set on grid points and a measure of density <= 1 inside it."""
    O = draw(grid_open_sets())
    breaks = draw(grid_breaks(min_size=2))
    density = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    values = draw(st.lists(density, min_size=len(breaks) - 1, max_size=len(breaks) - 1))
    return sum_measures(restrict(make_step_measure(breaks, values), O, tol=math.inf)), O


@settings(max_examples=300, deadline=None)
@given(measures_inside())
# touching components, one saturated, one empty; -0.0 meeting 0.0
@example((indicator(-1.0, -0.5) + indicator(-0.5, 0.5, 0.5), OpenSet1D.of((-1.0, -0.5), (-0.5, 1.0))))
@example((indicator(0.0, 1.0), OpenSet1D.of((-1.0, -0.0), (0.0, 1.0), (1.0, 2.0))))
@example((indicator(-1.0, -0.0, 0.5), OpenSet1D.of((-1.0, -0.0), (0.0, 1.0))))
def test_certificate_matches_order_check_of_the_target(case):
    # solve certifies its parts against the slices of the target it returns:
    # the certificate must be the order check's of that target, bit for bit
    mu, O = case
    try:
        sol = solve(mu, O)
        cert, target = sol.certificate, sol.measure
    except VerificationError as exc:
        cert = exc.certificate
        target = solve(mu, O, tol=math.inf).measure
    assert repr(cert) == repr(order_leq_sh_O(mu, target, O))


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


def test_solve_restricts_once(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)

        return wrapper

    # by module path: the package attribute `potential` is the function
    for name in ("stefan1d.solver", "stefan1d.potential"):
        module = importlib.import_module(name)
        monkeypatch.setattr(module, "restrict", counted(module.restrict))
    O = OpenSet1D.of((-3.0, -2.0), (-1.0, 1.0), (2.0, 3.5))
    solve(indicator(-2.8, -2.5) + indicator(-0.5, 0.5, 0.7) + indicator(2.5, 3.0), O)
    assert len(calls) == 1


def test_zero_mass_solution():
    from stefan1d import zero_measure

    sol = solve(zero_measure(), DOMAIN)
    assert sol.measure.mass == 0.0
    assert sol.blocks[0].p == 0.0 and sol.blocks[0].q == 0.0


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
    assert mu.first_moment == pytest.approx(-0.005, abs=1e-15)
    sw = solve_by_sweep(mu, DOMAIN)
    direct = solve(mu, DOMAIN)
    assert sw.blocks[0].as_tuple() == pytest.approx(
        direct.blocks[0].as_tuple(), abs=1e-9
    )


def test_sweep_rejects_overlapping_blocks():
    mu = indicator(-0.5, 0.0) + indicator(-0.2, 0.3)  # overlap has density 2
    with pytest.raises(ValidationError, match="unit"):
        solve_by_sweep(mu, DOMAIN)


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
        return repr(run())
    except (ValidationError, InfeasibilityError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _sweep_solution_reference(mu: StepMeasure) -> MaximalSolution:
    block, _ = sweep_reference(mu, DOMAIN)
    return MaximalSolution(
        (block,), block.measure(), ((mu.mass, mu.first_moment),), certificate=None
    )


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
    solver = importlib.import_module("stefan1d.solver")
    mu = random_unit_blocks(np.random.default_rng(27), -1.0, 1.0, 6)
    calls = []
    real = solver._from_cells
    monkeypatch.setattr(solver, "_from_cells", lambda cells: calls.append(1) or real(cells))
    solve_by_sweep(mu, DOMAIN)
    assert len(calls) == 1


def test_sweep_states_are_admissible_waypoints():
    rng = np.random.default_rng(26)
    mu = random_unit_blocks(rng, -1.0, 1.0, 4)
    states = sweep_states(mu, DOMAIN)
    assert len(states) == 3
    for s in states:
        assert s.mass == pytest.approx(mu.mass, abs=1e-12)
        assert s.first_moment == pytest.approx(mu.first_moment, abs=1e-12)
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
    # beta at the fraction t of the half window. Nearer its edges, or k nearer
    # 0 or 2, the zero of F can rest on rounding dust, and critical_point
    # raises VerificationError there instead
    beta = t * (k - 0.5 * k * k)
    assert abs(critical_point(k, beta) - 2.0 * beta * (1.0 - k) / (k * (2.0 - k))) <= 1e-10


def test_critical_point_rejects_outside_window():
    with pytest.raises(InfeasibilityError):
        critical_point(0.5, 0.5)
    with pytest.raises(InfeasibilityError):
        critical_point(2.0, 0.0)


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
            nu.first_moment, abs=1e-10
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
    assert "density" in report.candidates[0].certificate.note


# -- admissibility checks ----------------------------------------------------------


def test_check_admissible_examples():
    mu = indicator(-0.25, 0.25)
    sol = solve(mu, DOMAIN)
    assert check_admissible(sol.measure, mu, DOMAIN).ordered
    assert check_admissible(mu, mu, DOMAIN).ordered
    cert = check_admissible(indicator(0.0, 0.5, 1.5), mu, DOMAIN)
    assert not cert.ordered and "density" in cert.note


# Two components with a gap (0, 0.5) between them; each "_OUT" measure puts mass
# in the gap. Expected certificates and errors are those of the version that
# restricted nu before calling order_leq_sh_O.
ADM_O = OpenSet1D.of((-1.0, 0.0), (0.5, 1.5))
ADM_MU = indicator(-0.8, -0.2, 0.5) + indicator(0.7, 1.2, 0.5)
ADM_MU_OUT = indicator(-0.8, 0.75, 0.5)
ADM_NU_OUT = indicator(-0.5, 0.8, 0.4)
NU_OUTSIDE = OrderCertificate(
    False, 0.0, 0.0, 0.0, math.inf,
    note="support violation: measure carries mass 0.2 outside the open set",
)


@pytest.mark.parametrize(
    "nu, mu, expected",
    [
        (ADM_NU_OUT, ADM_MU, NU_OUTSIDE),
        (ADM_NU_OUT, ADM_MU_OUT, NU_OUTSIDE),
        # the density bound is checked before either support
        (
            indicator(-0.5, 0.8, 1.5),
            ADM_MU_OUT,
            OrderCertificate(
                False, 0.0, 0.0, 0.15000000000000002, 0.5,
                note="density 1.5 exceeds the unit bound",
            ),
        ),
    ],
    ids=["nu-outside", "both-outside", "nu-too-dense"],
)
def test_check_admissible_failed_certificates(nu, mu, expected):
    assert check_admissible(nu, mu, ADM_O) == expected


def test_check_admissible_raises_for_mu_outside():
    nu = solve(ADM_MU, ADM_O).measure
    with pytest.raises(SupportError) as err:
        check_admissible(nu, ADM_MU_OUT, ADM_O)
    assert str(err.value) == "measure carries mass 0.25 outside the open set"
    assert err.value.leaked_mass == 0.25


def test_check_admissible_restricts_nu_once(monkeypatch):
    nu = solve(ADM_MU, ADM_O).measure
    seen = []

    def counted(fn):
        def wrapper(measure, *args, **kwargs):
            seen.append(measure)
            return fn(measure, *args, **kwargs)

        return wrapper

    for name in ("stefan1d.solver", "stefan1d.potential"):
        module = importlib.import_module(name)
        monkeypatch.setattr(module, "restrict", counted(module.restrict))
    assert check_admissible(nu, ADM_MU, ADM_O).ordered
    assert sum(m is nu for m in seen) == 1


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
