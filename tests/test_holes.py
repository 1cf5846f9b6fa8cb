"""The hole form of the solver against the exact referee.

On a component (c, d) the target's gap is (g - h/2, g + h/2), h and g the
mass and barycentre of the input's holes (1 - mu)^+. ``referee`` computes
both in rational arithmetic; the solver's endpoints must sit within a few
ulps of max(|c|, |d|) of the exact ones, wherever the component lies, however
wide it is and however close to saturation, and the certificate's verdict
must be the referee's under the tolerance policy. The same pass sums the
input's moment about the midpoint, so the reported beta is within 1e-15 of
k max(|c|, |d|) of the exact first moment, light or far from 0.
"""

import json
import math
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

import referee
from helpers import holes_reference
from stefan1d import (
    DEFAULT_TOL,
    AdmissibilityError,
    InfeasibilityError,
    OpenSet1D,
    StepMeasure,
    ValidationError,
    dominates,
    indicator,
    make_step_measure,
    order_leq_sh_O,
    solve,
    solve_by_sweep,
)
from stefan1d.cli import main
from stefan1d.solver import BlockPair, _gap, _holes

#: Endpoint error allowed against the exact gap, in ulps of max(|c|, |d|).
ULPS = 8


def _endpoint_errors(blocks, mu: StepMeasure, c: float, d: float) -> list[Fraction]:
    e, f = referee.gap(mu, c, d)
    ulp = Fraction(math.ulp(max(abs(c), abs(d))))
    return [abs(Fraction(blocks.e) - e) / ulp, abs(Fraction(blocks.f) - f) / ulp]


def _check_solve(mu: StepMeasure, c: float, d: float) -> None:
    sol = solve(mu, OpenSet1D.interval(c, d))
    assert max(_endpoint_errors(sol.blocks[0], mu, c, d)) <= ULPS
    assert sol.certificate.ordered == referee.ordered(mu, sol.measure, c, d, DEFAULT_TOL)


def _component(draw) -> tuple[float, float]:
    """(s, s + W), s in [-1e8, 1e8] and W in [1e-6, 1e6], log-uniform."""
    s = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 8.0))
    c, d = s, s + 10.0 ** draw(st.floats(-6.0, 6.0))
    # breaks must be distinct floats: keep a thousand ulps per component
    assume(d - c > 1e3 * math.ulp(max(abs(c), abs(d))))
    return c, d


@st.composite
def components(draw):
    """An input on (s, s + W) as in _component, whose hole mass is about ratio * W.

    ratio in [1e-12, 1], log-uniform; the ends may be left uncovered.
    """
    c, d = _component(draw)
    ratio = 10.0 ** draw(st.floats(-12.0, 0.0))
    lo = c + 0.01 * (d - c) if draw(st.booleans()) else c  # an uncovered left end
    hi = d - 0.01 * (d - c) if draw(st.booleans()) else d  # and right end
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=6))
    breaks = sorted({lo, hi, *(x for x in (lo + (hi - lo) * t for t in inner) if lo < x < hi)})
    holes = draw(st.lists(st.floats(0.0, 1.0), min_size=len(breaks) - 1, max_size=len(breaks) - 1))
    return make_step_measure(breaks, [1.0 - ratio * u for u in holes]), c, d


#: Two unit blocks whose holes, 7.7e-14 in all, are about 1e-12 of the width.
_NEAR_SATURATION = (
    make_step_measure(
        [-0.04612977545791512, -0.018404631276007034, -0.018404631275991266, 0.022658282062356913],
        [1.0, 0.0, 1.0],
    ),
    -0.04612977545796382,
    0.022658282062369334,
)


@settings(max_examples=300, deadline=None)
@given(components())
@example((make_step_measure([-1.0, 1.0], [1.0]), -1.0, 1.0))
@example((make_step_measure([-0.5, 0.5], [1.0 - 1e-12]), -1.0, 1.0))
@example(_NEAR_SATURATION)
def test_blocks_match_the_exact_gap(case):
    _check_solve(*case)


@st.composite
def unit_blocks(draw):
    """1 to 6 unit blocks strictly inside (s, s + W) as in _component.

    Holes and blocks alternate, within a factor 100 of each other, and the
    holes then shrink by a ratio log-uniform down to 1e-14, or to where a hole
    would span only ~100 ulps: the sweep carries each merge's hole mass, so it
    stays near the exact gap at saturation too.
    """
    c, d = _component(draw)
    n = draw(st.integers(1, 6))
    parts = draw(st.lists(st.floats(0.01, 1.0), min_size=2 * n + 1, max_size=2 * n + 1))
    floor = math.log10(1e5 * math.ulp(max(abs(c), abs(d))) / (d - c))
    ratio = 10.0 ** draw(st.floats(min(max(floor, -14.0), 0.0), 0.0))
    parts = [x * ratio if i % 2 == 0 else x for i, x in enumerate(parts)]
    edges = [c + (d - c) * (x / sum(parts)) for x in accumulate(parts[:-1])]
    assume(c < edges[0] and all(map(float.__lt__, edges, edges[1:])) and edges[-1] < d)
    return make_step_measure(edges, [1.0 - i % 2 for i in range(2 * n - 1)]), c, d


#: Four unit blocks 1e8 from the origin: merged through first moments about 0,
#: they raised InfeasibilityError.
_FAR_BLOCKS = [1e8 + t for t in (0.2, 0.5, 0.7, 0.9, 1.3, 1.6, 2.0, 2.4)]


@settings(max_examples=200, deadline=None)
@given(unit_blocks())
@example((make_step_measure(_FAR_BLOCKS, [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]), 1e8, 1e8 + 3.0))
def test_sweep_matches_the_exact_gap(case):
    mu, c, d = case
    sweep = solve_by_sweep(mu, OpenSet1D.interval(c, d))
    assert max(_endpoint_errors(sweep.blocks[0], mu, c, d)) <= ULPS


def test_sweep_matches_the_exact_gap_near_saturation():
    # each merge used to round the carried block's ends to floats, so the error
    # grew like ulp * W / h: these gap ends sat 6.5e10 ulps from the exact ones
    mu, c, d = _NEAR_SATURATION
    sweep = solve_by_sweep(mu, OpenSet1D.interval(c, d))
    assert max(_endpoint_errors(sweep.blocks[0], mu, c, d)) <= ULPS


def _scaled(s: float, unit: float):
    """Densities 0.5, 0.8, 0.3 on (s + 0.2u, s + 1.4u) inside (s, s + 2u)."""
    breaks = [s + unit * t for t in (0.2, 0.6, 1.0, 1.4)]
    return make_step_measure(breaks, [0.5, 0.8, 0.3]), s, s + 2.0 * unit


@pytest.mark.parametrize(
    "s, unit",
    [(1e160, 1e147), (0.0, 1e-300), (1e-300, 1e-300)],
    ids=["1e160", "1e-300", "1e-300-translated"],
)
def test_blocks_match_the_exact_gap_at_extreme_positions_and_scales(s, unit):
    # the moments about 0 overflow at 1e160 and the products of positions
    # underflow at 1e-300; the hole pass works about the midpoint in units of
    # a power of two near the width, so neither happens
    _check_solve(*_scaled(s, unit))


def test_potentials_at_1e200_are_rejected_but_the_hole_pass_still_places_the_gap():
    # breaks that floats can tell apart near 1e200 are ~1e185 apart, so mass
    # times length, the scale of every potential, exceeds the float range:
    # the input is refused with the overflow named, before any certificate
    s, unit = 1e200, 1e187
    breaks = (s + 0.2 * unit, s + 0.6 * unit, s + unit, s + 1.4 * unit)
    with pytest.raises(ValidationError, match="overflows"):
        make_step_measure(breaks, [0.5, 0.8, 0.3])
    mu, c, d = StepMeasure(breaks, (0.5, 0.8, 0.3)), s, s + 2.0 * unit
    blocks = BlockPair(c, *_gap(c, d, *_holes(mu.breaks, mu.values, c, d)[:2]), d)
    assert max(_endpoint_errors(blocks, mu, c, d)) <= ULPS


@st.composite
def gap_inputs(draw):
    """(c, d, h, off): c < d from a few ulps wide to near the float range, h in [0, d - c].

    off reaches slightly beyond the fitting range -+(d - c - h)/2, so the clamp runs.
    """
    c = draw(st.floats(-1e300, 1e300) | st.sampled_from([-1e300, -1.0, 0.0, 1.0, 1e300]))
    if draw(st.booleans()):
        d = c
        for _ in range(draw(st.integers(1, 8))):
            d = math.nextafter(d, math.inf)
    else:
        d = max(c + 10.0 ** draw(st.floats(-300.0, 300.0)), math.nextafter(c, math.inf))
    width = d - c
    h = min(width * draw(st.floats(0.0, 1.0)), width)
    ulps = draw(st.integers(-4, 4)) * math.ulp(max(abs(c), abs(d)))
    return c, d, h, 0.5 * (width - h) * draw(st.floats(-1.1, 1.1)) + ulps


@settings(max_examples=500, deadline=None)
@given(gap_inputs())
@example((0.0, 1.0, 0.5, 0.3))  # f lands past d and is clamped
@example((-1e300, math.nextafter(-1e300, 0.0), 0.0, -2.0 * math.ulp(1e300)))
@example((1e300, 1e300 + 3 * math.ulp(1e300), 2 * math.ulp(1e300), math.ulp(1e300)))
def test_gap_ends_are_floats_in_order(case):
    # the sweep's intermediate merges are never built as BlockPairs: _gap's own
    # clamp is what keeps c <= e <= f <= d
    c, d, h, off = case
    ends = _gap(c, d, h, off)
    assert len(ends) == 2 and all(type(x) is float for x in ends)
    assert c <= ends[0] <= ends[1] <= d


@st.composite
def hole_cuts(draw):
    """(breaks, values, c, d): sorted breaks in [c, d], densities at, below and above 1."""
    c, d = _component(draw)
    ts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)))
    breaks = [min(max(c + (d - c) * t, c), d) for t in ts]
    near_one = st.sampled_from([0.0, 1.0, 1.0 + 0.5 * DEFAULT_TOL, 1.0 - 1e-12])
    densities = near_one | st.floats(0.0, 1.5)
    values = draw(st.lists(densities, min_size=len(ts) - 1, max_size=len(ts) - 1))
    return breaks, values, c, d


@settings(max_examples=300, deadline=None)
@given(hole_cuts())
@example(([-0.5, 0.0, 0.5], [1.0, 1.0 + 0.5 * DEFAULT_TOL], -1.0, 1.0))
@example(([0.0, 5e-324, 0.5], [0.75, 0.5], 0.0, 1.0))  # a subnormal-width cell
@example(([1e160 + 2e146, 1e160 + 1.4e147], [0.5], 1e160, 1e160 + 2e147))
@example(([-0.0, 0.5], [0.5], -0.0, 1.0))
@example(([-0.5, -0.0], [0.25], -1.0, 0.0))
def test_hole_pass_matches_the_list_comprehensions_bit_for_bit(cut):
    assert repr(_holes(*cut)) == repr(holes_reference(*cut))


def _check_beta(sol, mu: StepMeasure, c: float, d: float) -> None:
    """The reported beta within 1e-15 k max(|c|, |d|) of mu's exact first moment."""
    ((k, beta),) = sol.provenance
    exact = referee.totals(StepMeasure((), ()), mu)[1]
    bound = Fraction(1e-15) * Fraction(k) * Fraction(max(abs(c), abs(d)))
    assert abs(Fraction(beta) - exact) <= bound


@st.composite
def light_components(draw):
    """Densities 10^[-16, 0] or 0 on up to 7 cells of (s, s + W), |s| up to 1e200.

    W is max(|s|, 1) times 10^[-12, 3]. Far from 0 the densities shrink by a common
    factor, so mass times coordinates stays finite; the ends may be left uncovered.
    """
    a = draw(st.floats(-3.0, 200.0))
    c = draw(st.sampled_from([-1.0, 1.0])) * 10.0**a
    d = c + 10.0 ** (max(a, 0.0) + draw(st.floats(-12.0, 3.0)))
    assume(d - c > 1e3 * math.ulp(max(abs(c), abs(d))))
    lo = c + 0.01 * (d - c) if draw(st.booleans()) else c
    hi = d - 0.01 * (d - c) if draw(st.booleans()) else d
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=6))
    breaks = sorted({lo, hi, *(x for x in (lo + (hi - lo) * t for t in inner) if lo < x < hi)})
    cap = min(1.0, 1e300 / (d - c) / max(abs(c), abs(d)))
    density = st.just(0.0) | st.floats(-16.0, 0.0).map(lambda e: cap * 10.0**e)
    values = draw(st.lists(density, min_size=len(breaks) - 1, max_size=len(breaks) - 1))
    return make_step_measure(breaks, values), c, d


@settings(max_examples=300, deadline=None)
@given(light_components())
@example((indicator(0.0, 0.5, 1e-12), -1.0, 1.0))  # k mid - h off: 8.9e-5 off, relative
@example((indicator(1e200, 1.5e200, 1e-250), 1e200, 1.5e200))
def test_solve_reports_the_exact_first_moment(case):
    mu, c, d = case
    try:
        sol = solve(mu, OpenSet1D.interval(c, d))
    except (InfeasibilityError, AdmissibilityError):
        raise  # a valid light component is never refused as infeasible or inadmissible
    except ValidationError:
        # an input refused by name reports no beta to check; none of 4,000 draws
        # was, and a VerificationError fails: every block the hole form places is kept
        reject()
    _check_beta(sol, mu, c, d)


@settings(max_examples=200, deadline=None)
@given(unit_blocks())
@example((make_step_measure(_FAR_BLOCKS, [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]), 1e8, 1e8 + 3.0))
def test_sweep_reports_the_exact_first_moment(case):
    mu, c, d = case
    _check_beta(solve_by_sweep(mu, OpenSet1D.interval(c, d)), mu, c, d)


@pytest.mark.parametrize("eps", [1e-9, 1e-12])
def test_near_saturation_gap_is_placed_exactly(eps):
    # h = 2.3 eps. The closed form p = (k (d - k/2) - beta) / (W - k) forms
    # W - k and beta by cancellation and put this gap 1.1e-8 (eps = 1e-9)
    # and 2.8e-5 (eps = 1e-12) away, several gap widths, while the certificate,
    # whose errors scale as h times the misplacement, still passed it
    mu = make_step_measure([-1.0, -0.3, 0.4, 1.0], [1.0 - eps, 1.0 - 2.0 * eps, 1.0 - eps / 3.0])
    sol = solve(mu, OpenSet1D.interval(-1.0, 1.0))
    e, f = referee.gap(mu, -1.0, 1.0)
    assert abs(Fraction(sol.blocks[0].e) - e) <= 4 * Fraction(math.ulp(1.0))
    assert abs(Fraction(sol.blocks[0].f) - f) <= 4 * Fraction(math.ulp(1.0))
    _check_solve(mu, -1.0, 1.0)


def test_cli_solves_at_1e160(tmp_path, capsys):
    # the first moment about 0 of this input used to overflow to nan, and the
    # command exited 2 with "beta must be finite, got nan"
    mu, c, d = _scaled(1e160, 1e147)
    path = tmp_path / "far.json"
    path.write_text(
        json.dumps({"measure": mu.to_json(), "open_set": {"components": [[c, d]]}})
    )
    assert main(["solve", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=lambda name: pytest.fail(name))
    assert out["certificate"]["ordered"] is True
    assert None not in (*out["k"], *out["beta"], *out["blocks"][0])


def test_measure_whose_mass_overflows_is_rejected(tmp_path, capsys):
    # density 1e308 on (0, 10): the mass was inf, and dominates(mu, mu) read
    # ordered false with a nan mass gap
    with pytest.raises(ValidationError, match="total mass overflows"):
        make_step_measure([0.0, 10.0], [1e308])
    hot = {"breaks": [0.0, 10.0], "values": [1e308]}
    path = tmp_path / "hot.json"
    path.write_text(json.dumps({"mu": hot, "nu": hot}))
    assert main(["order", "--input", str(path)]) == 2
    assert "total mass overflows" in capsys.readouterr().err
    path.write_text(json.dumps({"measure": hot}))  # printed Infinity and null
    assert main(["potential", "--input", str(path)]) == 2
    assert "total mass overflows" in capsys.readouterr().err


def test_sum_whose_span_times_mass_overflows_is_rejected():
    # indicator(-1e308, -1e307) + indicator(1e307, 1e308) had breaks spanning
    # 2e308 and mass inf; each addend is refused now, and a sum of two valid
    # measures that overflows is refused at the same door
    with pytest.raises(ValidationError, match="overflows"):
        indicator(-1e308, -1e307) + indicator(1e307, 1e308)
    left, right = indicator(-1e154, -1e153), indicator(1e153, 1e154)
    assert dominates(left, left).ordered
    with pytest.raises(ValidationError, match="mass times coordinates"):
        left + right


def test_measure_whose_first_moment_overflows_is_refused(tmp_path, capsys):
    # mass 2e149 at 1e160: the blocks and the certificate were fine, but the
    # reported beta, the first moment about 0, was inf and printed as Infinity
    s = 1e160
    hot = {"breaks": [s + 2e149, s + 6e149], "values": [0.5]}
    with pytest.raises(ValidationError, match="mass times coordinates"):
        make_step_measure(hot["breaks"], hot["values"])
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"measure": hot, "open_set": {"components": [[s, s + 2e150]]}}))
    assert main(["solve", "--input", str(path)]) == 2
    assert "mass times coordinates (the moments' scale) overflows" in capsys.readouterr().err


def _wrong_target(scale: float):
    """_scaled's input at 0, the wrong target chi_(0, 0.1u) + chi_(1.46u, 2u), and the set."""
    mu, c, d = _scaled(0.0, scale)
    wrong = indicator(0.0, 0.1 * scale) + indicator(1.46 * scale, 2.0 * scale)
    return mu, wrong, OpenSet1D.interval(c, d)


@pytest.mark.parametrize(
    "scale", [1.0, 2.0**-500, 1e-300, 2.0**500], ids=["1", "2^-500", "1e-300", "2^500"]
)
def test_certificate_verdict_does_not_depend_on_scale(scale):
    # potentials have the dimension mass times length and underflowed below a
    # scale of ~1e-154, so at 1e-300 every gap read 0 and this wrong target
    # passed; the walk now runs in a power of two near the width as its unit
    mu, wrong, domain = _wrong_target(scale)
    ((c, d),) = domain.components
    assert not referee.ordered(mu, wrong, c, d, DEFAULT_TOL)
    cert = order_leq_sh_O(mu, wrong, domain)
    assert not cert.ordered and not dominates(mu, wrong).ordered
    if math.log2(scale).is_integer():
        # rescaling by a power of two is exact: the same bits, rescaled
        at_one = order_leq_sh_O(*_wrong_target(1.0))
        assert cert.worst_gap / scale**2 == at_one.worst_gap
        assert cert.worst_point / scale == at_one.worst_point
