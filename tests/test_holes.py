"""The hole form of the solver against the exact referee.

On a component (c, d) the target's gap is (g - h/2, g + h/2), h and g the
mass and barycentre of the input's holes (1 - mu)^+. ``referee`` computes
both in rational arithmetic; the solver's endpoints must sit within a few
ulps of max(|c|, |d|) of the exact ones, wherever the component lies, however
wide it is and however close to saturation, and the certificate's verdict
must be the referee's under the tolerance policy.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import referee
from stefan1d import (
    DEFAULT_TOL,
    OpenSet1D,
    StepMeasure,
    ValidationError,
    dominates,
    indicator,
    make_step_measure,
    solve,
)
from stefan1d.cli import main
from stefan1d.solver import _gap, _holes

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


@st.composite
def components(draw):
    """An input on (s, s + W) whose hole mass is about ratio * W.

    s in [-1e8, 1e8], W in [1e-6, 1e6] and ratio in [1e-12, 1], log-uniform
    where it matters; the ends may be left uncovered.
    """
    s = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 8.0))
    width = 10.0 ** draw(st.floats(-6.0, 6.0))
    ratio = 10.0 ** draw(st.floats(-12.0, 0.0))
    c, d = s, s + width
    # breaks must be distinct floats: keep a thousand ulps per component
    assume(d - c > 1e3 * math.ulp(max(abs(c), abs(d))))
    lo = c + 0.01 * (d - c) if draw(st.booleans()) else c  # an uncovered left end
    hi = d - 0.01 * (d - c) if draw(st.booleans()) else d  # and right end
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=6))
    breaks = sorted({lo, hi, *(x for x in (lo + (hi - lo) * t for t in inner) if lo < x < hi)})
    holes = draw(st.lists(st.floats(0.0, 1.0), min_size=len(breaks) - 1, max_size=len(breaks) - 1))
    return make_step_measure(breaks, [1.0 - ratio * u for u in holes]), c, d


@settings(max_examples=300, deadline=None)
@given(components())
@example((make_step_measure([-1.0, 1.0], [1.0]), -1.0, 1.0))
@example((make_step_measure([-0.5, 0.5], [1.0 - 1e-12]), -1.0, 1.0))
def test_blocks_match_the_exact_gap(case):
    _check_solve(*case)


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
    blocks = _gap(c, d, *_holes(mu, c, d))
    assert max(_endpoint_errors(blocks, mu, c, d)) <= ULPS


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
