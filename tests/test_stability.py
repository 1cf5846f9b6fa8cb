import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stefan1d import stability
from stefan1d import (
    LipschitzFamilyParams,
    OpenSet1D,
    ParameterError,
    VerificationError,
    indicator,
    l1_distance,
    lipschitz_closed_form_gap,
    lipschitz_closed_form_ratio,
    lipschitz_ratio,
    make_step_measure,
    monotonicity_report,
    solve,
    weak_convergence_experiment,
)

from helpers import cdf, sum_measures

DOMAIN = OpenSet1D.interval(-1.0, 1.0)


# -- monotonicity -------------------------------------------------------------


def test_monotonicity_fails_for_saturated_comparison():
    report = monotonicity_report(indicator(-0.9, 0.0), indicator(-1.0, 0.0), DOMAIN)
    assert report.monotone_in
    assert not report.monotone_out
    # the saturated input is its own target, the smaller one spreads right
    assert l1_distance(report.nu2, indicator(-1.0, 0.0)) == 0.0
    right_mass = cdf(report.nu1, 1.0) - cdf(report.nu1, 0.0)
    assert right_mass > 0.0


def test_monotonicity_equal_inputs():
    mu = indicator(-0.3, 0.3, 0.7)
    report = monotonicity_report(mu, mu, DOMAIN)
    assert report.monotone_in and report.monotone_out
    assert math.isnan(report.ratio)


def test_monotonicity_equal_moment_pair():
    report = monotonicity_report(
        indicator(0.0, math.sqrt(0.75), 0.99),
        indicator(-0.5, 1.0, 0.99),
        DOMAIN,
    )
    assert report.monotone_in
    assert not report.monotone_out
    assert report.nu1.breaks[1] == pytest.approx(-0.896224371, abs=1e-6)
    assert report.nu1.breaks[2] == pytest.approx(0.246410478, abs=1e-6)


# -- Lipschitz blow-up family ----------------------------------------------------


def test_lipschitz_ratio_reference_point():
    params = LipschitzFamilyParams(x=0.9, y=0.01, r=0.9, c=0.99)
    report = lipschitz_ratio(params)
    assert report.input_l1_gap == pytest.approx(0.009, abs=1e-12)
    assert report.output_l1_gap == pytest.approx(
        lipschitz_closed_form_gap(params), abs=1e-9
    )
    assert report.closed_form_ratio == pytest.approx(3.761 / 0.76, abs=1e-9)
    assert report.ratio == pytest.approx(report.closed_form_ratio, rel=1e-4)
    # the family is a rearrangement, not a pointwise-ordered pair
    assert not report.monotone_in


def test_lipschitz_closed_form_small_y_limit():
    x, r, c = 0.9, 0.9, 0.99
    limit = (x + c) / (2.0 * (1.0 - r * x))
    assert lipschitz_closed_form_ratio(x, 1e-9, r, c) == pytest.approx(limit, abs=1e-7)


def test_lipschitz_ratio_blows_up_at_corner():
    assert lipschitz_closed_form_ratio(0.999, 1e-4, 0.999, 0.999) > 100.0
    # the corner violates the family's own feasibility constraint
    with pytest.raises(ParameterError, match="-c"):
        LipschitzFamilyParams(x=0.999, y=1e-4, r=0.999, c=0.999)


def test_lipschitz_feasible_large_ratio_point():
    # a point deep in the small-y regime where measures are feasible and the
    # computed (not just closed-form) ratio already exceeds 100
    params = LipschitzFamilyParams(x=0.9975, y=2e-5, r=0.9975, c=0.9999)
    report = lipschitz_ratio(params)
    assert report.ratio > 100.0


def test_lipschitz_random_draws_match_closed_forms():
    rng = np.random.default_rng(31)
    done = 0
    while done < 50:
        x = rng.uniform(0.3, 0.95)
        r = rng.uniform(0.3, 0.95)
        y = rng.uniform(1e-4, 0.05)
        c = rng.uniform(x + r * y + 1e-3, 0.999)
        try:
            params = LipschitzFamilyParams(x=x, y=y, r=r, c=c)
        except ParameterError:
            continue
        report = lipschitz_ratio(params)
        assert report.output_l1_gap == pytest.approx(
            lipschitz_closed_form_gap(params), abs=1e-9
        )
        assert report.input_l1_gap == pytest.approx(r * y, abs=1e-9)
        done += 1


def test_lipschitz_ratio_doubles_when_margin_halves():
    # at fixed x + c and small y, the ratio scales like 1 / (1 - r x)
    y = 1e-5
    base = lipschitz_closed_form_ratio(0.9, y, 0.9, 0.95)
    # halve 1 - r*x from 0.19 to 0.095 keeping x + c fixed
    r2 = (1.0 - 0.095) / 0.9
    doubled = lipschitz_closed_form_ratio(0.9, y, r2, 0.95)
    assert doubled / base == pytest.approx(2.0, rel=1e-3)


def test_lipschitz_family_parameter_validation():
    with pytest.raises(ParameterError):
        LipschitzFamilyParams(x=1.2, y=0.01, r=0.5, c=0.9)
    with pytest.raises(ParameterError):
        LipschitzFamilyParams(x=0.5, y=0.01, r=1.0, c=0.9)
    with pytest.raises(ParameterError):
        LipschitzFamilyParams(x=0.5, y=1.2, r=0.5, c=0.9)


@pytest.mark.parametrize(
    "name, says",
    [
        ("lipschitz_closed_form_gap", "target gap"),  # read for the output gap alone
        ("positive_part_l1", "input gap"),  # both gaps: the input's is checked first
    ],
)
def test_lipschitz_ratio_refuses_a_gap_off_its_closed_form(monkeypatch, name, says):
    # a transcription slip of 1e-6 in either gap fails loudly
    original = getattr(stability, name)
    monkeypatch.setattr(stability, name, lambda *args: original(*args) + 1e-6)
    with pytest.raises(VerificationError, match=says):
        lipschitz_ratio(LipschitzFamilyParams(x=0.9, y=0.01, r=0.9, c=0.99))


# -- weak convergence ---------------------------------------------------------------


def test_weak_convergence_refuses_a_gap_off_the_identity(monkeypatch):
    # the measured L1 gap must equal the gaps' symmetric difference
    l1 = stability.l1_distance
    monkeypatch.setattr(stability, "l1_distance", lambda a, b: l1(a, b) + 1e-6)
    mu = indicator(-0.5, 0.5)
    with pytest.raises(VerificationError, match="member 0: .* gap identity"):
        weak_convergence_experiment([indicator(-0.5, 0.5, 0.5)], mu, DOMAIN)


def test_weak_convergence_shrinking_density_family():
    mu = indicator(-0.5, 0.5)
    seq = [indicator(-0.5, 0.5, 1.0 - 1.0 / l) for l in range(2, 65)]
    table = weak_convergence_experiment(seq, mu, DOMAIN)
    assert table.bounded
    gaps = [row.l1_gap for row in table.rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    for l, row in zip(range(2, 65), table.rows):
        assert row.l1_gap == pytest.approx(1.0 / l, abs=1e-12)
        assert row.mass_gap == pytest.approx(1.0 / l, abs=1e-12)


def test_weak_convergence_constant_sequence():
    mu = indicator(-0.4, 0.1, 0.8)
    table = weak_convergence_experiment([mu, mu, mu], mu, DOMAIN)
    assert table.bounded
    assert all(row.l1_gap == 0.0 for row in table.rows)


def test_weak_convergence_growing_support_family():
    # E_l increases to E; masses and moments converge, so targets do too
    mu = indicator(-0.8, 0.8)
    seq = [
        indicator(-0.8 + 1.0 / l, -1.0 / l) + indicator(1.0 / l, 0.8 - 1.0 / l)
        for l in range(4, 40)
    ]
    table = weak_convergence_experiment(seq, mu, DOMAIN)
    assert table.bounded
    gaps = [row.l1_gap for row in table.rows]
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 0.25


def _within_modulus(table) -> bool:
    # the slack is rounding: a few ulps of the rows' size
    return all(
        row.l1_gap <= table.constant * (row.mass_gap + row.moment_gap) * (1.0 + 1e-12) + 1e-15
        for row in table.rows
    )


def test_weak_convergence_reads_each_component():
    # the member moves mass 0.05 from the right component to the left one and
    # keeps the first moment about 0: totals over the whole measure see no
    # change, the holes of each component do
    open_set = OpenSet1D.of((-3.0, -1.0), (1.0, 3.0))
    mu = indicator(-3.0, -1.0, 0.5) + indicator(1.0, 3.0, 0.5)
    member = make_step_measure(
        [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], [0.5, 0.55, 0.0, 0.3, 0.65]
    )
    table = weak_convergence_experiment([member], mu, open_set)
    (row,) = table.rows
    assert table.bounded and _within_modulus(table)
    assert row.mass_gap == pytest.approx(0.1, abs=1e-12)  # |dh| = 0.05 twice
    assert row.moment_gap == pytest.approx(0.2, abs=1e-12)  # 0.025 left, 0.175 right
    assert row.l1_gap > 0.3


def test_weak_convergence_saturated_limit():
    ls = range(2, 10)
    mu = indicator(-1.0, 1.0)
    seq = [indicator(-1.0, 1.0, 1.0 - 1.0 / l) for l in ls]
    table = weak_convergence_experiment(seq, mu, DOMAIN)
    assert table.bounded and _within_modulus(table)
    # 2 / h at the smallest hole mass, h = 2/9
    assert table.constant == pytest.approx(9.0, rel=1e-12)
    for l, row in zip(ls, table.rows):
        assert row.l1_gap == row.mass_gap == pytest.approx(2.0 / l, rel=1e-12)
        assert row.moment_gap == 0.0


def test_weak_convergence_modulus_is_sharp_for_equal_mass_shifts():
    # equal hole masses h = 1.5: the gap moves by dB / h, so the target L1 gap
    # is 2 dB / h, the modulus's constant times the moment gap exactly
    mu = indicator(-0.5, 0.5, 0.5)
    seq = [indicator(-0.5 + s, 0.5 + s, 0.5) for s in (0.2, 0.01, -0.1)]
    table = weak_convergence_experiment(seq, mu, DOMAIN)
    assert table.bounded and _within_modulus(table)
    assert table.constant == pytest.approx(2.0 / 1.5, rel=1e-12)
    for row in table.rows:
        assert row.mass_gap == 0.0
        assert row.l1_gap == pytest.approx(table.constant * row.moment_gap, rel=1e-12)


@st.composite
def weak_families(draw):
    """1 to 3 disjoint components in (-4, 4), a limit and 1 to 3 members on them.

    On each component a measure is 0, 1 or a density in [0, 1] on each of up
    to three equal cells, so empty and saturated components both occur.
    """
    n = draw(st.integers(1, 3))
    ends = sorted(draw(st.lists(st.floats(-4.0, 4.0), min_size=2 * n, max_size=2 * n, unique=True)))
    comps = list(zip(ends[::2], ends[1::2]))
    assume(all(d - c > 1e-3 for c, d in comps))
    density = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))

    def measure():
        parts = []
        for c, d in comps:
            m = draw(st.integers(1, 3))
            breaks = [c + (d - c) * i / m for i in range(m)] + [d]
            values = draw(st.lists(density, min_size=m, max_size=m))
            parts.append(make_step_measure(breaks, values))
        return sum_measures(parts)

    members = [measure() for _ in range(draw(st.integers(1, 3)))]
    return OpenSet1D.of(*comps), measure(), members


def _gap_symmetric_difference(nu, nu0) -> float:
    """Measure of the symmetric difference of each component's two gaps."""
    total = 0.0
    for a, b in zip(nu.blocks, nu0.blocks):
        overlap = max(0.0, min(a.f, b.f) - max(a.e, b.e))
        total += (a.f - a.e) + (b.f - b.e) - 2.0 * overlap
    return total


@settings(max_examples=200, deadline=None)
@given(weak_families())
def test_weak_convergence_gaps_follow_the_holes(family):
    open_set, mu, members = family
    table = weak_convergence_experiment(members, mu, open_set)
    assert table.bounded and _within_modulus(table)
    assert math.isfinite(table.constant)
    limit = solve(mu, open_set)
    for member, row in zip(members, table.rows):
        expected = _gap_symmetric_difference(solve(member, open_set), limit)
        assert row.l1_gap == pytest.approx(expected, rel=1e-12, abs=1e-14)
