import gc
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from stefan1d import (
    OpenSet1D,
    SimConfig,
    ValidationError,
    compare_to_formula,
    indicator,
    make_step_measure,
    restrict,
    run,
    solve,
    zero_measure,
)
from stefan1d import walkers

from helpers import cdf, sample_initial, simulate_component_reference

DOMAIN = OpenSet1D.interval(-1.0, 1.0)


# -- initial sampling -----------------------------------------------------------


def test_sample_mean_of_symmetric_density():
    n = 40000
    xs = sample_initial(indicator(-1.0, 1.0), n, seed=1)
    assert abs(xs.mean()) <= 4.0 / math.sqrt(n)


def test_sample_matches_exact_cdf():
    mu = indicator(0.0, math.sqrt(0.75), 0.99)
    n = 5000
    xs = sample_initial(mu, n, seed=2)
    total = mu.mass
    stat = stats.kstest(xs, lambda y: np.array([cdf(mu, t) for t in y]) / total).statistic
    assert stat < 1.63 / math.sqrt(n)  # 1% level


def test_sampling_is_deterministic():
    mu = indicator(-0.5, 0.25, 0.75)
    a = sample_initial(mu, 1000, seed=42)
    b = sample_initial(mu, 1000, seed=42)
    assert np.array_equal(a, b)


def test_sampling_zero_mass_fails():
    with pytest.raises(ValidationError):
        sample_initial(zero_measure(), 10, seed=0)


def test_sampling_multimodal_density():
    mu = indicator(-0.9, -0.6, 0.5) + indicator(0.2, 0.8)
    xs = sample_initial(mu, 20000, seed=3)
    assert ((xs >= -0.9) & (xs <= 0.8)).all()
    # no samples in the gap
    assert not ((xs > -0.6 + 1e-12) & (xs < 0.2 - 1e-12)).any()
    frac_left = ((xs <= -0.6)).mean()
    expected = 0.15 / mu.mass
    assert abs(frac_left - expected) <= 4.0 * math.sqrt(expected / 20000)


# -- simulation ------------------------------------------------------------------


def test_symmetric_run_splits_evenly():
    mu = indicator(-0.25, 0.25)
    rep = run(mu, DOMAIN, SimConfig(n_particles=20000, seed=5, dt=1e-3))
    comp = rep.components[0]
    assert comp.unfrozen == 0
    assert comp.frozen_left + comp.frozen_right == comp.n
    assert abs(comp.p_hat - 0.25) <= 0.01
    assert abs(comp.q_hat - 0.25) <= 0.01
    assert comp.p_hat + comp.q_hat == pytest.approx(mu.mass, abs=1e-12)
    # fronts sit at exactly c + m*count and d - m*count
    assert comp.left_front == -1.0 + comp.unit_mass * comp.frozen_left
    assert comp.right_front == 1.0 - comp.unit_mass * comp.frozen_right


def test_run_is_deterministic():
    mu = indicator(-0.4, 0.3, 0.8)
    cfg = SimConfig(n_particles=4000, seed=99, dt=1e-3)
    a = run(mu, DOMAIN, cfg)
    b = run(mu, DOMAIN, cfg)
    assert a.to_json() == b.to_json()


def test_t_max_flags_unfrozen_walkers():
    mu = indicator(-0.25, 0.25)
    rep = run(mu, DOMAIN, SimConfig(n_particles=500, seed=1, dt=1e-4, t_max=5e-3))
    comp = rep.components[0]
    assert comp.unfrozen > 0
    assert not rep.all_frozen
    assert comp.frozen_left + comp.frozen_right + comp.unfrozen == comp.n


def test_martingale_of_freeze_positions():
    mu = indicator(-0.1, 0.5, 0.9)
    rep = run(mu, DOMAIN, SimConfig(n_particles=20000, seed=8, dt=1e-3))
    comp = rep.components[0]
    assert comp.unfrozen == 0
    target_mean = mu.first_moment / mu.mass
    tol = 3.0 * comp.freeze_position_std / math.sqrt(comp.n) + 0.01
    assert abs(comp.freeze_position_mean - target_mean) <= tol


def test_frozen_histogram_is_saturated_near_boundaries():
    mu = indicator(-0.25, 0.25)
    rep = run(
        mu, DOMAIN, SimConfig(n_particles=20000, seed=12, dt=1e-3, hist_bins=100)
    )
    comp = rep.components[0]
    width = comp.hist_edges[1] - comp.hist_edges[0]
    dens_first = comp.hist_counts[0] * comp.unit_mass / width
    assert dens_first == pytest.approx(1.0, abs=0.05)
    mid = len(comp.hist_counts) // 2
    assert comp.hist_counts[mid] == 0


def test_empty_component_gets_no_walkers():
    # the middle component carries no mass
    mu = indicator(-2.8, -2.2, 0.8) + indicator(2.4, 3.0, 0.6)
    open_set = OpenSet1D.of((-3.0, -2.0), (-1.0, 1.0), (2.0, 3.5))
    bins = 16
    rep = run(mu, open_set, SimConfig(n_particles=500, seed=5, dt=1e-3, hist_bins=bins))
    assert rep.all_frozen
    comp = rep.components[1]
    c, d = comp.interval
    assert (c, d) == (-1.0, 1.0)
    assert comp.n == 0 and comp.unfrozen == 0
    assert comp.frozen_left == comp.frozen_right == 0
    assert comp.unit_mass == comp.p_hat == comp.q_hat == 0.0
    assert (comp.left_front, comp.right_front) == (c, d)
    assert comp.hist_counts == (0,) * bins
    assert comp.hist_edges == tuple(np.linspace(c, d, bins + 1).tolist())
    for stat in (comp.mean_freeze_time, comp.freeze_position_mean, comp.freeze_position_std):
        assert math.isnan(stat)
    assert sum(other.n for other in rep.components) == 500


# -- multi-rate stepping in nested levels ----------------------------------------


def _law_gaps(monkeypatch, mu, n, dt, t_max, seeds=24):
    """Bridge calls per level, and the gap of the mean (p_hat, q_hat,
    mean_freeze_time) over seeds from the single-rate reference's, in units
    of its standard error."""
    refined = Counter()
    bridge_point = walkers._bridge_point

    def counting_bridge(x0, x1, a, span, rng):
        # a level-l block spans at most _RADIX**l steps, and the last one may be cut short
        refined[math.ceil(math.log(span / dt, walkers._RADIX) - 1e-9)] += 1
        return bridge_point(x0, x1, a, span, rng)

    monkeypatch.setattr(walkers, "_bridge_point", counting_bridge)
    mu_n = restrict(mu, DOMAIN)[0]
    multi, single = [], []
    for s in range(seeds):
        cfg = SimConfig(n_particles=n, seed=s, dt=dt, t_max=t_max)
        comp = run(mu, DOMAIN, cfg).components[0]
        multi.append((comp.p_hat, comp.q_hat, comp.mean_freeze_time))
        rng = np.random.default_rng([1000 + s, 0])
        comp = simulate_component_reference(mu_n, -1.0, 1.0, n, dt, t_max, rng, 64)
        single.append((comp.p_hat, comp.q_hat, comp.mean_freeze_time))
    multi, single = np.asarray(multi), np.asarray(single)
    gap = multi.mean(axis=0) - single.mean(axis=0)
    se = np.sqrt((multi.var(axis=0, ddof=1) + single.var(axis=0, ddof=1)) / seeds)
    return refined, np.abs(gap) / se


def test_multi_rate_law_matches_single_rate_reference(monkeypatch):
    # At dt = 1e-4 the blocks of levels 1, 2 and 3 have bands 0.11, 0.22 and
    # 0.44 wide, so the walkers of the right cell start coarse; the left cell
    # is saturated against the boundary, so its front sweeps through coarse
    # bands and refinement engages at each of these levels. t_max cuts the
    # run while both fronts still move.
    mu = indicator(-1.0, -0.6) + indicator(0.2, 0.9, 0.9)
    refined, z = _law_gaps(monkeypatch, mu, 2000, 1e-4, 0.05)
    assert {1, 2, 3} <= set(refined), refined
    assert (z <= 4.0).all(), z


def test_nested_levels_law_matches_single_rate_reference(monkeypatch):
    # criterion 07's input at dt = 1e-4 runs four levels; walkers in the middle
    # of the component are coarse at levels 3 and 4 (bands 0.44 and 0.89), and
    # the slow fronts still enter those bands
    mu = indicator(0.0, math.sqrt(0.75), 0.99)
    refined, z = _law_gaps(monkeypatch, mu, 2000, 1e-4, 0.1)
    assert {3, 4} <= set(refined), refined
    assert (z <= 4.0).all(), z


def test_nan_walker_fails_the_invariant_check_under_optimize():
    # the checks raise rather than assert, so python -O keeps them; a NaN is
    # neither inside the fronts nor swept by one, and must not loop or freeze
    script = """
import numpy as np
from stefan1d import OpenSet1D, SimConfig, VerificationError, indicator, run, walkers

bridge_point = walkers._bridge_point

def nan_bridge(*args):
    mid = bridge_point(*args)
    mid[0] = np.nan
    return mid

walkers._bridge_point = nan_bridge
mu = indicator(-1.0, -0.6) + indicator(0.2, 0.9, 0.9)
cfg = SimConfig(n_particles=2000, seed=0, dt=1e-4, t_max=0.05)
try:
    run(mu, OpenSet1D.interval(-1.0, 1.0), cfg)
except VerificationError as exc:
    print(exc)
"""
    src = str(Path(walkers.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("live walker outside the fronts"), out.stdout


def test_run_leaves_no_reference_cycle():
    # a cycle through the walk would hold its buffers until the collector runs
    mu = indicator(0.0, math.sqrt(0.75), 0.99)
    gc.collect()
    gc.disable()
    try:
        run(mu, DOMAIN, SimConfig(n_particles=2000, seed=3, dt=1e-4))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_coarse_band_meets_the_float32_budget():
    # a walker Z block deviations from both fronts meets one within its block
    # with probability at most 2 erfc(Z / sqrt(2)); the law test above cannot
    # resolve a budget this small, so it is checked here
    assert 2.0 * math.erfc(walkers._Z / math.sqrt(2.0)) <= 2.0**-24


def test_bridge_point_follows_the_levy_construction():
    rng = np.random.default_rng(31)
    size, span, a = 20000, 8e-4, 0.375
    x0 = rng.uniform(-0.5, 0.5, size).astype(np.float32)
    x1 = (x0 + math.sqrt(span) * rng.standard_normal(size)).astype(np.float32)
    mid = walkers._bridge_point(x0, x1, a, span, rng)
    assert mid.dtype == np.float32
    # conditionally on both ends, and marginally given the start alone
    z_bridge = (mid - (x0 + a * (x1 - x0))) / math.sqrt(a * (1.0 - a) * span)
    z_start = (mid - x0) / math.sqrt(a * span)
    for z in (z_bridge, z_start):
        assert stats.kstest(z, "norm").statistic < 1.63 / math.sqrt(size)  # 1% level


def test_compare_to_formula_zero_for_synthesised_report():
    mu = indicator(-0.25, 0.25)
    sol = solve(mu, DOMAIN)
    rep = run(mu, DOMAIN, SimConfig(n_particles=5000, seed=4, dt=1e-3))
    # synthesise an exact report by replacing fronts with the solver blocks
    from dataclasses import replace

    comp = rep.components[0]
    exact = replace(
        comp,
        left_front=sol.blocks[0].e,
        right_front=sol.blocks[0].f,
        p_hat=sol.blocks[0].p,
        q_hat=sol.blocks[0].q,
    )
    synth = replace(rep, components=(exact,))
    metrics = compare_to_formula(synth, sol)
    assert metrics.total_l1 == pytest.approx(0.0, abs=1e-12)
    assert metrics.max_p_error == 0.0


def test_compare_to_formula_statistical_agreement():
    mu = indicator(0.0, math.sqrt(0.75), 0.99)
    sol = solve(mu, DOMAIN)
    rep = run(mu, DOMAIN, SimConfig(n_particles=20000, seed=21, dt=1e-3))
    metrics = compare_to_formula(rep, sol)
    row = metrics.rows[0]
    assert row.p_error <= 3.0 * row.sigma_hat + 0.005


def test_compare_to_formula_rejects_mismatched_components():
    mu = indicator(-0.25, 0.25)
    sol = solve(mu, DOMAIN)
    rep = run(
        mu,
        OpenSet1D.interval(-2.0, 2.0),
        SimConfig(n_particles=2000, seed=4, dt=1e-3),
    )
    with pytest.raises(ValidationError):
        compare_to_formula(rep, sol)


def test_halving_dt_halves_the_split_bias_within_noise():
    mu = indicator(0.0, math.sqrt(0.75), 0.99)
    sol = solve(mu, DOMAIN)
    p = sol.blocks[0].p
    n, seeds = 10000, 16

    def mean_err(dt):
        errs = [
            run(mu, DOMAIN, SimConfig(n_particles=n, seed=5000 + s, dt=dt))
            .components[0]
            .p_hat
            - p
            for s in range(seeds)
        ]
        arr = np.asarray(errs)
        return arr.mean(), arr.std(ddof=1) / math.sqrt(seeds)

    coarse, se_c = mean_err(4e-3)
    fine, se_f = mean_err(2e-3)
    noise = 3.0 * math.sqrt(se_f**2 + 0.25 * se_c**2)
    assert abs(fine - 0.5 * coarse) <= noise + 1e-4


def test_boundary_saturated_input_mostly_freezes_left():
    # chi_(-1,0) is saturated against the boundary: the continuum front sweeps
    # it instantly and the target has no right block. With a finite step the
    # sweep takes ~sqrt(dt) of diffusion time, so a small O(sqrt(dt)) mass
    # leaks to the far front; it must stay small and the accounting exact.
    mu = indicator(-1.0, 0.0)
    rep = run(mu, DOMAIN, SimConfig(n_particles=20000, seed=3, dt=1e-3))
    comp = rep.components[0]
    assert comp.unfrozen == 0
    assert comp.q_hat <= 0.02
    assert comp.p_hat + comp.q_hat == pytest.approx(1.0, abs=1e-12)


def test_saturated_component_with_density_just_above_one_freezes_whole():
    # an admissible density 1 + 1e-13 carries more than the component's length,
    # so the frozen fronts cross by ~2e-13; the frozen measure is the component
    mu = make_step_measure([-1.0, 1.0], [1.0 + 1e-13])
    rep = run(mu, DOMAIN, SimConfig(n_particles=50, seed=1))
    assert rep.all_frozen
    comp = rep.components[0]
    assert comp.left_front > comp.right_front  # the crossing this guards
    assert rep.measure == indicator(-1.0, 1.0)


def test_component_allocation_and_seed_rule():
    O = OpenSet1D.of((-1.0, 0.0), (0.0, 1.0))
    mu = indicator(-0.75, -0.25) + indicator(0.25, 0.75, 0.5)
    rep = run(mu, O, SimConfig(n_particles=3000, seed=11, dt=1e-3))
    n0, n1 = rep.components[0].n, rep.components[1].n
    assert n0 + n1 == 3000
    assert n0 / n1 == pytest.approx(2.0, rel=0.01)  # proportional to mass
    assert rep.components[0].unfrozen == 0 and rep.components[1].unfrozen == 0
    # each side keeps its own mass
    assert rep.components[0].p_hat + rep.components[0].q_hat == pytest.approx(
        0.5, abs=1e-12
    )
    assert rep.components[1].p_hat + rep.components[1].q_hat == pytest.approx(
        0.25, abs=1e-12
    )
