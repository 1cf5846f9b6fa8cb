import gc
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
)
from stefan1d import walkers
from stefan1d.measure import _cuts, _unit
from stefan1d.particles import _step_count

from helpers import (
    cdf,
    first_moment_reference,
    sample_initial,
    simulate_component_reference,
    zero_measure,
)

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


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_particles", 2.5),
        ("n_particles", True),
        ("hist_bins", 2.5),
        ("hist_bins", True),
        ("seed", 1.5),
        ("seed", False),
        ("seed", -1),
        ("n_particles", 0),
        ("hist_bins", 0),
        ("hist_bins", 2**16 + 1),
    ],
)
def test_sim_config_refuses_a_bad_integer_field(field, value):
    # the library refuses what the CLI refuses, before a slice or numpy sees it
    with pytest.raises(ValidationError, match=field):
        SimConfig(**{"n_particles": 10, field: value})


@pytest.mark.parametrize("field", ["dt", "t_max"])
@pytest.mark.parametrize("value", ["0.1", [1], True, 1j], ids=["str", "list", "bool", "complex"])
def test_sim_config_refuses_a_time_that_is_not_a_real_number(field, value):
    # refused by name as the CLI refuses it, not a TypeError; True is not 1.0
    with pytest.raises(ValidationError, match=field):
        SimConfig(**{"n_particles": 10, field: value})


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
    target_mean = first_moment_reference(mu) / mu.mass
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
    # with no mass in the set at all, no component gets a walker
    rep = run(zero_measure(), open_set, SimConfig(n_particles=500, seed=5, dt=1e-3))
    assert rep.all_frozen and [comp.n for comp in rep.components] == [0, 0, 0]
    assert rep.measure.mass == 0.0


# -- multi-rate stepping in nested levels ----------------------------------------


def _law_gaps(monkeypatch, mu, n, dt, t_max, seeds=24):
    """Bridge calls per level, and the gap of the mean (p_hat, q_hat,
    mean_freeze_time) over seeds from the single-rate reference's, in units
    of its standard error."""
    refined = Counter()
    bridge_point = walkers._bridge_point
    unit = _unit(-1.0, 1.0)  # span is in the component's frame

    def counting_bridge(x0, x1, a, span, normals):
        # a level-l block spans at most _RADIX**l steps, and the last one may be cut short
        refined[math.ceil(math.log(span / (dt * unit * unit), walkers._RADIX) - 1e-9)] += 1
        return bridge_point(x0, x1, a, span, normals)

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


@cache
def _traced_walk(n: int):
    """The tracemalloc peak per walker and the report of one component's walk.

    Criterion 07's input at dt = 1e-3: the fine set changes size from step
    to step, freezes come in batches, and most walkers start coarse at the
    top level.
    """
    mu = indicator(0.0, math.sqrt(0.75), 0.99)
    cut = _cuts(mu, DOMAIN)[0]
    dt, seed = 1e-3, [12345, 0]
    n_steps = _step_count(50.0, dt)
    walkers.simulate_component(cut, -1.0, 1.0, 100, dt, n_steps, seed, 64)  # numpy's set-up
    tracemalloc.start()
    try:
        report = walkers.simulate_component(cut, -1.0, 1.0, n, dt, n_steps, seed, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / n, report


def test_walk_peak_memory_per_walker():
    # the walk keeps two frozen counts and a step sum, no per-walker record:
    # the peak is the 24 B of sampling the start in place at both sizes, as
    # the walk's own 15-17 B stay below it. A walk whose levels each kept the
    # array they split read 25 B; the freeze record held through the walk,
    # 50 B at n = 2e4; n-sized step scratch, 100 B.
    for n in (20000, 100_000):
        per_walker, report = _traced_walk(n)
        assert report.unfrozen == 0
        assert per_walker <= 30.0, (n, per_walker)


def test_walk_report_bits_are_pinned():
    # how the step's arrays are allocated must not move a bit of the report:
    # the digest was recorded with n-sized scratch and slot tables, and with a
    # freeze record filled batch by batch during the walk; it moved when the
    # normals got a stream of their own
    digest = hashlib.sha256(repr(_traced_walk(20000)[1]).encode()).hexdigest()
    assert digest == "14188cb1b24b910c8697cf2fff623025787e798d7a382429cc910df714eea043"


def test_normal_chunks_and_the_fill_worker_leave_the_report_unchanged(monkeypatch):
    # numpy's float32 normals form one sequence however they are chunked, so
    # a report depends on the seed alone: n = 1e5 fills chunks of 2**16 on the
    # worker, then chunks of 4099 that many takes straddle, then draws on demand
    mu = indicator(0.0, math.sqrt(0.75), 0.99)
    cfg = SimConfig(n_particles=100_000, seed=4, dt=1e-3)
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads trade the lock far more often than by default
    try:
        sizes = ((walkers._CHUNK, walkers._MIN_CHUNK), (4099, 4096), (2**16, 2**60))
        for chunk, min_chunk in sizes:
            monkeypatch.setattr(walkers, "_CHUNK", chunk)
            monkeypatch.setattr(walkers, "_MIN_CHUNK", min_chunk)
            reports.append(repr(run(mu, DOMAIN, cfg)))
    finally:
        sys.setswitchinterval(interval)
    assert reports[0] == reports[1] == reports[2]


def _workers(monkeypatch) -> list:
    """The fill threads the walks start from now on; 1,000 walkers get one."""
    monkeypatch.setattr(walkers, "_MIN_CHUNK", 500)
    started = []
    init = walkers._Normals.__init__

    def recording_init(self, rng, n):
        init(self, rng, n)
        started.append(self.worker)

    monkeypatch.setattr(walkers._Normals, "__init__", recording_init)
    return started


def test_no_fill_worker_outlives_a_run(monkeypatch):
    threads = threading.active_count()
    started = _workers(monkeypatch)
    mu = indicator(-0.8, -0.3, 0.9) + indicator(0.2, 0.7, 0.6)
    run(mu, OpenSet1D.of((-1.0, 0.0), (0.0, 1.0)), SimConfig(n_particles=4000, seed=2, dt=1e-3))
    assert len(started) == 2 and None not in started
    assert not any(w.is_alive() for w in started)
    # a walk that raises partway stops its worker too
    fine_step, steps = walkers._Walk.fine_step, Counter()

    def failing_step(self, step):
        steps["fine"] += 1
        if steps["fine"] > 50:
            raise RuntimeError("walk failed")
        fine_step(self, step)

    monkeypatch.setattr(walkers._Walk, "fine_step", failing_step)
    with pytest.raises(RuntimeError, match="walk failed"):
        run(mu, DOMAIN, SimConfig(n_particles=4000, seed=2, dt=1e-3))
    assert len(started) == 3 and started[2] is not None
    assert not any(w.is_alive() for w in started)
    assert threading.active_count() == threads


def test_a_fill_that_raises_is_raised_by_take():
    class FailingGenerator:
        calls = 0

        def standard_normal(self, size, dtype):
            self.calls += 1
            if self.calls > 1:
                raise RuntimeError("fill failed")
            return np.zeros(size, dtype=dtype)

    n = 4 * walkers._CHUNK  # chunks of _CHUNK normals, on the worker
    with walkers._Normals(FailingGenerator(), n) as normals:
        assert normals.worker is not None
        assert not normals.take(walkers._CHUNK, 1.0).any()
        with pytest.raises(RuntimeError, match="fill failed"):
            normals.take(1, 1.0)
    assert not normals.worker.is_alive()


@pytest.mark.parametrize(
    "mu, open_set, digest",
    [
        (  # both cuts clipped at the shared end 0
            indicator(-0.6, 0.4, 0.7),
            OpenSet1D.of((-1.0, 0.0), (0.0, 1.0)),
            "a1c3668b663cef5037fb624a349d9505b8cad2499356614ce8bbc0caf571aa66",
        ),
        (
            indicator(-0.8, -0.3, 0.9) + indicator(0.2, 0.7, 0.6),
            DOMAIN,
            "fe7d4aae708d9f0559a6889c5ebc86cbda25f478726a09799cddac57b232151d",
        ),
        (
            indicator(-0.7, -0.2, 0.8) + indicator(2.2, 2.9, 0.5),
            OpenSet1D.of((-1.0, 0.0), (0.5, 1.5), (2.0, 3.0)),
            "824ea0fcd78b5bfb5872e57d2ad79d835d9c3e08524096536ab02384773f4a6d",
        ),
    ],
    ids=["touching-clipped", "interior-zero-cell", "empty-component"],
)
def test_run_report_bits_are_pinned_on_every_kind_of_cut(mu, open_set, digest):
    # the digests were recorded when the run restricted mu to a measure per
    # component, again when the freeze position statistics became closed
    # forms, which moved the last bits of the float statistics and no other
    # field, and again when the config's t_max default became None (12.5 *
    # width ** 2 per component), which moved the echoed config alone, and
    # again when the normals and the uniforms got a stream each
    report = run(mu, open_set, SimConfig(n_particles=3000, seed=17, dt=1e-3))
    assert hashlib.sha256(repr(report).encode()).hexdigest() == digest


@st.composite
def _frozen_sides(draw):
    """(nl, nr, c, d, m, bins): m is 0, subnormal, up to twice the filling
    slot width, or puts a midpoint exactly on a histogram edge."""
    nl, nr = draw(st.integers(0, 3000)), draw(st.integers(0, 3000))
    c = draw(st.sampled_from([-0.0, 0.0, -1.0]) | st.floats(-1e6, 1e6))
    d = c + draw(st.floats(1e-3, 10.0))
    bins = draw(st.integers(1, 257))
    edge = float(np.linspace(c, d, bins + 1)[draw(st.integers(0, bins))])
    odd = 2 * draw(st.integers(0, max(nl, nr))) + 1
    m = draw(
        st.sampled_from([0.0, 2 * (edge - c) / odd, 2 * (d - edge) / odd])
        | st.floats(5e-324, 1e-300)
        | st.floats(0.0, 2.0).map(lambda f: f * (d - c) / max(nl + nr, 1))
    )
    return nl, nr, c, d, m, bins


@settings(max_examples=300, deadline=None)
@given(_frozen_sides())
@example((50, 50, -1.0, 1.0, 0.01, 400))  # every midpoint on an edge
@example((3, 4, -1.0, 2.0, 0.0, 5))  # all on c and d
@example((0, 0, -1.0, 2.0, 0.01, 7))  # nothing frozen
@example((1, 2, 1.0, 1.5, 5e-324, 3))  # slots that round to nothing
def test_midpoint_stats_match_numpy_on_the_midpoints(case):
    nl, nr, c, d, m, bins = case
    mean, std, edges, counts = walkers._midpoint_stats(nl, nr, c, d, m, bins)
    left, right = m * (np.arange(nl) + 0.5), m * (np.arange(nr) + 0.5)
    x = np.concatenate((c + left, d - right))
    want_counts, want_edges = np.histogram(x, bins=bins, range=(c, d))
    assert counts.tobytes() == want_counts.tobytes()
    assert edges.tobytes() == want_edges.tobytes()
    if not x.size:
        assert math.isnan(mean) and math.isnan(std)
        return
    assert abs(mean - x.mean()) <= 1e-12 * max(abs(c), abs(d), np.abs(x).max())
    # the std of the offsets from c: translation leaves it alone, while x
    # itself carries rounding to the ulps of c (1e-10 at 1e6)
    offsets = np.concatenate((left, (d - c) - right))
    assert abs(std - offsets.std()) <= 1e-12 * max(d - c, np.ptp(offsets))


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
    with walkers._Normals(np.random.default_rng(32), size) as normals:
        mid = walkers._bridge_point(x0, x1, a, span, normals)
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


def test_compare_to_formula_scales_with_the_input():
    # p_error and sigma_hat are masses: rescaling the input by s, with dt and
    # t_max by s**2, scales both by s
    rows = set()
    for s in (2.0**-10, 1.0, 2.0**10):
        mu, open_set = indicator(0.0, s * math.sqrt(0.75), 0.99), OpenSet1D.interval(-s, s)
        cfg = SimConfig(n_particles=2000, seed=21, dt=1e-3 * s * s, t_max=50.0 * s * s)
        row = compare_to_formula(run(mu, open_set, cfg), solve(mu, open_set)).rows[0]
        rows.add((row.p_error / s, row.sigma_hat / s))
    assert len(rows) == 1, rows


def test_compare_to_formula_rejects_mismatched_components():
    mu = indicator(-0.25, 0.25)
    sol = solve(mu, DOMAIN)
    rep = run(
        mu,
        OpenSet1D.interval(-2.0, 2.0),
        SimConfig(n_particles=2000, seed=4, dt=1e-3),
    )
    with pytest.raises(ValidationError, match="intervals disagree"):
        compare_to_formula(rep, sol)
    halves = OpenSet1D.of((-1.0, 0.0), (0.0, 1.0))
    rep = run(mu, halves, SimConfig(n_particles=200, seed=4, dt=1e-3))
    with pytest.raises(ValidationError, match="count mismatch"):
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
    # an admissible density 1 + excess carries more than the component's length,
    # so the frozen fronts cross by ~2 * excess; the frozen measure is the
    # component. The walk's slack was an absolute 1e-9, so 5e-10 and 1e-9,
    # admissible under the relative tolerance policy, raised "fronts crossed"
    for excess in (1e-13, 5e-10, 1e-9):
        mu = make_step_measure([-1.0, 1.0], [1.0 + excess])
        rep = run(mu, DOMAIN, SimConfig(n_particles=50, seed=1))
        assert rep.all_frozen
        comp = rep.components[0]
        assert comp.left_front > comp.right_front  # the crossing this guards
        assert rep.measure == indicator(-1.0, 1.0)


def test_left_fronts_past_touching_component_ends_join_the_frozen_blocks():
    # one walker per component at density 1 + 5e-10: where both walkers freeze
    # left, which the search below finds a seed for, each left front passes its component's end d by
    # 5e-10, over the next component's start, by more than the sort-and-clamp
    # reference (helpers.from_cells_reference) lets overlap; the frozen blocks
    # join into one
    O = OpenSet1D.of((-1.0, 0.0), (0.0, 1.0))
    mu = make_step_measure([-1.0, 1.0], [1.0 + 5e-10])
    reports = (run(mu, O, SimConfig(n_particles=2, seed=seed)) for seed in range(64))
    both_left = (r for r in reports if all(c.frozen_left for c in r.components))
    rep = next(both_left, None)
    assert rep is not None, "no seed below 64 sends both walkers left"
    assert all(c.left_front > c.interval[1] for c in rep.components)
    assert rep.measure == make_step_measure([-1.0, rep.components[1].left_front], [1.0])


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


def _mu1_run(s: float, shift: float = 0.0):
    """MU1's shape on (shift - s, shift + s), with dt and t_max scaled by s**2."""
    mu = indicator(shift, shift + s * math.sqrt(0.75), 0.99)
    cfg = SimConfig(n_particles=2000, seed=20240817, dt=1e-3 * s * s, t_max=50.0 * s * s)
    return run(mu, OpenSet1D.interval(shift - s, shift + s), cfg).components[0]


def test_default_times_scale_with_the_component():
    # dt and t_max default to 1e-4 and 12.5 times width ** 2, so a rescaled
    # input takes the same steps in its own frame. With an absolute t_max of
    # 50, MU1's shape on (-10, 10) left 267 of 2000 walkers unfrozen
    def frozen(s):
        mu = indicator(0.0, s * math.sqrt(0.75), 0.99)
        (comp,) = run(mu, OpenSet1D.interval(-s, s), SimConfig(n_particles=2000, seed=0)).components
        return comp.frozen_left, comp.frozen_right

    base = frozen(1.0)
    assert sum(base) == 2000
    assert all(frozen(2.0**j) == base for j in (-9, 3, 6))
    assert sum(frozen(50.0)) == 2000


def test_walk_does_not_depend_on_coordinates():
    # 2**130 and 2**-140 lie beyond float32's normal range, and at 1e7 a
    # float32 ulp is 1: absolute coordinates fail at each
    base = _mu1_run(1.0)  # 230 frozen left, 1770 right
    for j in (-400, -140, -3, 5, 130, 400):
        scaled = _mu1_run(2.0**j)
        assert (scaled.frozen_left, scaled.frozen_right) == (base.frozen_left, base.frozen_right)
    sigma = math.sqrt(base.p_hat * base.q_hat / base.n)  # binomial, on the left count
    for shift in (-1e12, -1e7, -1e3, 1e3, 1e7, 1e12):
        shifted = _mu1_run(1.0, shift)
        assert shifted.unfrozen == 0
        assert abs(shifted.p_hat - base.p_hat) <= 4.0 * sigma
