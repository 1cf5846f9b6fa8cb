"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a `criterion N: PASS/FAIL` line with the measured
quantities so the suite output doubles as a reproduction report. Runtime
limits are asserted with time.perf_counter around the measured section.
"""

import math
import time

import numpy as np

from stefan1d import (
    ConcaveGrid,
    OpenSet1D,
    critical_point,
    dominates,
    independence_check,
    indicator,
    lipschitz_closed_form_gap,
    lipschitz_closed_form_ratio,
    lipschitz_ratio,
    make_step_measure,
    monotonicity_report,
    order_leq_sh_O,
    potential,
    primal_objective,
    run,
    SimConfig,
    solve,
    solve_by_sweep,
    solve_component,
    sweep_states,
    weak_convergence_experiment,
)
from stefan1d.repro import (
    DOMAIN,
    EXAMPLE_5_1,
    LIPSCHITZ_CORNER,
    LIPSCHITZ_REFERENCE,
    MU1,
    MU2,
    WEAK_LS,
    weak_family,
)
from stefan1d.stability import LipschitzFamilyParams
from helpers import (
    first_moment_reference,
    random_admissible_measure,
    random_open_set,
    random_unit_blocks,
)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_reference_solution_endpoints():
    t0 = time.perf_counter()
    sol1 = solve(MU1, DOMAIN)
    sol2 = solve(MU2, DOMAIN)
    elapsed = time.perf_counter() - t0
    b1, b2 = sol1.blocks[0], sol2.blocks[0]
    errs = [
        abs(b1.e - (-0.896224371)),
        abs(b1.f - 0.246410478),
        abs(b2.e - (-0.978373786)),
        abs(b2.f - (-0.463373786)),
    ]
    beta_errs = [abs(first_moment_reference(mu) - 0.37125) for mu in (MU1, MU2)]
    ok = max(errs) <= 1e-6 and max(beta_errs) <= 1e-12 and elapsed < 1.0
    assert report(
        1,
        ok,
        f"endpoint err {max(errs):.2e} <= 1e-6, beta err {max(beta_errs):.2e} "
        f"<= 1e-12, {elapsed:.3f}s < 1s",
    )


def test_criterion_02_saturation_and_monotonicity_failure():
    narrow, saturated = EXAMPLE_5_1
    t0 = time.perf_counter()
    fixed = solve(saturated, DOMAIN)
    partial = solve(narrow, DOMAIN)
    rep = monotonicity_report(narrow, saturated, DOMAIN)
    elapsed = time.perf_counter() - t0
    exact_fixed_point = fixed.measure == saturated
    right_width = partial.blocks[0].q
    ok = (
        exact_fixed_point
        and right_width > 0.0
        and rep.monotone_in
        and not rep.monotone_out
        and elapsed < 1.0
    )
    assert report(
        2,
        ok,
        f"fixed point {exact_fixed_point}, right width {right_width:.6f} > 0, "
        f"in/out order {rep.monotone_in}/{rep.monotone_out}, {elapsed:.3f}s < 1s",
    )


def _pieces_outside(diff, open_set):
    bp = diff.breakpoints
    for i, coeffs in enumerate(diff.coeffs):
        lo = -math.inf if i == 0 else bp[i - 1]
        hi = math.inf if i == len(bp) else bp[i]
        overlaps = any(min(hi, d) > max(lo, c) for c, d in open_set.components)
        if not overlaps:
            yield coeffs


def test_criterion_03_potential_certification_random():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_coeff = 0.0
    for _ in range(200):
        open_set = random_open_set(rng)
        mu = random_admissible_measure(rng, open_set)
        sol = solve(mu, open_set)
        cert = order_leq_sh_O(mu, sol.measure, open_set)
        assert cert.ordered
        assert sol.certificate == cert
        worst_gap = max(worst_gap, cert.worst_gap)
        diff = potential(sol.measure) - potential(mu)
        for a, b, c in _pieces_outside(diff, open_set):
            worst_coeff = max(worst_coeff, abs(a), abs(b), abs(c))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-9 and worst_coeff <= 1e-9 and elapsed < 10.0
    assert report(
        3,
        ok,
        f"200 instances, worst gap {worst_gap:.2e} <= 1e-9, worst outside "
        f"coefficient {worst_coeff:.2e} <= 1e-9, {elapsed:.2f}s < 10s",
    )


def test_criterion_04_stationary_point_analysis():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    worst_root = 0.0
    worst_positive = -math.inf
    worst_end = 0.0
    for _ in range(100):
        k = float(rng.uniform(0.05, 1.95))
        half = k - 0.5 * k * k
        beta = float(rng.uniform(-0.98 * half, 0.98 * half))
        source = indicator(beta / k - 0.5 * k, beta / k + 0.5 * k)
        target = solve_component(-1.0, 1.0, k, beta).measure()
        s0 = 2.0 * beta * (1.0 - k) / (k * (2.0 - k))
        worst_root = max(worst_root, abs(critical_point(k, beta) - s0))
        diff = potential(target) - potential(source)
        top, _ = diff.max_on(-1.0, 1.0)
        worst_positive = max(worst_positive, top)
        worst_end = max(worst_end, abs(diff(-1.0)), abs(diff(1.0)))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_root <= 1e-10
        and worst_positive <= 1e-10
        and worst_end <= 1e-10
        and elapsed < 5.0
    )
    assert report(
        4,
        ok,
        f"100 draws, root defect {worst_root:.2e} <= 1e-10, interior max "
        f"{worst_positive:.2e} <= 1e-10, endpoint residue {worst_end:.2e} "
        f"<= 1e-10, {elapsed:.2f}s < 5s",
    )


def test_criterion_05_lipschitz_blowup():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    worst_in = worst_out = 0.0
    checked = 0
    params_list = [LIPSCHITZ_REFERENCE]
    while checked < 20:
        x = float(rng.uniform(0.3, 0.9))
        r = float(rng.uniform(0.3, 0.9))
        y = float(rng.uniform(1e-4, 0.02))
        c = float(rng.uniform(x + r * y + 1e-3, 0.999))
        try:
            params_list.append(LipschitzFamilyParams(x=x, y=y, r=r, c=c))
        except Exception:
            continue
        checked += 1
    for params in params_list:
        rep = lipschitz_ratio(params)
        worst_in = max(worst_in, abs(rep.input_l1_gap - params.r * params.y))
        worst_out = max(
            worst_out, abs(rep.output_l1_gap - lipschitz_closed_form_gap(params))
        )
    corner_ratio = lipschitz_closed_form_ratio(*LIPSCHITZ_CORNER)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_in <= 1e-9
        and worst_out <= 1e-9
        and corner_ratio > 100.0
        and elapsed < 1.0
    )
    assert report(
        5,
        ok,
        f"input gap defect {worst_in:.2e} <= 1e-9, target gap defect "
        f"{worst_out:.2e} <= 1e-9, corner ratio {corner_ratio:.1f} > 100, "
        f"{elapsed:.3f}s < 1s",
    )


def test_criterion_06_sweep_oracle_equivalence():
    rng = np.random.default_rng(66)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        nb = int(rng.integers(1, 7))
        mu = random_unit_blocks(rng, -1.0, 1.0, nb)
        sw = solve_by_sweep(mu, DOMAIN)
        direct = solve(mu, DOMAIN)
        gap = max(
            abs(a - b)
            for a, b in zip(sw.blocks[0].as_tuple(), direct.blocks[0].as_tuple())
        )
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    assert report(
        6,
        ok,
        f"200 instances, worst endpoint gap {worst:.2e} <= 1e-8, "
        f"{elapsed:.2f}s < 5s",
    )


def test_criterion_07_particle_validation():
    t0 = time.perf_counter()
    sol = solve(MU1, DOMAIN)
    p_true = sol.blocks[0].p

    rep = run(MU1, DOMAIN, SimConfig(n_particles=100_000, seed=12345, dt=1e-4))
    comp = rep.components[0]
    all_frozen = comp.unfrozen == 0
    counts_exact = comp.frozen_left + comp.frozen_right == comp.n
    mass_defect = abs(comp.p_hat + comp.q_hat - MU1.mass)
    split_err = abs(comp.p_hat - 0.103776)

    means = []
    for n in (1_000, 10_000, 100_000):
        errs = [
            abs(
                run(MU1, DOMAIN, SimConfig(n_particles=n, seed=777_000 + s, dt=1e-3))
                .components[0]
                .p_hat
                - p_true
            )
            for s in range(20)
        ]
        means.append(float(np.mean(errs)))
    slope = float(
        np.polyfit(np.log([1e3, 1e4, 1e5]), np.log(means), 1)[0]
    )
    elapsed = time.perf_counter() - t0
    ok = (
        all_frozen
        and counts_exact
        and mass_defect <= 1e-12
        and split_err <= 0.005
        and -0.65 <= slope <= -0.35
        and elapsed < 60.0
    )
    assert report(
        7,
        ok,
        f"all frozen {all_frozen}, count conservation {counts_exact}, "
        f"|p+q-k| {mass_defect:.1e} <= 1e-12, split err {split_err:.5f} <= 0.005, "
        f"slope {slope:.3f} in -0.5 +/- 0.15, {elapsed:.1f}s < 60s",
    )


def test_criterion_08_cost_independence():
    rng = np.random.default_rng(88)
    t0 = time.perf_counter()
    costs = [
        ConcaveGrid.from_function(f, -1.0, 1.0, 2001)
        for f in (lambda x: -x * x, lambda x: -x**4, lambda x: -math.cosh(x))
    ]
    linear = ConcaveGrid.from_function(lambda x: x, -1.0, 1.0, 2001)
    all_ok = True
    worst_linear = 0.0
    for _ in range(20):
        nb = int(rng.integers(3, 5))
        mu = random_unit_blocks(rng, -1.0, 1.0, nb)
        states = sweep_states(mu, DOMAIN)
        sol = solve(mu, DOMAIN)
        candidates = [mu] + states[:2] + [sol.measure]
        rep = independence_check(mu, DOMAIN, candidates, costs)
        all_ok = all_ok and rep.ok and all(rep.argmin_is_maximal)
        beta = first_moment_reference(mu)
        for cand in candidates:
            worst_linear = max(worst_linear, abs(primal_objective(cand, linear) - beta))
    elapsed = time.perf_counter() - t0
    ok = all_ok and worst_linear <= 1e-10 and elapsed < 5.0
    assert report(
        8,
        ok,
        f"20 instances x 3 costs argmin at target {all_ok}, linear-cost defect "
        f"{worst_linear:.2e} <= 1e-10, {elapsed:.2f}s < 5s",
    )


def test_criterion_09_weak_convergence_stability():
    t0 = time.perf_counter()
    seq, mu = weak_family()
    table = weak_convergence_experiment(seq, mu, DOMAIN)
    gaps = [row.l1_gap for row in table.rows]
    # The family has beta = 0 and k = 1 - 1/l, so the closed form gives
    # p = q = k/2: each interior endpoint moves by 1/(2l) from the limit's,
    # and the L1 gap to the limit target is exactly 1/l.
    rate_defect = max(abs(gap - 1.0 / l) for gap, l in zip(gaps, WEAK_LS))
    rate_ok = rate_defect <= 1e-12
    bound_ok = all(
        row.l1_gap <= 4.0 * (row.mass_gap + row.moment_gap) + 1e-12
        for row in table.rows
    )
    monotone_ok = all(a > b for a, b in zip(gaps, gaps[1:]))
    elapsed = time.perf_counter() - t0
    ok = (
        rate_ok
        and table.bounded
        and bound_ok
        and monotone_ok
        and elapsed < 1.0
    )
    assert report(
        9,
        ok,
        f"|gap - 1/l| {rate_defect:.2e} <= 1e-12 for l = 2..64, "
        f"bounded by sensitivity {table.constant:.3f} {table.bounded}, "
        f"bound by 4(|dk|+|dbeta|) {bound_ok}, monotone {monotone_ok}, "
        f"final gap {gaps[-1]:.6f}, {elapsed:.3f}s < 1s",
    )


def test_criterion_10_componentwise_order_counterexample():
    t0 = time.perf_counter()
    mu = make_step_measure([-0.5, 0.5], [1.0])
    nu = make_step_measure([-1.0, -0.5, 0.5, 1.0], [1.0, 0.0, 1.0])
    split = OpenSet1D.of((-1.0, 0.0), (0.0, 1.0))
    cert_split = order_leq_sh_O(mu, nu, split)
    cert_global = dominates(mu, nu)
    elapsed = time.perf_counter() - t0
    ok = (not cert_split.ordered) and cert_global.ordered and elapsed < 1.0
    assert report(
        10,
        ok,
        f"componentwise ordered {cert_split.ordered} (moment gap "
        f"{cert_split.moment_gap:.3f}), global ordered {cert_global.ordered}, "
        f"{elapsed:.3f}s < 1s",
    )
