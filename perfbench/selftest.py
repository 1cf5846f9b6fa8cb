"""Show that every output check of the benchmark bites.

    python3 perfbench/selftest.py

Each case takes a real output of the package (or, for the particle checks, a
report built from the closed form), confirms that the check accepts it, then
feeds the check a perturbed copy and expects a failure. Exits 1 if any check
rejects a right output or accepts a perturbed one.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import checks
import run
from workloads import LIPSCHITZ_LADDER, LIPSCHITZ_Y, WEAK_LS, blocks_measure, unit_blocks


def _cases(sf):
    rng = np.random.default_rng(7)
    domain = sf.OpenSet1D.interval(-1.0, 1.0)

    # a solve on a seeded step density, away from the origin
    c, d = 40.0, 42.0
    breaks = np.linspace(c + 0.2, d - 0.2, 401)
    values = rng.uniform(0.0, 1.0, 400)
    cells = (breaks[:-1], breaks[1:], values)
    sol = sf.solver.solve(
        sf.make_step_measure(breaks.tolist(), values.tolist()), sf.OpenSet1D.interval(c, d)
    )
    b = sol.blocks[0]
    k, beta = checks.mass_moment(c, *cells)
    centre = c + beta / k  # one unit block with the input's mass and moment
    yield "endpoints", lambda de: checks.check_endpoints(c, d, k, beta, b.e + de, b.f), 1e-6
    yield "block mass", lambda de: checks.check_block_mass(c, d, k, b.e + de, b.f), 1e-6
    yield "block moment", lambda de: checks.check_block_moment(c, d, beta, b.e + de, b.f + de), 1e-6
    yield (
        "potential order",
        lambda concentrated: checks.check_potential_order(
            c,
            d,
            cells,
            ([centre - k / 2], [centre + k / 2], [1.0])
            if concentrated
            else ([c, b.f], [b.e, d], [1.0, 1.0]),
        ),
        True,
    )
    yield (
        "certificate",
        lambda flip: checks.check_certificate({"ordered": sol.certificate.ordered != flip}),
        True,
    )
    yield "exit code", lambda code: checks.check_exit(code), 4

    # a particle report whose split is the closed form, to walker resolution
    n, top = 100_000, math.sqrt(0.75)
    k1, beta1 = checks.mass_moment(-1.0, np.array([0.0]), np.array([top]), np.array([0.99]))
    p = checks.closed_form(-1.0, 1.0, k1, beta1)[0] + 1.0
    left = round(p / (k1 / n))
    comp = {"n": n, "frozen_left": left, "frozen_right": n - left}
    comp["p_hat"] = k1 / n * left
    comp["q_hat"] = k1 - comp["p_hat"]

    def with_(key, delta):
        return {**comp, key: comp[key] + delta}

    yield "particle counts", lambda dl: checks.check_particle_counts(with_("frozen_left", dl)), -1
    yield "particle mass", lambda dq: checks.check_particle_mass(with_("q_hat", dq), k1), 1e-9
    yield "particle split", lambda dp: checks.check_particle_split(with_("p_hat", dp), p), 0.01
    yield (
        "formula comparison",
        lambda de: checks.check_formula_comparison(abs(comp["p_hat"] - p) + de, comp, p),
        1e-6,
    )

    # paper checks
    mu = blocks_measure(sf, unit_blocks(rng, 4))
    states = sf.solver.sweep_states(mu, domain)
    rep = sf.solver.independence_check(
        mu, domain, states + [sf.solver.solve(mu, domain).measure],
        [sf.ConcaveGrid.from_function(lambda x: -x * x, -1.0, 1.0, 2001)],
    )
    yield "independence ok", lambda flip: checks.check_independence(rep.ok != flip, rep.argmin_is_maximal), True
    yield (
        "independence argmin",
        lambda flip: checks.check_independence(rep.ok, [not flip] + list(rep.argmin_is_maximal[1:])),
        True,
    )
    blocks = unit_blocks(rng, 5)
    sweep = sf.solver.solve_by_sweep(blocks_measure(sf, blocks), domain).blocks[0]
    yield "sweep endpoints", lambda de: checks.check_sweep(-1.0, 1.0, blocks, sweep.e + de, sweep.f), 1e-6
    limit = sf.indicator(-0.5, 0.5)
    table = sf.stability.weak_convergence_experiment(
        [sf.indicator(-0.5, 0.5, 1.0 - 1.0 / l) for l in WEAK_LS], limit, domain
    )
    gaps = [r.l1_gap for r in table.rows]
    yield (
        "weak gaps",
        lambda shift: checks.check_weak_gaps(
            [1.0 / (l + 1) for l in WEAK_LS] if shift else gaps, WEAK_LS, table.bounded
        ),
        True,
    )
    t = LIPSCHITZ_LADDER[-1]
    params = (t, LIPSCHITZ_Y, t, 0.5 * (t + 1.0))
    lip = sf.stability.lipschitz_ratio(sf.stability.LipschitzFamilyParams(*params))
    yield (
        "lipschitz target gap",
        lambda de: checks.check_lipschitz(params, lip.input_l1_gap, lip.output_l1_gap + de),
        1e-6,
    )
    yield (
        "lipschitz input gap",
        lambda de: checks.check_lipschitz(params, lip.input_l1_gap + de, lip.output_l1_gap),
        1e-6,
    )
    mono = sf.stability.monotonicity_report(sf.indicator(-0.9, 0.0), sf.indicator(-1.0, 0.0), domain)
    yield (
        "monotonicity flags",
        lambda flip: checks.check_monotonicity("example_5_1", mono.monotone_in, mono.monotone_out != flip),
        True,
    )


def main() -> int:
    sf = run.import_package()
    bad = 0
    for name, check, perturbation in _cases(sf):
        right = check(type(perturbation)())  # 0, 0.0 or False: the output as computed
        wrong = check(perturbation)
        ok = not right and bool(wrong)
        bad += not ok
        detail = right[0] if right else (wrong[0] if wrong else "perturbed output accepted")
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"{bad} of the checks misbehaved" if bad else "every check accepts the output and rejects its perturbation")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
