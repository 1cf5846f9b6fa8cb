"""Named reproduction scenarios with expected values and tolerances.

The paper's scenario inputs are defined once, below; the command line and
the acceptance tests read them from here. Each scenario pins inputs, the
expected outputs, a comparison tolerance and a provenance label: "reference"
for values quoted from the source analysis, "derived" for values recomputed
here by an independent route, "direct" for elementary facts. The manifest is
deterministic, including the particle cross-check, which runs on a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .measure import OpenSet1D, StepMeasure, indicator, l1_distance, pointwise_leq
from .particles import SimConfig, compare_to_formula, run
from .solver import critical_point, solve
from .stability import (
    LipschitzFamilyParams,
    lipschitz_closed_form_gap,
    lipschitz_closed_form_ratio,
    lipschitz_ratio,
    monotonicity_report,
    weak_convergence_experiment,
)

# -- scenario inputs ----------------------------------------------------------

DOMAIN = OpenSet1D.interval(-1.0, 1.0)

#: Example 5.2: mu1 <= mu2 with equal first moments 0.37125; the targets are
#: not ordered.
MU1 = indicator(0.0, math.sqrt(0.75), 0.99)
MU2 = indicator(-0.5, 1.0, 0.99)

#: Example 5.1: chi_(-0.9, 0) <= chi_(-1, 0); the second is saturated, so it
#: is its own target, and the targets are not ordered.
EXAMPLE_5_1 = (indicator(-0.9, 0.0), indicator(-1.0, 0.0))

#: The Lipschitz blow-up family: a feasible reference point, the (x, y, r, c)
#: corner where the closed-form ratio exceeds 100, and the rungs x = r = t,
#: c = (1 + t)/2, y = 1e-3 of the command line table.
LIPSCHITZ_REFERENCE = LipschitzFamilyParams(x=0.9, y=0.01, r=0.9, c=0.99)
LIPSCHITZ_CORNER = (0.999, 1e-4, 0.999, 0.999)
LIPSCHITZ_LADDER = (0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.93, 0.95)

#: Weak-convergence family (1 - 1/l) chi_(-1/2, 1/2), indexed by l.
WEAK_LS = range(2, 65)


def lipschitz_ladder() -> list[LipschitzFamilyParams]:
    return [
        LipschitzFamilyParams(x=t, y=1e-3, r=t, c=0.5 * (t + 1.0))
        for t in LIPSCHITZ_LADDER
    ]


def weak_family() -> tuple[list[StepMeasure], StepMeasure]:
    """The members for l in WEAK_LS and their limit chi_(-1/2, 1/2)."""
    return (
        [indicator(-0.5, 0.5, 1.0 - 1.0 / l) for l in WEAK_LS],
        indicator(-0.5, 0.5),
    )


# -- manifest -----------------------------------------------------------------


@dataclass(frozen=True)
class CheckRow:
    quantity: str
    expected: float
    computed: float
    tol: float
    provenance: str

    @property
    def passed(self) -> bool:
        return abs(self.computed - self.expected) <= self.tol

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass(frozen=True)
class Scenario:
    name: str
    rows: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "rows": [r.to_json() for r in self.rows],
        }


@dataclass(frozen=True)
class ReproManifest:
    scenarios: tuple[Scenario, ...]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.scenarios)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "scenarios": [s.to_json() for s in self.scenarios],
        }

    def format_table(self) -> str:
        lines = [
            f"{'scenario':<24} {'quantity':<38} {'expected':>16} "
            f"{'computed':>16} {'tol':>9} {'prov':<10} status"
        ]
        for sc in self.scenarios:
            for r in sc.rows:
                lines.append(
                    f"{sc.name:<24} {r.quantity:<38} {r.expected:>16.12g} "
                    f"{r.computed:>16.12g} {r.tol:>9.1e} {r.provenance:<10} "
                    f"{'pass' if r.passed else 'FAIL'}"
                )
            lines.append(
                f"{sc.name:<24} {'[scenario]':<38} {'':>16} {'':>16} {'':>9} "
                f"{'':<10} {'pass' if sc.passed else 'FAIL'}"
            )
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _scenario_example_5_1() -> Scenario:
    narrow, saturated = EXAMPLE_5_1
    right_width = solve(narrow, DOMAIN).blocks[0].q
    report = monotonicity_report(narrow, saturated, DOMAIN)
    diff = l1_distance(report.nu2, saturated)
    rows = (
        CheckRow("saturated input is a fixed point (L1)", 0.0, diff, 1e-12, "reference"),
        CheckRow(
            "right block width of chi(-0.9,0) target",
            0.9 / 1.1 * 0.1,  # q = k - p with p = k/(2-k) scaled, equals 9/110
            right_width,
            1e-12,
            "derived",
        ),
        CheckRow("inputs ordered", 1.0, 1.0 if report.monotone_in else 0.0, 0.0, "direct"),
        CheckRow(
            "targets not ordered", 0.0, 1.0 if report.monotone_out else 0.0, 0.0, "reference"
        ),
    )
    return Scenario("example_5_1", rows)


def _scenario_example_5_2() -> Scenario:
    t_endpoint, t_beta = 1e-6, 1e-12
    sol1 = solve(MU1, DOMAIN)
    sol2 = solve(MU2, DOMAIN)
    b1 = sol1.blocks[0]
    b2 = sol2.blocks[0]
    (_, beta1), (_, beta2) = sol1.provenance[0], sol2.provenance[0]
    rows = (
        CheckRow("first moment of mu1", 0.37125, beta1, t_beta, "reference"),
        CheckRow("first moment of mu2", 0.37125, beta2, t_beta, "reference"),
        CheckRow("A1 left block end", -0.896224371, b1.e, t_endpoint, "reference"),
        CheckRow("A1 right block start", 0.246410478, b1.f, t_endpoint, "reference"),
        CheckRow("A2 left block end", -0.978373786, b2.e, t_endpoint, "reference"),
        CheckRow("A2 right block start", -0.463373786, b2.f, t_endpoint, "reference"),
        CheckRow(
            "targets not ordered despite ordered inputs",
            0.0,
            1.0 if pointwise_leq(sol1.measure, sol2.measure) else 0.0,
            0.0,
            "reference",
        ),
    )
    return Scenario("example_5_2", rows)


def _scenario_lipschitz_family() -> Scenario:
    t = 1e-9
    params = LIPSCHITZ_REFERENCE
    report = lipschitz_ratio(params)
    rows = (
        CheckRow(
            "input gap equals r*y",
            params.r * params.y,
            report.input_l1_gap,
            t,
            "reference",
        ),
        CheckRow(
            "target gap equals closed form",
            lipschitz_closed_form_gap(params),
            report.output_l1_gap,
            t,
            "reference",
        ),
        CheckRow(
            "gap ratio", 3.761 / 0.76, report.closed_form_ratio, t, "derived"
        ),
        CheckRow(
            "ratio at the blow-up corner exceeds 100",
            1.0,
            1.0 if lipschitz_closed_form_ratio(*LIPSCHITZ_CORNER) > 100.0 else 0.0,
            0.0,
            "derived",
        ),
    )
    return Scenario("lipschitz_family", rows)


def _scenario_appendix_critical_point() -> Scenario:
    import numpy as np  # here, so that `import stefan1d` does not load numpy

    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        k = rng.uniform(0.05, 1.95)
        half = k - 0.5 * k * k
        beta = rng.uniform(-0.98 * half, 0.98 * half)
        # the vertex the order walk finds, against the appendix's closed form
        closed_form = 2.0 * beta * (1.0 - k) / (k * (2.0 - k))
        worst = max(worst, abs(critical_point(k, beta) - closed_form))
    rows = (
        CheckRow(
            "worst stationary-point defect over 100 draws",
            0.0,
            worst,
            1e-10,
            "reference",
        ),
    )
    return Scenario("appendix_critical_point", rows)


def _scenario_weak_convergence() -> Scenario:
    t = 1e-9
    seq, mu = weak_family()
    table = weak_convergence_experiment(seq, mu, DOMAIN)
    worst_defect = max(abs(row.l1_gap - 1.0 / l) for l, row in zip(WEAK_LS, table.rows))
    monotone = all(
        table.rows[i].l1_gap > table.rows[i + 1].l1_gap
        for i in range(len(table.rows) - 1)
    )
    bound4 = all(
        row.l1_gap <= 4.0 * (row.mass_gap + row.moment_gap) + 1e-12
        for row in table.rows
    )
    rows = (
        CheckRow("L1 gaps equal 1/l (worst defect)", 0.0, worst_defect, t, "derived"),
        CheckRow("gaps decrease monotonically", 1.0, 1.0 if monotone else 0.0, 0.0, "derived"),
        CheckRow(
            "gaps bounded by 4 (|dk| + |dbeta|)", 1.0, 1.0 if bound4 else 0.0, 0.0, "derived"
        ),
        CheckRow("final gap at l = 64", 1.0 / 64.0, table.rows[-1].l1_gap, t, "derived"),
    )
    return Scenario("weak_convergence", rows)


def _scenario_particle_cross_check() -> Scenario:
    sol = solve(MU1, DOMAIN)
    report = run(MU1, DOMAIN, SimConfig(n_particles=20000, seed=20240817, dt=1e-3))
    comparison = compare_to_formula(report, sol)
    rows = (
        CheckRow(
            "all walkers frozen",
            0.0,
            float(sum(c.unfrozen for c in report.components)),
            0.0,
            "direct",
        ),
        CheckRow(
            "mass accounting p+q-k",
            0.0,
            report.components[0].p_hat + report.components[0].q_hat - MU1.mass,
            1e-12,
            "direct",
        ),
        CheckRow(
            "frozen split vs solver block width",
            sol.blocks[0].p,
            report.components[0].p_hat,
            0.01,
            "derived",
        ),
        CheckRow(
            "frozen measure L1 gap", 0.0, comparison.total_l1, 0.02, "derived"
        ),
    )
    return Scenario("particle_cross_check", rows)


def run_manifest() -> ReproManifest:
    """Run every scenario, each row at its own fixed comparison tolerance."""
    return ReproManifest(
        (
            _scenario_example_5_1(),
            _scenario_example_5_2(),
            _scenario_lipschitz_family(),
            _scenario_appendix_critical_point(),
            _scenario_weak_convergence(),
            _scenario_particle_cross_check(),
        )
    )
