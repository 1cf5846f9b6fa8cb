"""The four workloads: seeded inputs, the operations of one round, their checks.

Every workload is a closed loop of calls from one thread: the next operation
starts when the previous one has returned. A round is a fixed list of
operations; a run repeats whole rounds. Inputs come from the seed alone and
are made, and for the command line written to files, during set-up. The
operations call the package through module attributes looked up at call
time (``sf.solver.solve``), so the traced run's rebound names take effect.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks

DOMAIN = (-1.0, 1.0)


class OperationError(Exception):
    """An operation ended without a result: a command returned a non-zero exit code."""


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], Any]  # the timed call into the package
    check: Callable[[Any], list[str]]  # untimed; failure messages, empty when right


def _cli(sf, argv: list[str]) -> int:
    code = sf.cli.main(argv)
    failures = checks.check_exit(code)
    if failures:
        raise OperationError(f"stefan1d {argv[0]}: {failures[0]}")
    return code


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _cells(breaks: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return breaks[:-1], breaks[1:], values


# -- fine_grid: one component, 4000 cells, solved through the command line ------------


class FineGrid:
    """One component (-1, 1); 4000 cells on (-0.9, 0.9) with densities in [0, 1).

    Each solve goes through ``stefan1d solve`` in-process with JSON files, so
    input parsing and the certificate on a long break grid dominate, while
    restriction scans a single component.
    """

    name = "fine_grid"
    warm_up = True
    inputs = 8
    cells = 4000

    def setup(self, sf, rng: np.random.Generator, workdir: str):
        state = []
        breaks = np.linspace(-0.9, 0.9, self.cells + 1)
        for i in range(self.inputs):
            values = rng.uniform(0.0, 1.0, self.cells)
            path = os.path.join(workdir, f"solve-{i}.json")
            _write(
                path,
                {
                    "measure": {"breaks": breaks.tolist(), "values": values.tolist()},
                    "open_set": {"components": [list(DOMAIN)]},
                },
            )
            state.append((path, os.path.join(workdir, f"solved-{i}.json"), _cells(breaks, values)))
        return state

    def round(self, sf, state, index: int) -> list[Op]:
        return [self._op(sf, *entry) for entry in state]

    @staticmethod
    def _op(sf, path, out, cells) -> Op:
        def check(_code) -> list[str]:
            result = _load(out)
            (c, e, f, d), = result["blocks"]
            return checks.check_component(c, d, cells, e, f) + checks.check_certificate(
                result["certificate"]
            )

        return Op("cli.solve", lambda: _cli(sf, ["solve", "--input", path, "--out", out]), check)


# -- many_components: 200 short components, solved by the library ------------------------


class ManyComponents:
    """200 components of width 0.5-1.5 separated by gaps, four cells each.

    Restriction rescans every cell for every component, three times per
    solve, so this workload moves with the multi-component path. The hull
    stays near (-120, 125), well inside the range where translated solves
    still certify.
    """

    name = "many_components"
    warm_up = True
    inputs = 4
    components = 200
    cells = 4

    def setup(self, sf, rng: np.random.Generator, workdir: str):
        state = []
        for _ in range(self.inputs):
            comps, parts = [], []
            breaks: list[float] = []
            values: list[float] = []
            left = -120.0
            for _ in range(self.components):
                width = rng.uniform(0.5, 1.5)
                c, d = left, left + width
                lo = c + width * rng.uniform(0.05, 0.3)
                hi = d - width * rng.uniform(0.05, 0.3)
                pts = np.linspace(lo, hi, self.cells + 1)
                vals = rng.uniform(0.0, 1.0, self.cells)
                if breaks:
                    values.append(0.0)
                breaks.extend(pts.tolist())
                values.extend(vals.tolist())
                comps.append((c, d))
                parts.append(_cells(pts, vals))
                left = d + rng.uniform(0.05, 0.4)
            mu = sf.make_step_measure(breaks, values)
            state.append((mu, sf.OpenSet1D.of(*comps), comps, parts))
        return state

    def round(self, sf, state, index: int) -> list[Op]:
        return [self._op(sf, *entry) for entry in state]

    @staticmethod
    def _op(sf, mu, open_set, comps, parts) -> Op:
        def check(sol) -> list[str]:
            errors = checks.check_certificate({"ordered": sol.certificate.ordered})
            if len(sol.blocks) != len(comps):
                return errors + [f"{len(sol.blocks)} blocks for {len(comps)} components"]
            for (c, d), cells, b in zip(comps, parts, sol.blocks):
                if (b.c, b.d) != (c, d):
                    errors.append(f"block ({b.c}, {b.d}) on component ({c}, {d})")
                errors += checks.check_component(c, d, cells, b.e, b.f)
            return errors

        return Op("solve", lambda: sf.solver.solve(mu, open_set), check)


# -- particle_split: the front-freezing cross-check through the command line ---------------


class ParticleSplit:
    """mu = 0.99 chi_(0, sqrt(0.75)) on (-1, 1), n = 100 000 walkers, dt = 1e-4.

    One operation is ``stefan1d simulate`` plus the library's comparison of
    the frozen split with the solver; Gaussian and uniform draws for the
    walker steps do nearly all of the work.
    """

    name = "particle_split"
    warm_up = False  # one operation lasts about ten seconds
    n = 100_000
    dt = 1e-4
    top = math.sqrt(0.75)
    density = 0.99

    def setup(self, sf, rng: np.random.Generator, workdir: str):
        path = os.path.join(workdir, "simulate.json")
        mu = {"breaks": [0.0, self.top], "values": [self.density]}
        _write(
            path,
            {
                "measure": mu,
                "open_set": {"components": [list(DOMAIN)]},
                "config": {"n_particles": self.n, "dt": self.dt},
            },
        )
        k, beta_local = checks.mass_moment(
            DOMAIN[0], np.array([0.0]), np.array([self.top]), np.array([self.density])
        )
        e, _ = checks.closed_form(*DOMAIN, k, beta_local)
        return {
            "path": path,
            "out": os.path.join(workdir, "simulated.json"),
            "seed0": int(rng.integers(0, 2**31)),
            "k": k,
            "p": e - DOMAIN[0],
            "mu": sf.StepMeasure.from_json(mu),
            "open_set": sf.OpenSet1D.interval(*DOMAIN),
        }

    def round(self, sf, state, index: int) -> list[Op]:
        seed = state["seed0"] + index
        argv = ["simulate", "--input", state["path"], "--out", state["out"], "--seed", str(seed)]

        def run():
            _cli(sf, argv)
            obj = _load(state["out"])
            solution = sf.solver.solve(state["mu"], state["open_set"])
            comparison = sf.particles.compare_to_formula(_run_report(sf, obj), solution)
            return obj["components"][0], comparison

        def check(result) -> list[str]:
            comp, comparison = result
            return (
                checks.check_particle_counts(comp)
                + checks.check_particle_mass(comp, state["k"])
                + checks.check_particle_split(comp, state["p"])
                + checks.check_formula_comparison(comparison.max_p_error, comp, state["p"])
            )

        return [Op("cli.simulate", run, check)]


def _run_report(sf, obj: dict):
    """Rebuild the library's RunReport from the command's JSON report."""
    comps = tuple(
        sf.particles.ComponentRunReport(
            **{
                key: tuple(value) if isinstance(value, list) else value
                for key, value in comp.items()
            }
        )
        for comp in obj["components"]
    )
    return sf.particles.RunReport(
        components=comps,
        measure=sf.StepMeasure.from_json(obj["measure"]),
        config=sf.SimConfig(**obj["config"]),
    )


# -- paper_checks: the paper's small computations, many calls ------------------------------


LIPSCHITZ_LADDER = (0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.93, 0.95)
LIPSCHITZ_Y = 1e-3
WEAK_LS = tuple(range(2, 65))


def unit_blocks(rng: np.random.Generator, n_blocks: int, margin: float = 0.02):
    """Disjoint unit blocks strictly inside (-1, 1), separated by seeded gaps."""
    c, d = DOMAIN
    lo, hi = c + margin * (d - c), d - margin * (d - c)
    weights = rng.uniform(0.2, 1.0, 2 * n_blocks + 1)
    edges = lo + (hi - lo) * np.cumsum(weights)[:-1] / weights.sum()
    return [(float(edges[2 * i]), float(edges[2 * i + 1])) for i in range(n_blocks)]


def blocks_measure(sf, blocks):
    breaks = [x for block in blocks for x in block]
    values = [1.0 if i % 2 == 0 else 0.0 for i in range(len(breaks) - 1)]
    return sf.make_step_measure(breaks, values)


class PaperChecks:
    """Many small inputs through solve, the certificate, the sweep oracle and stability.

    A round holds 4 cost-independence instances (3-6 unit blocks, sweep
    states and the solution as candidates, three concave costs on 2001-node
    grids), 24 sweep-versus-solve instances (1-6 blocks, four times), the
    weak-convergence family l = 2..64, the 8-rung Lipschitz ladder and the two
    monotonicity examples: 39 operations. The sweeps make up more than half of
    a round, so the median operation is a small solve and shows per-call
    overhead.
    """

    name = "paper_checks"
    warm_up = True
    pool = 4  # distinct seeded rounds, cycled
    independence_blocks = (3, 4, 5, 6)
    sweep_blocks = (1, 2, 3, 4, 5, 6) * 4
    cost_nodes = 2001

    def setup(self, sf, rng: np.random.Generator, workdir: str):
        domain = sf.OpenSet1D.interval(*DOMAIN)
        costs = [
            sf.ConcaveGrid.from_function(fn, *DOMAIN, self.cost_nodes)
            for fn in (lambda x: -x * x, lambda x: -(x**4), lambda x: -math.cosh(x))
        ]
        rounds = []
        for _ in range(self.pool):
            independence = []
            for nb in self.independence_blocks:
                independence.append(blocks_measure(sf, unit_blocks(rng, nb)))
            sweeps = []
            for nb in self.sweep_blocks:
                blocks = unit_blocks(rng, nb)
                sweeps.append((blocks, blocks_measure(sf, blocks)))
            rounds.append((independence, sweeps))
        weak_limit = sf.indicator(-0.5, 0.5)
        weak_seq = [sf.indicator(-0.5, 0.5, 1.0 - 1.0 / l) for l in WEAK_LS]
        monotone = [
            ("example_5_1", sf.indicator(-0.9, 0.0), sf.indicator(-1.0, 0.0)),
            (
                "example_5_2",
                sf.indicator(0.0, math.sqrt(0.75), 0.99),
                sf.indicator(-0.5, 1.0, 0.99),
            ),
        ]
        return {
            "domain": domain,
            "costs": costs,
            "rounds": rounds,
            "weak": (weak_seq, weak_limit),
            "monotone": monotone,
        }

    def round(self, sf, state, index: int) -> list[Op]:
        domain = state["domain"]
        independence, sweeps = state["rounds"][index % self.pool]
        ops = [self._independence(sf, mu, domain, state["costs"]) for mu in independence]
        ops += [self._sweep(sf, blocks, mu, domain) for blocks, mu in sweeps]
        ops.append(self._weak(sf, *state["weak"], domain))
        ops += [self._lipschitz(sf, t) for t in LIPSCHITZ_LADDER]
        ops += [self._monotone(sf, *pair, domain) for pair in state["monotone"]]
        return ops

    @staticmethod
    def _independence(sf, mu, domain, costs) -> Op:
        def run():
            states = sf.solver.sweep_states(mu, domain)
            solution = sf.solver.solve(mu, domain)
            return sf.solver.independence_check(mu, domain, states + [solution.measure], costs)

        return Op(
            "independence_check",
            run,
            lambda rep: checks.check_independence(rep.ok, rep.argmin_is_maximal),
        )

    @staticmethod
    def _sweep(sf, blocks, mu, domain) -> Op:
        def run():
            return sf.solver.solve_by_sweep(mu, domain), sf.solver.solve(mu, domain)

        def check(result) -> list[str]:
            errors = []
            for sol in result:
                b = sol.blocks[0]
                errors += checks.check_sweep(b.c, b.d, blocks, b.e, b.f)
            return errors

        return Op("sweep", run, check)

    @staticmethod
    def _weak(sf, seq, limit, domain) -> Op:
        def check(table) -> list[str]:
            return checks.check_weak_gaps([r.l1_gap for r in table.rows], WEAK_LS, table.bounded)

        return Op(
            "weak_convergence",
            lambda: sf.stability.weak_convergence_experiment(seq, limit, domain),
            check,
        )

    @staticmethod
    def _lipschitz(sf, t: float) -> Op:
        params = (t, LIPSCHITZ_Y, t, 0.5 * (t + 1.0))

        def run():
            x, y, r, c = params
            return sf.stability.lipschitz_ratio(
                sf.stability.LipschitzFamilyParams(x=x, y=y, r=r, c=c)
            )

        return Op(
            "lipschitz",
            run,
            lambda rep: checks.check_lipschitz(params, rep.input_l1_gap, rep.output_l1_gap),
        )

    @staticmethod
    def _monotone(sf, name, mu1, mu2, domain) -> Op:
        return Op(
            "monotonicity",
            lambda: sf.stability.monotonicity_report(mu1, mu2, domain),
            lambda rep: checks.check_monotonicity(name, rep.monotone_in, rep.monotone_out),
        )


WORKLOADS = {w.name: w for w in (FineGrid(), ManyComponents(), ParticleSplit(), PaperChecks())}
