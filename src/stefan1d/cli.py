"""Command line front end.

Subcommands: solve, order, potential, simulate, stability, repro.
Exit codes: 0 success, 1 parse error, 2 domain error, 3 verification
failure, 4 simulation incomplete, 5 repro scenario failure. Numeric output
is printed with 12 significant digits so golden-file comparisons are
meaningful.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from itertools import chain

from .errors import (
    AdmissibilityError,
    InfeasibilityError,
    ValidationError,
    VerificationError,
)
from .measure import DEFAULT_TOL, OpenSet1D, StepMeasure
from .particles import SimConfig, run
from .potential import dominates, order_leq_sh_O, potential
from .repro import (
    DOMAIN,
    EXAMPLE_5_1,
    LIPSCHITZ_CORNER,
    MU1,
    MU2,
    lipschitz_ladder,
    run_manifest,
    weak_family,
)
from .solver import solve
from .stability import (
    lipschitz_closed_form_ratio,
    lipschitz_ratio,
    monotonicity_report,
    weak_convergence_experiment,
)


class CliInputError(Exception):
    """Input file missing, unreadable, or structurally malformed."""


_DOMAIN_ERRORS = (ValidationError, InfeasibilityError, AdmissibilityError)


def _fmt(x: float) -> float:
    if isinstance(x, float):
        if math.isnan(x):
            return None
        if math.isinf(x):
            return x
        return float(f"{x:.12g}")
    return x


def _round_floats(obj):
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(_round_floats(payload), indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_input(path: str | None) -> dict:
    if path is None:
        raise CliInputError("--input FILE is required for this subcommand")
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliInputError(f"top-level JSON value in {path} must be an object")
    return obj


def _reject_tol_key(obj: dict) -> None:
    # an input tolerance would silently differ from the one --tol sets
    if "tol" in obj:
        raise CliInputError("input key 'tol' is not read; set the tolerance with --tol")


def _numbers(key: str, *lists) -> None:
    # float() would read JSON true as 1 and "0.5" as 0.5; one pass over the
    # entries' types keeps the check out of the per-entry cost
    if not {*map(type, chain(*lists))} <= {int, float}:
        bad = next(x for x in chain(*lists) if type(x) not in (int, float))
        raise CliInputError(f"field {key!r} must hold JSON numbers, got {json.dumps(bad)}")


def _measure_from(obj: dict, key: str) -> StepMeasure:
    try:
        raw = obj[key]
        _numbers(key, raw["breaks"], raw["values"])
        return StepMeasure.from_json(raw)
    except KeyError as exc:
        raise CliInputError(f"missing key {key!r} in input") from exc
    except (TypeError, AttributeError) as exc:
        raise CliInputError(f"field {key!r} is not a measure object") from exc


def _open_set_from(obj: dict, key: str = "open_set") -> OpenSet1D:
    try:
        components = obj[key]["components"]
        if {*map(len, components)} - {2}:
            raise CliInputError(f"field {key!r} has a component that is not a pair")
        _numbers(key, *components)
        return OpenSet1D.from_json(obj[key])
    except KeyError as exc:
        raise CliInputError(f"missing key {key!r} in input") from exc
    except (TypeError, AttributeError) as exc:
        raise CliInputError(f"field {key!r} is not an open-set object") from exc


def _tolerance(text: str) -> float:
    # nan, inf or a negative value would read as a fault of the solver or input
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _config_value(raw: dict, key: str, default, kind: type):
    # an int, or for kind float any number: int() would run 200.5 walkers as
    # 200, and JSON true is an int to Python; dt alone may be null
    value = raw.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        kind_name = "an integer" if kind is int else "a number"
        raise CliInputError(f"config key {key!r} must be {kind_name}, got {value!r}")
    return value


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    f"{x:.12g}" if isinstance(x, float) else str(x) for x in row
                )
                + "\n"
            )


def cmd_solve(args) -> int:
    obj = _load_input(args.input)
    _reject_tol_key(obj)
    mu = _measure_from(obj, "measure")
    open_set = _open_set_from(obj)
    solution = solve(mu, open_set, args.tol)
    _emit(solution.to_json(), args.out)
    if args.csv:
        _write_csv(
            args.csv,
            ["component", "c", "e", "f", "d"],
            [[i] + list(b.as_tuple()) for i, b in enumerate(solution.blocks)],
        )
    return 0


def cmd_order(args) -> int:
    obj = _load_input(args.input)
    _reject_tol_key(obj)
    mu = _measure_from(obj, "mu")
    nu = _measure_from(obj, "nu")
    if "open_set" in obj:
        cert = order_leq_sh_O(mu, nu, _open_set_from(obj), args.tol)
    else:
        cert = dominates(mu, nu, args.tol)
    _emit(cert.to_json(), args.out)
    return 0


def cmd_potential(args) -> int:
    obj = _load_input(args.input)
    mu = _measure_from(obj, "measure")
    pq = potential(mu)
    _emit(pq.to_json(), args.out)
    if args.csv:
        deriv = pq.derivative()
        lo, hi = mu.support()
        span = max(hi - lo, 1.0)
        lo -= 0.5 * span
        hi += 0.5 * span
        ys = [lo + (hi - lo) * i / 512 for i in range(513)]
        rows = [[y, pq(y), deriv(y)] for y in ys]
        _write_csv(args.csv, ["y", "potential", "derivative"], rows)
    return 0


def cmd_simulate(args) -> int:
    obj = _load_input(args.input)
    mu = _measure_from(obj, "measure")
    open_set = _open_set_from(obj)
    raw_cfg = obj.get("config", {})
    if not isinstance(raw_cfg, dict):
        raise CliInputError("field 'config' must be an object")
    unknown = sorted(set(raw_cfg) - {f.name for f in dataclasses.fields(SimConfig)})
    if unknown:
        raise CliInputError(f"unknown keys in 'config': {', '.join(unknown)}")
    seed = _config_value(raw_cfg, "seed", 0, int) if args.seed is None else args.seed
    if seed < 0:
        raise CliInputError(f"seed must be a non-negative integer, got {seed}")
    cfg = SimConfig(
        n_particles=_config_value(raw_cfg, "n_particles", 10000, int),
        seed=seed,
        dt=_config_value(raw_cfg, "dt", None, float),
        t_max=float(_config_value(raw_cfg, "t_max", 50.0, float)),
        hist_bins=_config_value(raw_cfg, "hist_bins", 64, int),
    )
    report = run(mu, open_set, cfg)
    _emit(report.to_json(), args.out)
    if args.hist:
        rows = []
        for i, comp in enumerate(report.components):
            width = (
                comp.hist_edges[1] - comp.hist_edges[0]
                if len(comp.hist_edges) > 1
                else 1.0
            )
            for j, count in enumerate(comp.hist_counts):
                density = count * comp.unit_mass / width if width > 0 else 0.0
                rows.append(
                    [i, comp.hist_edges[j], comp.hist_edges[j + 1], count, density]
                )
        _write_csv(args.hist, ["component", "bin_lo", "bin_hi", "count", "density"], rows)
    return 0 if report.all_frozen else 4


def _stability_lipschitz() -> tuple[dict, list[list]]:
    rows = []
    reports = []
    for params in lipschitz_ladder():
        report = lipschitz_ratio(params)
        reports.append(report.to_json())
        rows.append(
            [
                params.x,
                params.y,
                params.r,
                params.c,
                report.input_l1_gap,
                report.output_l1_gap,
                report.ratio,
                report.closed_form_ratio,
            ]
        )
    payload = {
        "family": "lipschitz",
        "reports": reports,
        "blow_up_corner_ratio": lipschitz_closed_form_ratio(*LIPSCHITZ_CORNER),
    }
    return payload, rows


def _stability_monotone() -> tuple[dict, list[list]]:
    pairs = [("narrow_vs_saturated", *EXAMPLE_5_1), ("equal_first_moments", MU1, MU2)]
    rows = []
    reports = []
    for name, mu1, mu2 in pairs:
        report = monotonicity_report(mu1, mu2, DOMAIN)
        entry = report.to_json()
        entry["name"] = name
        reports.append(entry)
        rows.append(
            [
                name,
                int(report.monotone_in),
                int(report.monotone_out),
                report.input_l1_gap,
                report.output_l1_gap,
            ]
        )
    return {"family": "monotone", "reports": reports}, rows


def _stability_weak() -> tuple[dict, list[list]]:
    seq, mu = weak_family()
    table = weak_convergence_experiment(seq, mu, DOMAIN)
    rows = [
        [row.index + 2, row.mass_gap, row.moment_gap, row.l1_gap]
        for row in table.rows
    ]
    return {"family": "weak", "table": table.to_json()}, rows


def cmd_stability(args) -> int:
    builders = {
        "lipschitz": (
            _stability_lipschitz,
            ["x", "y", "r", "c", "input_gap", "output_gap", "ratio", "closed_form_ratio"],
        ),
        "monotone": (
            _stability_monotone,
            ["name", "monotone_in", "monotone_out", "input_gap", "output_gap"],
        ),
        "weak": (_stability_weak, ["l", "mass_gap", "moment_gap", "l1_gap"]),
    }
    builder, header = builders[args.family]
    payload, rows = builder()
    _emit(payload, args.out)
    if args.csv:
        _write_csv(args.csv, header, rows)
    return 0


def cmd_repro(args) -> int:
    manifest = run_manifest()
    if args.json:
        _emit(manifest.to_json(), args.out)
    else:
        text = manifest.format_table() + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return 0 if manifest.passed else 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stefan1d",
        description=(
            "Saturated two-block targets for step densities on bounded open "
            "sets, with exact potential-order certificates, stability "
            "experiments and a front-freezing particle cross-check."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", metavar="FILE", help="input JSON file")
        p.add_argument("--out", metavar="FILE", help="write JSON output here")

    p_solve = sub.add_parser("solve", help="compute the two-block target")
    common(p_solve)
    p_solve.add_argument("--csv", metavar="FILE", help="write block endpoints as CSV")
    p_solve.set_defaults(func=cmd_solve)

    p_order = sub.add_parser("order", help="check the potential order relation")
    common(p_order)
    p_order.set_defaults(func=cmd_order)

    p_pot = sub.add_parser("potential", help="exact potential of a step measure")
    common(p_pot)
    p_pot.add_argument("--csv", metavar="FILE", help="write sampled values as CSV")
    p_pot.set_defaults(func=cmd_potential)

    p_sim = sub.add_parser("simulate", help="front-freezing particle run")
    common(p_sim)
    p_sim.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sim.add_argument("--hist", metavar="FILE", help="write frozen histogram as CSV")
    p_sim.set_defaults(func=cmd_simulate)

    p_stab = sub.add_parser("stability", help="stability experiment tables")
    common(p_stab, needs_input=False)
    p_stab.add_argument(
        "--family",
        choices=["lipschitz", "monotone", "weak"],
        required=True,
        help="which experiment family to run",
    )
    p_stab.add_argument("--csv", metavar="FILE", help="write the table as CSV")
    p_stab.set_defaults(func=cmd_stability)

    p_repro = sub.add_parser("repro", help="run the reproduction manifest")
    common(p_repro, needs_input=False)
    p_repro.add_argument("--json", action="store_true", help="machine-readable output")
    p_repro.set_defaults(func=cmd_repro)

    for p in (p_solve, p_order):
        p.add_argument(
            "--tol",
            type=_tolerance,
            default=DEFAULT_TOL,
            help="relative tolerance, finite and >= 0: gaps within tol*k (mass) or tol*k*W "
            f"(potential, moment) for mass k on length W (default {DEFAULT_TOL:g})",
        )

    return parser


# built on the first call of main and kept: building it takes about a millisecond
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
