import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stefan1d import SimConfig, ValidationError, cli
from stefan1d.cli import build_parser, main
from schemas import (
    CERTIFICATE_SCHEMA,
    MANIFEST_SCHEMA,
    RUN_REPORT_SCHEMA,
    SOLUTION_SCHEMA,
    validate,
)


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def read(path):
    return json.loads(path.read_text())


SOLVE_INPUT = {
    "measure": {"breaks": [0.0, math.sqrt(0.75)], "values": [0.99]},
    "open_set": {"components": [[-1.0, 1.0]]},
}


def test_solve_reproduces_reference_endpoints(tmp_path):
    inp = write(tmp_path / "in.json", SOLVE_INPUT)
    out = tmp_path / "out.json"
    csv = tmp_path / "blocks.csv"
    code = main(["solve", "--input", inp, "--out", str(out), "--csv", str(csv)])
    assert code == 0
    payload = read(out)
    validate(payload, SOLUTION_SCHEMA)
    (c, e, f, d) = payload["blocks"][0]
    assert e == pytest.approx(-0.896224371, abs=1e-6)
    assert f == pytest.approx(0.246410478, abs=1e-6)
    assert payload["beta"][0] == pytest.approx(0.37125, abs=1e-12)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "component,c,e,f,d"
    assert len(lines) == 2


def test_solve_empty_measure(tmp_path):
    inp = write(
        tmp_path / "in.json",
        {"measure": {"breaks": [], "values": []}, "open_set": {"components": [[-1, 1]]}},
    )
    out = tmp_path / "out.json"
    assert main(["solve", "--input", inp, "--out", str(out)]) == 0
    payload = read(out)
    assert payload["measure"]["breaks"] == []
    # the zero measure's totals print as floats, like every other number
    (part,) = payload["certificate"]["per_component"]
    for total in (*payload["k"], *payload["beta"], part["mass_gap"]):
        assert total == 0.0 and type(total) is float


def _strict_constant(name):
    raise ValueError(f"non-finite number {name} in the output")


def test_solve_reports_a_finite_beta_far_from_0(tmp_path):
    # squares of breaks near 1e200 overflow; beta is summed about the midpoint
    inp = write(
        tmp_path / "in.json",
        {
            "measure": {"breaks": [1e200, 1.5e200], "values": [1e-250]},
            "open_set": {"components": [[1e200, 1.5e200]]},
        },
    )
    out = tmp_path / "out.json"
    assert main(["solve", "--input", inp, "--out", str(out)]) == 0
    payload = json.loads(out.read_text(), parse_constant=_strict_constant)
    assert payload["beta"][0] == pytest.approx(6.25e149, rel=1e-15)


def test_solve_exit_codes(tmp_path):
    dense = write(
        tmp_path / "dense.json",
        {
            "measure": {"breaks": [0.0, 0.5], "values": [1.2]},
            "open_set": {"components": [[-1, 1]]},
        },
    )
    assert main(["solve", "--input", dense]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--input", str(bad)]) == 1

    missing = write(tmp_path / "missing.json", {"open_set": {"components": [[-1, 1]]}})
    assert main(["solve", "--input", missing]) == 1

    leak = write(
        tmp_path / "leak.json",
        {
            "measure": {"breaks": [-2.0, 0.0], "values": [1.0]},
            "open_set": {"components": [[-1, 1]]},
        },
    )
    assert main(["solve", "--input", leak]) == 2


def test_solve_rejects_a_measure_whose_width_overflows(tmp_path, capsys):
    # finite breaks 2e308 apart: their width, and the mass over it, would be inf
    inp = write(
        tmp_path / "wide.json",
        {
            "measure": {"breaks": [-1e308, 1e308], "values": [1e-300]},
            "open_set": {"components": [[-1e308, 1e308]]},
        },
    )
    assert main(["solve", "--input", inp]) == 2
    assert capsys.readouterr().err == "error: breaks span too wide: (-1e+308, 1e+308)\n"


def test_solve_refuses_a_target_whose_moments_overflow(tmp_path, capsys):
    # mu's own moments are finite; its target's mass 1e148 out to 1e161 is not
    inp = write(
        tmp_path / "far.json",
        {
            "measure": {"breaks": [-5e147, 5e147], "values": [1.0]},
            "open_set": {"components": [[-1e161, 1e161]]},
        },
    )
    out, csv = tmp_path / "out.json", tmp_path / "out.csv"
    assert main(["solve", "--input", inp, "--out", str(out), "--csv", str(csv)]) == 2
    assert capsys.readouterr().err == (
        "error: mass times coordinates (the moments' scale) overflows on (-1e+161, 1e+161)\n"
    )
    assert not out.exists() and not csv.exists()


@pytest.mark.parametrize(
    "command, payload, says",
    [
        # the potential's coefficients square each break: 1.5e300 ** 2 overflows
        (
            "potential",
            {"measure": {"breaks": [1e300, 1.5e300], "values": [1e-300]}},
            "breaks too far from 0 to square: (1e+300, 1.5e+300)",
        ),
        # each square is finite, but their sum in the inner piece's constant is not
        (
            "potential",
            {"measure": {"breaks": [1e154, 1.3e154], "values": [1e-300]}},
            "potential coefficients overflow: breaks (1e+154, 1.3e+154)",
        ),
        # without dt the step is 1e-4 * width ** 2, and the width is 1e160
        (
            "simulate",
            {
                "measure": {"breaks": [0.0, 1e160], "values": [1e-300]},
                "open_set": {"components": [[0.0, 1e160]]},
                "config": {"n_particles": 50},
            },
            "the default dt, 1e-4 * width ** 2, overflows: give dt",
        ),
        # with dt given, the default t_max is 12.5 * width ** 2
        (
            "simulate",
            {
                "measure": {"breaks": [0.0, 1e160], "values": [1e-300]},
                "open_set": {"components": [[0.0, 1e160]]},
                "config": {"n_particles": 50, "dt": 1.0},
            },
            "the default t_max, 12.5 * width ** 2, overflows: give t_max",
        ),
        # the square 1.69e308 is finite, and its dt 1.69e304 too, but 12.5 times it is not
        (
            "simulate",
            {
                "measure": {"breaks": [0.0, 1.3e154], "values": [1e-300]},
                "open_set": {"components": [[0.0, 1.3e154]]},
                "config": {"n_particles": 50},
            },
            "the default t_max, 12.5 * width ** 2, overflows: give t_max",
        ),
    ],
    ids=["potential", "potential_sum", "simulate", "simulate_t_max", "simulate_t_max_product"],
)
def test_commands_refuse_coordinates_whose_squares_overflow(
    tmp_path, capsys, command, payload, says
):
    out = tmp_path / "out.json"
    assert main([command, "--input", write(tmp_path / "in.json", payload), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {says}\n"
    assert not out.exists()


def test_order_counterexample_componentwise_vs_global(tmp_path):
    base = {
        "mu": {"breaks": [-0.5, 0.5], "values": [1.0]},
        "nu": {"breaks": [-1.0, -0.5, 0.5, 1.0], "values": [1.0, 0.0, 1.0]},
    }
    split = dict(base, open_set={"components": [[-1.0, 0.0], [0.0, 1.0]]})
    inp = write(tmp_path / "split.json", split)
    out = tmp_path / "cert.json"
    assert main(["order", "--input", inp, "--out", str(out)]) == 0
    cert = read(out)
    validate(cert, CERTIFICATE_SCHEMA)
    assert cert["ordered"] is False

    inp2 = write(tmp_path / "global.json", base)
    out2 = tmp_path / "cert2.json"
    assert main(["order", "--input", inp2, "--out", str(out2)]) == 0
    cert2 = read(out2)
    assert cert2["ordered"] is True


def test_potential_outputs(tmp_path):
    inp = write(
        tmp_path / "in.json", {"measure": {"breaks": [-1.0, 1.0], "values": [1.0]}}
    )
    out = tmp_path / "pot.json"
    csv = tmp_path / "pot.csv"
    assert main(["potential", "--input", inp, "--out", str(out), "--csv", str(csv)]) == 0
    payload = read(out)
    assert payload["breakpoints"] == [-1.0, 1.0]
    assert len(payload["pieces"]) == 3
    header = csv.read_text().splitlines()[0]
    assert header == "y,potential,derivative"


def test_simulate_deterministic_and_incomplete(tmp_path):
    sim_in = write(
        tmp_path / "sim.json",
        {
            "measure": {"breaks": [-0.25, 0.25], "values": [1.0]},
            "open_set": {"components": [[-1.0, 1.0]]},
            "config": {"n_particles": 2000, "dt": 1e-3, "seed": 5},
        },
    )
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    hist = tmp_path / "hist.csv"
    assert main(["simulate", "--input", sim_in, "--out", str(out1), "--hist", str(hist)]) == 0
    assert main(["simulate", "--input", sim_in, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = read(out1)
    validate(payload, RUN_REPORT_SCHEMA)
    assert payload["all_frozen"] is True
    assert hist.read_text().splitlines()[0] == "component,bin_lo,bin_hi,count,density"

    short = write(
        tmp_path / "short.json",
        {
            "measure": {"breaks": [-0.25, 0.25], "values": [1.0]},
            "open_set": {"components": [[-1.0, 1.0]]},
            "config": {"n_particles": 500, "dt": 1e-4, "seed": 5, "t_max": 5e-3},
        },
    )
    assert main(["simulate", "--input", short, "--out", str(tmp_path / "r3.json")]) == 4


def test_simulate_freezes_a_wide_component_by_default(tmp_path):
    # a null t_max is the default, 12.5 * width ** 2: on (-10, 10) an absolute
    # t_max of 50 stopped the walk with 267 of 2000 walkers unfrozen, exit 4
    sim_in = write(
        tmp_path / "sim.json",
        {
            "measure": {"breaks": [0.0, 10.0 * math.sqrt(0.75)], "values": [0.99]},
            "open_set": {"components": [[-10.0, 10.0]]},
            "config": {"n_particles": 2000, "dt": None, "t_max": None},
        },
    )
    out = tmp_path / "r.json"
    assert main(["simulate", "--input", sim_in, "--out", str(out)]) == 0
    payload = read(out)
    assert payload["config"]["t_max"] is None and payload["all_frozen"] is True


def test_simulate_echoes_a_given_dt_and_t_max_as_floats(tmp_path):
    # JSON integers run as floats, and the report's config prints them so
    sim_in = write(
        tmp_path / "sim.json",
        {
            "measure": {"breaks": [-0.25, 0.25], "values": [1.0]},
            "open_set": {"components": [[-1.0, 1.0]]},
            "config": {"n_particles": 50, "dt": 1, "t_max": 50},
        },
    )
    out = tmp_path / "r.json"
    assert main(["simulate", "--input", sim_in, "--out", str(out)]) == 0
    config = read(out)["config"]
    assert (repr(config["dt"]), repr(config["t_max"])) == ("1.0", "50.0")


def test_solve_reports_a_zero_written_as_minus_zero_as_zero(tmp_path):
    # mu = 0.5 * chi(-0.0, 0.5) in (-0.0, 1): the blocks and breaks start at 0.0
    inp = write(
        tmp_path / "in.json",
        {
            "measure": {"breaks": [-0.0, 0.5], "values": [0.5]},
            "open_set": {"components": [[-0.0, 1.0]]},
        },
    )
    out = tmp_path / "out.json"
    assert main(["solve", "--input", inp, "--out", str(out)]) == 0
    payload = read(out)
    assert repr(payload["blocks"][0][0]) == "0.0"
    assert repr(payload["measure"]["breaks"][0]) == "0.0"
    assert "-0.0" not in out.read_text()


def test_a_failed_self_check_exits_3(tmp_path, capsys, monkeypatch):
    def failing(*args):
        raise cli.VerificationError("mass gap 1.0 above its bound")

    monkeypatch.setattr(cli, "solve", failing)
    inp, out = write(tmp_path / "in.json", SOLVE_INPUT), tmp_path / "out.json"
    assert main(["solve", "--input", inp, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "verification failure: mass gap 1.0 above its bound\n"
    assert not out.exists()


def test_simulate_walks_far_from_0(tmp_path):
    # the walk runs in its component's frame: at 1e7 a float32 coordinate's
    # ulp is 1, far above a step of sqrt(dt) = 0.03
    sim_in = write(
        tmp_path / "sim.json",
        {
            "measure": {"breaks": [1e7, 1e7 + 0.8], "values": [0.99]},
            "open_set": {"components": [[1e7 - 1.0, 1e7 + 1.0]]},
            "config": {"n_particles": 20000, "dt": 1e-3},
        },
    )
    out, sol = tmp_path / "r.json", tmp_path / "sol.json"
    assert main(["simulate", "--input", sim_in, "--out", str(out)]) == 0
    assert main(["solve", "--input", sim_in, "--out", str(sol)]) == 0
    comp, solution = read(out)["components"][0], read(sol)
    c, e = solution["blocks"][0][:2]
    p = e - c
    sigma = math.sqrt(p * (solution["k"][0] - p) / comp["n"])  # binomial, on the left count
    assert comp["unfrozen"] == 0
    assert abs(comp["p_hat"] - p) <= 4.0 * sigma


def test_simulate_seed_flag_overrides(tmp_path):
    sim_in = write(
        tmp_path / "sim.json",
        {
            "measure": {"breaks": [-0.25, 0.25], "values": [1.0]},
            "open_set": {"components": [[-1.0, 1.0]]},
            "config": {"n_particles": 1000, "dt": 1e-3, "seed": 5},
        },
    )
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["simulate", "--input", sim_in, "--out", str(a), "--seed", "9"]) == 0
    assert main(["simulate", "--input", sim_in, "--out", str(b)]) == 0
    assert read(a)["config"]["seed"] == 9
    assert a.read_bytes() != b.read_bytes()


def test_simulate_rejects_unknown_config_keys(tmp_path, capsys):
    sim_in = write(
        tmp_path / "sim.json",
        {
            "measure": {"breaks": [-0.25, 0.25], "values": [1.0]},
            "open_set": {"components": [[-1.0, 1.0]]},
            "config": {"n_particle": 50},
        },
    )
    assert main(["simulate", "--input", sim_in, "--out", str(tmp_path / "r.json")]) == 1
    assert "n_particle" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"n_particles": 200.5}, []),
        ({"n_particles": True}, []),
        ({"n_particles": "abc"}, []),
        ({"hist_bins": 3.5}, []),
        ({"seed": -1}, []),
        ({"seed": 2.0}, []),
        ({}, ["--seed", "-1"]),
        ({"dt": "abc"}, []),
        ({"t_max": "abc"}, []),
    ],
)
def test_simulate_rejects_ill_typed_config(tmp_path, capsys, config, argv):
    sim_in = write(
        tmp_path / "sim.json",
        {
            "measure": {"breaks": [-0.25, 0.25], "values": [1.0]},
            "open_set": {"components": [[-1.0, 1.0]]},
            "config": {"n_particles": 50, "dt": 1e-3, **config},
        },
    )
    out = tmp_path / "r.json"
    assert main(["simulate", "--input", sim_in, "--out", str(out), *argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "support, config",
    [
        ("[-0.25, 0.25]", '"t_max": 1e400'),  # JSON 1e400 reads as infinity
        ("[-0.25, 0.25]", '"dt": 1e400'),
        # the same values as JSON integers, beyond the float range: refused alike
        pytest.param("[-0.25, 0.25]", '"t_max": 1' + "0" * 400, id="t_max-int-1e400"),
        pytest.param("[-0.25, 0.25]", '"dt": 1' + "0" * 400, id="dt-int-1e400"),
        ("[-0.25, 0.25]", '"dt": 1e-10, "t_max": 1e308'),  # t_max / dt overflows
        ("[-0.25, 0.25]", '"dt": 1e300'),  # t_max / dt rounds to zero steps
        ("[-0.25, 0.25]", '"dt": 2.0, "t_max": 1.0'),  # t_max / dt = 1/2 is zero steps too
        # on the component (0, 1e-160) the default dt, 1e-4 * width**2, underflows to 0
        ("[0, 1e-160]", '"dt": null'),
    ],
)
def test_simulate_refuses_step_counts_it_cannot_form(tmp_path, capsys, support, config):
    sim_in = tmp_path / "sim.json"
    sim_in.write_text(
        f'{{"measure": {{"breaks": {support}, "values": [0.5]}}, '
        f'"open_set": {{"components": [{support}]}}, '
        f'"config": {{"n_particles": 50, {config}}}}}'
    )
    out = tmp_path / "r.json"
    assert main(["simulate", "--input", str(sim_in), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "finite" in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("n", [2**53 + 1, 10**400], ids=["2**53+1", "int-1e400"])
def test_simulate_refuses_walker_counts_floats_cannot_hold(tmp_path, capsys, n):
    # refused before anything is allocated: no count this large is ever run
    with pytest.raises(ValidationError, match=r"n_particles must be from 1 to 2\*\*53"):
        SimConfig(n_particles=n)
    sim_in = tmp_path / "sim.json"
    sim_in.write_text(
        '{"measure": {"breaks": [-0.25, 0.25], "values": [0.5]}, '
        f'"open_set": {{"components": [[-1, 1]]}}, "config": {{"n_particles": {n}}}}}'
    )
    out = tmp_path / "r.json"
    assert main(["simulate", "--input", str(sim_in), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: n_particles"), err
    assert not out.exists()


def test_simulate_refuses_a_histogram_too_fine_to_report(tmp_path, capsys):
    # a 31-digit bin count: refused by name before any walk, not in numpy after all of them
    sim_in = tmp_path / "sim.json"
    sim_in.write_text(
        '{"measure": {"breaks": [-0.25, 0.25], "values": [0.5]}, '
        '"open_set": {"components": [[-1, 1]]}, '
        '"config": {"n_particles": 50, "hist_bins": 1' + "0" * 30 + "}}"
    )
    out = tmp_path / "r.json"
    assert main(["simulate", "--input", str(sim_in), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: hist_bins"), err
    assert not out.exists()


def test_tol_only_where_read():
    for argv in (["potential", "--tol", "1e-3"], ["repro", "--tol", "1e-3"]):
        with pytest.raises(SystemExit):
            main(argv)


@pytest.mark.parametrize("command", ["solve", "order"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_tol_must_be_finite_and_nonnegative(tmp_path, capsys, command, value):
    inp = write(tmp_path / "in.json", SOLVE_INPUT if command == "solve" else TOL_PAIR)
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", inp, "--tol", value])
    assert exc.value.code == 2
    assert "finite number >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "order"])
def test_zero_tol_is_accepted(command):
    assert build_parser().parse_args([command, "--tol", "0"]).tol == 0.0


# chi_(-1/2, 1/2) against (1 + 1e-6) chi_(-1/2, 1/2): the mass gap is 1e-6
TOL_PAIR = {
    "mu": {"breaks": [-0.5, 0.5], "values": [1.0]},
    "nu": {"breaks": [-0.5, 0.5], "values": [1.0 + 1e-6]},
}


def test_tol_flag_reaches_the_verdict(tmp_path):
    inp = write(tmp_path / "pair.json", TOL_PAIR)
    out = tmp_path / "cert.json"
    assert main(["order", "--input", inp, "--out", str(out)]) == 0
    assert read(out)["ordered"] is False
    assert main(["order", "--input", inp, "--out", str(out), "--tol", "1e-5"]) == 0
    assert read(out)["ordered"] is True


@pytest.mark.parametrize(
    "command, payload",
    [("solve", SOLVE_INPUT), ("order", TOL_PAIR)],
)
def test_input_tol_key_is_rejected(tmp_path, capsys, command, payload):
    inp = write(tmp_path / "in.json", dict(payload, tol=1e-3))
    out = tmp_path / "out.json"
    assert main([command, "--input", inp, "--out", str(out)]) == 1
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


def test_stability_lipschitz_csv_matches_closed_form(tmp_path):
    csv = tmp_path / "lip.csv"
    assert main(["stability", "--family", "lipschitz", "--csv", str(csv),
                 "--out", str(tmp_path / "lip.json")]) == 0
    rows = csv.read_text().strip().splitlines()
    assert rows[0].split(",")[:4] == ["x", "y", "r", "c"]
    for line in rows[1:]:
        vals = [float(t) for t in line.split(",")]
        x, y, r, c, in_gap, out_gap, ratio, closed = vals
        # values are printed with 12 significant digits
        assert in_gap == pytest.approx(r * y, abs=1e-9)
        assert ratio == pytest.approx(out_gap / in_gap, rel=1e-9)
        expected = (2 * x + 2 * c - y - r * y) / (4 * (1 - r * x))
        assert closed == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_stability_monotone_and_weak(tmp_path):
    mono = tmp_path / "mono.csv"
    assert main(["stability", "--family", "monotone", "--csv", str(mono),
                 "--out", str(tmp_path / "m.json")]) == 0
    lines = mono.read_text().strip().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[1] == "1" and parts[2] == "0"  # ordered in, not out

    weak = tmp_path / "weak.csv"
    assert main(["stability", "--family", "weak", "--csv", str(weak),
                 "--out", str(tmp_path / "w.json")]) == 0
    rows = [r.split(",") for r in weak.read_text().strip().splitlines()[1:]]
    assert len(rows) == 63
    assert float(rows[-1][3]) == pytest.approx(1.0 / 64.0, abs=1e-12)


def test_repro_manifest(tmp_path):
    out = tmp_path / "manifest.json"
    code = main(["repro", "--json", "--out", str(out)])
    payload = read(out)
    validate(payload, MANIFEST_SCHEMA)
    names = [s["name"] for s in payload["scenarios"]]
    assert names == [
        "example_5_1",
        "example_5_2",
        "lipschitz_family",
        "appendix_critical_point",
        "weak_convergence",
        "particle_cross_check",
    ]
    assert payload["passed"] is True
    assert code == 0


def test_critical_point_row_fails_on_a_shifted_root(monkeypatch):
    from stefan1d import repro, solver

    (row,) = repro._scenario_appendix_critical_point().rows
    assert 0.0 < row.computed <= 1e-12 and row.passed
    dominates = solver.dominates

    def shifted(mu, nu):
        cert = dominates(mu, nu)
        return dataclasses.replace(cert, worst_point=cert.worst_point + 1e-9)

    monkeypatch.setattr(solver, "dominates", shifted)
    (row,) = repro._scenario_appendix_critical_point().rows
    assert row.computed == pytest.approx(1e-9, rel=1e-3) and not row.passed


def test_repro_table_output(capsys):
    code = main(["repro"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "example_5_2" in captured
    assert "overall: pass" in captured


def test_public_api_names_resolve():
    import stefan1d

    names = stefan1d.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(stefan1d, name)]
    assert missing == []
    namespace = {}
    exec("from stefan1d import *", namespace)
    assert set(names) <= namespace.keys()


_COLD_START = """
import json, os, sys

import stefan1d
import stefan1d.cli
from stefan1d.cli import main

tmp = sys.argv[1]

def write(name, obj):
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path

def out(name):
    return ["--out", os.path.join(tmp, name)]

unit = {"breaks": [0.0, 0.5], "values": [1.0]}
domain = {"components": [[-1.0, 1.0]]}
solve_in = write("solve.json", {"measure": unit, "open_set": domain})
assert main(["solve", "--input", solve_in, *out("s.json")]) == 0
order_in = write("order.json", {"mu": unit, "nu": unit, "open_set": domain})
assert main(["order", "--input", order_in, *out("o.json")]) == 0
pot_in = write("pot.json", {"measure": unit})
assert main(["potential", "--input", pot_in, *out("p.json"), "--csv", os.path.join(tmp, "p.csv")]) == 0
assert main(["stability", "--family", "weak", *out("w.json")]) == 0
assert "numpy" not in sys.modules, "a numpy-free command loaded numpy"

missing = [name for name in stefan1d.__all__ if not hasattr(stefan1d, name)]
assert not missing, missing
# the names the traced benchmark run rebinds or reads on the particles module
for name in ("SimConfig", "run", "compare_to_formula", "ComponentRunReport", "RunReport",
             "restrict", "l1_distance"):
    assert hasattr(stefan1d.particles, name), name

sim_in = write("sim.json", {"measure": unit, "open_set": domain,
                            "config": {"n_particles": 200, "dt": 1e-3}})
assert main(["simulate", "--input", sim_in, *out("r.json")]) == 0
assert "numpy" in sys.modules
"""


def test_only_the_particle_walk_loads_numpy(tmp_path):
    # a fresh interpreter: the test session itself has numpy loaded
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# JSON true and numeric strings are not numbers, wherever a measure or an
# open set is read
_TRUE_BREAK = {"breaks": [0, True], "values": [0.5]}
_STRING_VALUE = {"breaks": [0, 1], "values": ["0.5"]}
_STRING_END = {"components": [["-1", 2]]}
_UNIT = {"breaks": [0, 1], "values": [0.5]}
_DOMAIN = {"components": [[-1, 2]]}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("solve", {"measure": _TRUE_BREAK, "open_set": _DOMAIN}),
        ("solve", {"measure": _STRING_VALUE, "open_set": _DOMAIN}),
        ("solve", {"measure": _UNIT, "open_set": _STRING_END}),
        ("solve", {"measure": _UNIT, "open_set": {"components": [[-1, 1, 2]]}}),
        ("order", {"mu": _UNIT, "nu": _TRUE_BREAK}),
        ("order", {"mu": _STRING_VALUE, "nu": _UNIT}),
        ("order", {"mu": _UNIT, "nu": _UNIT, "open_set": _STRING_END}),
        ("potential", {"measure": _TRUE_BREAK}),
        ("potential", {"measure": _STRING_VALUE}),
    ],
)
def test_measures_and_open_sets_must_hold_numbers(tmp_path, capsys, command, payload):
    inp = write(tmp_path / "in.json", payload)
    out = tmp_path / "out.json"
    assert main([command, "--input", inp, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_parser_is_built_once(tmp_path):
    inp = write(tmp_path / "in.json", SOLVE_INPUT)
    main(["solve", "--input", inp, "--out", str(tmp_path / "a.json")])
    main(["solve", "--input", inp, "--out", str(tmp_path / "b.json")])
    assert cli._parser.cache_info().misses == 1
