"""Byte identity of deterministic CLI output.

Each case runs ``stefan1d.cli.main`` in-process on a fixed input and compares
the sha256 of its standard output, standard error and CSV file, and its exit
code, with digests recorded before restriction and the merged-grid operations
became linear-time (``simulate_empty_middle`` and the ``lipschitz`` and
``monotone`` stability cases before the report serialisers became ``asdict``
and empty components went through the simulator; ``repro_json`` when the
``appendix_critical_point`` row began to compare the root finder's zero with
the closed form, which moved its computed value from 0 to 2.2e-16;
``solve_readme`` and ``solve_three_components`` when the certificate became
one cumulative walk about each component's midpoint, which moved their
``worst_gap``, ``worst_point`` and ``moment_gap`` and nothing else;
``simulate_empty_middle`` and ``repro_json`` again when the particle walk
moved to nested radix-4 levels, which changed its random stream, so the
frozen splits and the particle rows of ``repro`` moved within their noise;
``solve_readme``, ``repro_json`` and ``stability_lipschitz`` when each
component came to be solved from its holes, which moved the readme
certificate's rounding-level gaps, the stationary-point defect from 2.2e-16
to 1.2e-16 and the r = 0.95 Lipschitz ratio from 9.8667948718 to the closed
form's 9.86679487179; ``stability_weak`` when the weak table came to be
read from each component's holes, which moved its ``constant`` from the
endpoint sensitivity's 2.0 to 2 / h = 1.96923076923, where h = 65/64 is
the l = 64 member's hole mass, the larger of its pair; ``stability_monotone``
when the L1 helpers came to sum from the float 0.0, which turned the two
rows' ``"input_l1_gap": 0`` into ``0.0`` and left its CSV as it was;
``repro_json`` when the stationary point came to be read from the order
walk's first maximum, which moved the stationary-point defect from
1.17961196366e-16 to 1.11022302463e-16; ``simulate_empty_middle`` when
``t_max`` came to default to 12.5 * width ** 2 per component, which turned
the echoed ``"t_max": 50.0`` into ``null`` and left the walk and its CSV
as they were; ``simulate_empty_middle`` and ``repro_json`` when the walk's
normals and uniforms got a stream each, spawned from the component's seed,
which moved the frozen splits and the particle rows of ``repro`` within
their noise; nothing else moved). A change
that moves any output byte fails here; when the change is meant, record the
new digests and say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from stefan1d.cli import main

README_EXAMPLE = {
    "measure": {"breaks": [0.0, 0.8660254037844386], "values": [0.99]},
    "open_set": {"components": [[-1.0, 1.0]]},
}
THREE_COMPONENTS = {
    "measure": {
        "breaks": [-2.8, -2.5, -0.5, 0.5, 2.5, 3.0],
        "values": [1.0, 0.0, 0.7, 0.0, 1.0],
    },
    "open_set": {"components": [[-3.0, -2.0], [-1.0, 1.0], [2.0, 3.5]]},
}
# criterion 10: ordered on (-1, 1), not on (-1, 0) with (0, 1)
SPLIT_PAIR = {
    "mu": {"breaks": [-0.5, 0.5], "values": [1.0]},
    "nu": {"breaks": [-1.0, -0.5, 0.5, 1.0], "values": [1.0, 0.0, 1.0]},
    "open_set": {"components": [[-1.0, 0.0], [0.0, 1.0]]},
}
THREE_CELLS = {"measure": {"breaks": [-0.5, 0.0, 0.25, 0.75], "values": [0.5, 1.0, 0.25]}}
# the middle component carries no mass, so it gets no walkers
EMPTY_MIDDLE = {
    "measure": {
        "breaks": [-2.8, -2.2, 2.4, 3.0],
        "values": [0.8, 0.0, 0.6],
    },
    "open_set": {"components": [[-3.0, -2.0], [-1.0, 1.0], [2.0, 3.5]]},
    "config": {"n_particles": 2000, "seed": 5, "dt": 0.001},
}

# name: (argv before the file options, input or None, CSV flag or None)
CASES = {
    "solve_readme": (["solve"], README_EXAMPLE, "--csv"),
    "solve_three_components": (["solve"], THREE_COMPONENTS, "--csv"),
    "order_split_pair": (["order"], SPLIT_PAIR, None),
    "potential_three_cells": (["potential"], THREE_CELLS, "--csv"),
    "repro_json": (["repro", "--json"], None, None),
    "simulate_empty_middle": (["simulate"], EMPTY_MIDDLE, "--hist"),
    "stability_lipschitz": (["stability", "--family", "lipschitz"], None, "--csv"),
    "stability_monotone": (["stability", "--family", "monotone"], None, "--csv"),
    "stability_weak": (["stability", "--family", "weak"], None, None),
}

EXPECTED = {
    "order_split_pair": {
        "exit": 0,
        "stdout": "67dd603dae7559460824a0e7f73ae0d83d8e1c2dcceef20d81e3914f1eb5ef39",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "potential_three_cells": {
        "exit": 0,
        "stdout": "a40077480cb98088110f92eaaa1b9d4ebd13f47bca89cd40bcd318ed3ed34a7c",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "csv": "f03da0beab37bbe3847187b3b0cc75f8278cf3110490e7e5aab81234d24f6cf6",
    },
    "repro_json": {
        "exit": 0,
        "stdout": "cf4a52018bf5bcdc4bb0da8d34c50e4615ba1dca008766fddc6941e4e121d770",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "simulate_empty_middle": {
        "exit": 0,
        "stdout": "1f4bbfd9e53a3597043aa1aced57e217f14a0aa10388c54742005a9facc50dcc",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "csv": "08325a71bb61e1aac0d2836a7ee26b076a8c62229a8a4a7b8c51ad5316266eda",
    },
    "solve_readme": {
        "exit": 0,
        "stdout": "c42119f506964b6bcdfe94b94296755b806e2c48f86be328208f41ea209760c7",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "csv": "5eeaf09fee1641ae2260ac9b8201458e18e782bd774968bd9be835f9bc0f62db",
    },
    "solve_three_components": {
        "exit": 0,
        "stdout": "48e741f77c3d98517e21b8a7e4cf3b8f38a56f3aacbc12cbbda964ab6d58538d",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "csv": "04865476db048418b0c9bbca6770645d6ebded5a52792d12c67f244c1ce3bc2f",
    },
    "stability_lipschitz": {
        "exit": 0,
        "stdout": "0990a955d939b4b8ce60cd25c3d9312413bea542e2f0a7d8569cab10c875af7f",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "csv": "da4b9794c1f87c4f6c08bee89e0543b997817d124b09b8ac69ebe53a3bf25026",
    },
    "stability_monotone": {
        "exit": 0,
        "stdout": "c8001ceeda6fb0f493f90bca316644ceff34c589ce8290e548098c39a5aa0292",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "csv": "a390cb07182a751b9fa3228e8e4340cf2ba4ce675d7820cd9cf17cdac9978323",
    },
    "stability_weak": {
        "exit": 0,
        "stdout": "47c9301cfb1c1bfeb73c2f81532a212356a36503237721099e8934754837f359",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str) -> dict:
    """Exit code and the digest of every output of one case."""
    argv, payload, csv_flag = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        if payload is not None:
            path = Path(tmp) / "in.json"
            path.write_text(json.dumps(payload))
            argv += ["--input", str(path)]
        csv = Path(tmp) / "out.csv"
        if csv_flag:
            argv += [csv_flag, str(csv)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        digests = {
            "exit": code,
            "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()),
        }
        if csv_flag:
            digests["csv"] = _sha(csv.read_bytes())
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes_unchanged(name):
    assert run_case(name) == EXPECTED[name]


if __name__ == "__main__":
    # print the digests of the package on the path, to record them above
    print(json.dumps({name: run_case(name) for name in sorted(CASES)}, indent=4))
