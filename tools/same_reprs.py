"""Reprs of the sweep oracle's and the solver's outputs on a fixed input set.

    python tools/same_reprs.py --src src          # one line per input and call
    python tools/same_reprs.py OTHER_CHECKOUT     # compare ./src with OTHER_CHECKOUT/src

The inputs are the draws of tests/test_holes.py's strategies (components,
unit_blocks, light_components; a derandomized Hypothesis run) with that
file's named cases, and paper_checks' pooled inputs from
perfbench/workloads.py at seeds 1 and 2, on (-1, 1). Each goes through
solve_by_sweep, sweep_states and solve, and critical_point runs at each
solution's (k, beta) and on drawn (k, beta) pairs; a refusal prints as its
exception's repr. The strategies and the workload come from this checkout on
both sides of a comparison, so only the package differs. Exit status 1 when
the two packages print differently.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRAWS = 300  # examples per strategy


def _draws(strategy, n: int = DRAWS) -> list:
    from hypothesis import HealthCheck, Phase, given, settings

    found = []

    @settings(
        max_examples=n,
        derandomize=True,
        database=None,
        deadline=None,
        phases=[Phase.generate],
        suppress_health_check=list(HealthCheck),
    )
    @given(strategy)
    def collect(x):
        found.append(x)

    collect()
    return found


def _cases():
    """(mu, c, d) inputs: test_holes.py's draws and named cases, then paper_checks' pool."""
    import numpy as np
    import stefan1d
    import test_holes as th
    from workloads import PaperChecks

    for strategy in (th.components(), th.unit_blocks(), th.light_components()):
        yield from _draws(strategy)
    yield th._NEAR_SATURATION
    far = th._FAR_BLOCKS
    alternating = [1.0 - i % 2 for i in range(len(far) - 1)]
    yield stefan1d.make_step_measure(far, alternating), 1e8, 1e8 + 3.0
    for s, unit in ((1e160, 1e147), (0.0, 1e-300), (1e-300, 1e-300)):
        yield th._scaled(s, unit)
    for seed in (1, 2):
        rng = np.random.default_rng([seed, *PaperChecks.name.encode()])
        with tempfile.TemporaryDirectory() as workdir:
            state = PaperChecks().setup(stefan1d, rng, workdir)
        for independence, sweeps in state["rounds"]:
            yield from ((mu, -1.0, 1.0) for mu in independence)
            yield from ((mu, -1.0, 1.0) for _, mu in sweeps)
        seq, limit = state["weak"]
        yield from ((mu, -1.0, 1.0) for mu in (*seq, limit))
        for _, mu1, mu2 in state["monotone"]:
            yield from ((mu1, -1.0, 1.0), (mu2, -1.0, 1.0))


def dump(out) -> None:
    from hypothesis import strategies as st

    from stefan1d import OpenSet1D, critical_point, solve, solve_by_sweep, sweep_states

    def call(name, fn, *args):
        try:
            result = fn(*args)
        except Exception as exc:  # a refusal is an output too
            result = exc
        out.write(f"{name} {result!r}\n")
        return result

    for mu, c, d in _cases():
        out.write(f"input {mu!r} on ({c!r}, {d!r})\n")
        domain = OpenSet1D.interval(c, d)
        call("solve_by_sweep", solve_by_sweep, mu, domain)
        call("sweep_states", sweep_states, mu, domain)
        sol = call("solve", solve, mu, domain)
        if not isinstance(sol, Exception):
            call("critical_point", critical_point, *sol.provenance[0])
    pairs = st.tuples(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True), st.floats(-1.0, 1.0))
    for k, t in _draws(pairs):
        beta = t * (k - 0.5 * k * k)  # t of the way to the window's edge
        call(f"critical_point({k!r}, {beta!r})", critical_point, k, beta)


def _run(src: str) -> bytes:
    cmd = [sys.executable, os.path.abspath(__file__), "--src", src]
    proc = subprocess.run(cmd, capture_output=True, check=True)
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", nargs="?", help="a second checkout whose src/ to compare with")
    parser.add_argument("--src", help="print the reprs of the package in this source tree")
    args = parser.parse_args(argv)
    if args.src:
        sys.path[:0] = [
            os.path.abspath(args.src),
            os.path.join(ROOT, "tests"),
            os.path.join(ROOT, "perfbench"),
        ]
        dump(sys.stdout)
        return 0
    if not args.other:
        parser.error("give --src or a checkout to compare with")
    mine, theirs = _run(os.path.join(ROOT, "src")), _run(os.path.join(args.other, "src"))
    for name, text in (("this checkout", mine), (args.other, theirs)):
        digest = hashlib.sha256(text).hexdigest()[:16]
        print(f"{name}: {len(text.splitlines())} lines, sha256 {digest}")
    if mine != theirs:
        for i, (a, b) in enumerate(zip(mine.splitlines(), theirs.splitlines()), start=1):
            if a != b:
                print(f"first difference at line {i}:\n  {a[:300]!r}\n  {b[:300]!r}")
                break
        return 1
    print("identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
