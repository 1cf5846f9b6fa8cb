"""Two-sample KS test of the particle walk's law against another checkout.

    python tools/particle_law.py OTHER_CHECKOUT   # compare ./src with OTHER_CHECKOUT/src
    python tools/particle_law.py --src src        # one JSON line per seed

Each side runs MU1, 0.99 chi_(0, sqrt(0.75)) on (-1, 1), for seeds 0 to 299
with n = 2,000 walkers at dt = 1e-3, and records each run's p_hat,
mean_freeze_time and freeze_position_std. A change that keeps the walk's law
but moves its random streams passes; a change of law shows as a small p.
Exit status 1 when any of the three p-values is below 0.01.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS, N, DT = 300, 2000, 1e-3
FIELDS = ("p_hat", "mean_freeze_time", "freeze_position_std")
ALPHA = 0.01


def dump(out) -> None:
    from stefan1d import OpenSet1D, SimConfig, indicator, run

    mu = indicator(0.0, math.sqrt(0.75), 0.99)
    domain = OpenSet1D.interval(-1.0, 1.0)
    for seed in range(SEEDS):
        (comp,) = run(mu, domain, SimConfig(n_particles=N, seed=seed, dt=DT)).components
        out.write(json.dumps([getattr(comp, name) for name in FIELDS]) + "\n")


def _run(src: str) -> list[list[float]]:
    cmd = [sys.executable, os.path.abspath(__file__), "--src", src]
    proc = subprocess.run(cmd, capture_output=True, check=True, text=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", nargs="?", help="a second checkout whose src/ to compare with")
    parser.add_argument("--src", help="print one run's statistics per seed for this source tree")
    args = parser.parse_args(argv)
    if args.src:
        sys.path.insert(0, os.path.abspath(args.src))
        dump(sys.stdout)
        return 0
    if not args.other:
        parser.error("give --src or a checkout to compare with")
    from scipy import stats

    mine, theirs = _run(os.path.join(ROOT, "src")), _run(os.path.join(args.other, "src"))
    worst = 1.0
    for i, name in enumerate(FIELDS):
        a, b = [row[i] for row in mine], [row[i] for row in theirs]
        p = stats.ks_2samp(a, b).pvalue
        worst = min(worst, p)
        means = f"{sum(a) / len(a):.6g} here, {sum(b) / len(b):.6g} there"
        print(f"{name}: KS p = {p:.3f} (means {means})")
    print("same law" if worst >= ALPHA else f"law differs: p < {ALPHA}")
    return 0 if worst >= ALPHA else 1


if __name__ == "__main__":
    sys.exit(main())
