"""Reference computations and output checks, made apart from the program.

Nothing here imports ``stefan1d``. Masses, first moments, block endpoints,
potentials and gaps are recomputed with numpy from the generated inputs;
each check returns a list of failure messages, empty when the output is
right. The checks run after each operation, outside the timed section.
Component quantities are taken in coordinates local to the component's left
end, so the reference stays well conditioned away from the origin.
"""

from __future__ import annotations

import numpy as np

# Block endpoints, masses and moments are exact closed forms, so the
# tolerance only absorbs rounding, including the 12 significant digits of
# the command line's JSON output.
ENDPOINT_TOL = 1e-9
CONSERVATION_TOL = 1e-9
# Same absolute tolerance as the program's own certificate.
POTENTIAL_TOL = 1e-9
SWEEP_TOL = 1e-8
WEAK_TOL = 1e-12
LIPSCHITZ_TOL = 1e-9
PARTICLE_MASS_TOL = 1e-10
PARTICLE_SPLIT_TOL = 0.005


def _fail(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


# -- component references ----------------------------------------------------------


def mass_moment(c: float, lo: np.ndarray, hi: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Mass k and first moment about c of the cells (lo, hi) with densities v."""
    a, b = lo - c, hi - c
    return float(np.sum(v * (b - a))), float(np.sum(v * (b * b - a * a)) / 2.0)


def closed_form(c: float, d: float, k: float, beta_local: float) -> tuple[float, float]:
    """Endpoints (e, f) of the two-block target, from p = (k(d - k/2) - beta)/((d - c) - k).

    With the moment taken about c the formula reads
    p = (k (W - k/2) - beta_local) / (W - k), W = d - c.
    """
    width = d - c
    p = (k * (width - 0.5 * k) - beta_local) / (width - k)
    return c + p, d - (k - p)


def potential(y: np.ndarray, lo: np.ndarray, hi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """U(y) = -1/2 * integral |y - x| dmu(x) of a step density, at each y.

    Uses integral_a^b |y - x| dx = ((y - a)|y - a| - (y - b)|y - b|) / 2.
    """
    ya = y[:, None] - lo[None, :]
    yb = y[:, None] - hi[None, :]
    inner = (ya * np.abs(ya) - yb * np.abs(yb)) / 2.0
    return -0.5 * (inner @ v)


# -- solve checks ---------------------------------------------------------------------


def check_endpoints(c, d, k, beta_local, e, f, tol=ENDPOINT_TOL) -> list[str]:
    e_ref, f_ref = closed_form(c, d, k, beta_local)
    return _fail(
        abs(e - e_ref) <= tol and abs(f - f_ref) <= tol,
        f"endpoints ({e!r}, {f!r}) on ({c}, {d}) differ from the closed form "
        f"({e_ref!r}, {f_ref!r})",
    )


def check_block_mass(c, d, k, e, f, tol=CONSERVATION_TOL) -> list[str]:
    got = (e - c) + (d - f)
    return _fail(abs(got - k) <= tol, f"blocks on ({c}, {d}) carry mass {got!r}, input {k!r}")


def check_block_moment(c, d, beta_local, e, f, tol=CONSERVATION_TOL) -> list[str]:
    p, w, g = e - c, d - c, f - c
    got = (p * p + (w * w - g * g)) / 2.0
    return _fail(
        abs(got - beta_local) <= tol,
        f"blocks on ({c}, {d}) carry first moment {got!r} about c, input {beta_local!r}",
    )


def check_potential_order(c, d, mu_cells, nu_cells, n_points=257, tol=POTENTIAL_TOL) -> list[str]:
    """U_nu - U_mu <= tol on a grid of points of [c, d].

    ``mu_cells`` and ``nu_cells`` are (lo, hi, v) arrays of the component's
    input and target; the grid holds both ends and n_points - 2 interior
    points.
    """
    y = np.linspace(0.0, d - c, n_points)
    lo_m, hi_m, v_m = (np.asarray(a, dtype=float) for a in mu_cells)
    lo_n, hi_n, v_n = (np.asarray(a, dtype=float) for a in nu_cells)
    gap = potential(y, lo_n - c, hi_n - c, v_n) - potential(y, lo_m - c, hi_m - c, v_m)
    worst = int(np.argmax(gap))
    return _fail(
        gap[worst] <= tol,
        f"U_nu - U_mu = {gap[worst]:.3e} > {tol} at {float(c + y[worst])!r} on ({c}, {d})",
    )


def check_certificate(certificate: dict) -> list[str]:
    return _fail(certificate.get("ordered") is True, f"certificate not ordered: {certificate}")


def check_component(c, d, mu_cells, e, f) -> list[str]:
    """Every solve check for one component, given the input cells and the output blocks."""
    k, beta_local = mass_moment(c, *mu_cells)
    nu_cells = ([c, f], [e, d], [1.0, 1.0])
    return (
        check_endpoints(c, d, k, beta_local, e, f)
        + check_block_mass(c, d, k, e, f)
        + check_block_moment(c, d, beta_local, e, f)
        + check_potential_order(c, d, mu_cells, nu_cells)
    )


# -- particle checks --------------------------------------------------------------------


def check_exit(code: int) -> list[str]:
    return _fail(code == 0, f"exit code {code}")


def check_particle_counts(comp: dict) -> list[str]:
    total = comp["frozen_left"] + comp["frozen_right"]
    return _fail(total == comp["n"], f"frozen {total} of {comp['n']} walkers")


def check_particle_mass(comp: dict, k: float, tol=PARTICLE_MASS_TOL) -> list[str]:
    got = comp["p_hat"] + comp["q_hat"]
    return _fail(abs(got - k) <= tol, f"p_hat + q_hat = {got!r}, input mass {k!r}")


def check_particle_split(comp: dict, p: float, tol=PARTICLE_SPLIT_TOL) -> list[str]:
    err = abs(comp["p_hat"] - p)
    return _fail(err <= tol, f"|p_hat - p| = {err:.3e} > {tol}")


def check_formula_comparison(max_p_error: float, comp: dict, p: float, tol=1e-12) -> list[str]:
    """The library's comparison must report the split error computed here."""
    err = abs(comp["p_hat"] - p)
    return _fail(
        abs(max_p_error - err) <= tol,
        f"compare_to_formula reports {max_p_error!r}, |p_hat - p| = {err!r}",
    )


# -- paper checks ----------------------------------------------------------------------


def check_independence(ok: bool, argmin_is_maximal) -> list[str]:
    return _fail(
        ok and all(argmin_is_maximal),
        f"cost independence failed: ok={ok}, argmin_is_maximal={tuple(argmin_is_maximal)}",
    )


def check_sweep(c, d, blocks, e, f, tol=SWEEP_TOL) -> list[str]:
    """Unit blocks [(a, b), ...] on (c, d): the target endpoints (e, f) against the closed form."""
    lo = np.array([a for a, _ in blocks])
    hi = np.array([b for _, b in blocks])
    k, beta_local = mass_moment(c, lo, hi, np.ones(len(blocks)))
    return check_endpoints(c, d, k, beta_local, e, f, tol)


def check_weak_gaps(gaps, ls, bounded: bool, tol=WEAK_TOL) -> list[str]:
    """The family (1 - 1/l) chi_(-1/2, 1/2) has target gap exactly 1/l to its limit."""
    worst = max(abs(g - 1.0 / l) for g, l in zip(gaps, ls))
    return _fail(len(gaps) == len(ls), f"{len(gaps)} gaps for {len(ls)} members") + _fail(
        worst <= tol and bounded,
        f"weak-convergence gap defect {worst:.3e} > {tol} or unbounded ({bounded})",
    )


def _intervals_overlap(xs, ys) -> float:
    return sum(max(0.0, min(b1, b2) - max(a1, a2)) for a1, b1 in xs for a2, b2 in ys)


def lipschitz_gaps(x: float, y: float, r: float, c: float) -> tuple[float, float]:
    """Input and target gaps ||(mu1 - mu2)_+||, ||(nu1 - nu2)_+|| of the blow-up pair.

    mu1 = r chi_(-x, x), mu2 = chi_(-c, -c + r y) + r chi_(-x, x - y) on (-1, 1);
    the targets come from the closed form and the gap is the length of the
    first target's blocks minus their overlap with the second's.
    """
    targets = []
    for cells in (
        [(-x, x, r)],
        [(-c, -c + r * y, 1.0), (-x, x - y, r)],
    ):
        lo, hi, v = (np.array(col, dtype=float) for col in zip(*cells))
        k, beta_local = mass_moment(-1.0, lo, hi, v)
        e, f = closed_form(-1.0, 1.0, k, beta_local)
        targets.append([(-1.0, e), (f, 1.0)])
    length = sum(b - a for a, b in targets[0])
    return r * y, length - _intervals_overlap(targets[0], targets[1])


def check_lipschitz(params, input_gap: float, output_gap: float, tol=LIPSCHITZ_TOL) -> list[str]:
    ref_in, ref_out = lipschitz_gaps(*params)
    return _fail(
        abs(input_gap - ref_in) <= tol and abs(output_gap - ref_out) <= tol,
        f"Lipschitz pair {params}: gaps ({input_gap!r}, {output_gap!r}), "
        f"closed form ({ref_in!r}, {ref_out!r})",
    )


def check_monotonicity(name: str, monotone_in: bool, monotone_out: bool) -> list[str]:
    """Examples 5.1 and 5.2: ordered inputs whose targets are not ordered."""
    return _fail(
        monotone_in and not monotone_out,
        f"{name}: monotone_in={monotone_in}, monotone_out={monotone_out}",
    )

