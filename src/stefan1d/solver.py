"""Maximal two-block targets: each component minus one gap interval.

On a component (c, d), the input's holes eta = (1 - mu) * 1_(c, d) have mass
h = d - c - k and barycentre g, and the saturated target is the indicator
of (c, e) union (f, d) with gap (e, f) = (g - h/2, g + h/2): the paper's
p = (k * (d - k/2) - beta) / ((d - c) - k) in terms of the holes. The
component is saturated exactly when h = 0. Every solve is
construct-then-verify: the result must pass the component-wise potential
order check or the operation fails loudly. A left-to-right sweep over unit
blocks provides an independent oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import (
    AdmissibilityError,
    InfeasibilityError,
    ValidationError,
    VerificationError,
)
from .measure import (
    DEFAULT_TOL,
    OpenSet1D,
    StepMeasure,
    _bounds,
    _from_cells,
    _slices,
    indicator,
    measures_allclose,
    restrict,
)
from .potential import (
    OrderCertificate,
    _certify_parts,
    _merged,
    _zeros_of_f,
    order_leq_sh_O,
    potential,
)


@dataclass(frozen=True)
class BlockPair:
    """Component endpoints c <= e <= f <= d of a two-block indicator."""

    c: float
    e: float
    f: float
    d: float

    def __post_init__(self):
        if not self.c <= self.e <= self.f <= self.d:
            raise ValidationError(
                f"block endpoints out of order: ({self.c}, {self.e}, {self.f}, {self.d})"
            )

    @property
    def p(self) -> float:
        """Left block width."""
        return self.e - self.c

    @property
    def q(self) -> float:
        """Right block width."""
        return self.d - self.f

    def measure(self) -> StepMeasure:
        return _blocks_measure([self.as_tuple()])

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.c, self.e, self.f, self.d)


@dataclass(frozen=True)
class MaximalSolution:
    """Two-block target per component, with the per-component (k, beta) data."""

    blocks: tuple[BlockPair, ...]
    measure: StepMeasure
    provenance: tuple[tuple[float, float], ...]
    certificate: OrderCertificate | None = None

    def to_json(self) -> dict:
        out = {
            "blocks": [list(b.as_tuple()) for b in self.blocks],
            "k": [k for k, _ in self.provenance],
            "beta": [b for _, b in self.provenance],
            "measure": self.measure.to_json(),
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


def solve_component(c: float, d: float, k: float, beta: float) -> BlockPair:
    """Two-block target on one interval from its mass and first moment about 0.

    With hole mass h = (d - c) - k, a beta outside k * mid -+ k * h / 2 by more
    than the policy's slack (default tolerance) raises InfeasibilityError.
    """
    if not c - c == d - d == k - k == beta - beta == 0.0:
        # only a finite x has x - x == 0; name the first that is not
        for name, x in (("c", c), ("d", d), ("k", k), ("beta", beta)):
            if not math.isfinite(x):
                raise ValidationError(f"{name} must be finite, got {x!r}")
    width = d - c
    if not 0.0 < width < math.inf:
        raise ValidationError(f"interval is empty, reversed or too wide: ({c!r}, {d!r})")
    mass_slack, moment_slack = _bounds(DEFAULT_TOL, abs(k), c, d)
    if k < -mass_slack:
        raise InfeasibilityError(f"mass k={k!r} is negative")
    if k > width + mass_slack:
        raise InfeasibilityError(f"mass k={k!r} exceeds the interval length {width!r}")
    h, mid = min(max(width - k, 0.0), width), 0.5 * (c + d)
    half = 0.5 * (width - h)  # the gap's centre lies within k/2 of the midpoint
    lean = k * mid - beta  # h times that offset
    if abs(lean) > half * h + moment_slack:
        side = "below the lower" if lean > 0.0 else "above the upper"
        bound = k * mid - math.copysign(half * h, lean)
        raise InfeasibilityError(f"first moment {beta!r} {side} bound {bound!r}")
    return _gap(c, d, h, min(max(lean / h, -half), half) if h else 0.0)


def _holes(mu: StepMeasure, c: float, d: float) -> tuple[float, float]:
    """Mass h of mu's holes (1 - mu)^+ on (c, d), and their barycentre's offset from the midpoint.

    Nonnegative weights and positions from the midpoint: nothing cancels near
    saturation or far from 0. Weights are in units of a power of two near
    d - c (exact), so no product under- or overflows at any scale.
    """
    mid, unit = 0.5 * (c + d), math.ldexp(1.0, min(-math.frexp(d - c)[1], 1023))
    b, v = (c, *mu.breaks, d), (0.0, *mu.values, 0.0)
    w = [(1.0 - x) * ((hi - lo) * unit) if x < 1.0 else 0.0 for x, lo, hi in zip(v, b, b[1:])]
    h = sum(w, 0.0)
    off = sum([x * ((lo - mid) + (hi - mid)) for x, lo, hi in zip(w, b, b[1:])], 0.0)
    return h / unit, (0.5 * off / h if h else 0.0)


def _gap(c: float, d: float, h: float, off: float) -> BlockPair:
    """Blocks of (c, d) around the gap (g - h/2, g + h/2), g = midpoint + off.

    The gap's ends are clamped into (c, d), where rounding may put them, and
    the narrower block is dropped below the policy's floor: a rounding sliver.
    """
    mid = 0.5 * (c + d)
    e, f = mid + (off - 0.5 * h), mid + (off + 0.5 * h)
    if not c <= e <= f <= d:
        e, f = min(max(e, c), d), min(max(f, c), d)
    if min(e - c, d - f) <= _bounds(0.0, 0.0, c, d)[0]:
        e, f = (c, f) if e - c <= d - f else (e, d)
    return BlockPair(c, e, f, d)


def solve(
    mu: StepMeasure, open_set: OpenSet1D, tol: float = DEFAULT_TOL
) -> MaximalSolution:
    """Maximal target for mu on the open set, certified before returning.

    Each component is solved from the holes of its restricted input, which
    always fit: a density in [0, 1] with hole mass h has its hole barycentre
    in [c + h/2, d - h/2]. A failed certificate raises VerificationError.
    """
    top = mu.max_density()
    if top > 1.0 + tol:
        raise AdmissibilityError(
            f"density {top:.9g} exceeds the admissible bound 1"
        )
    parts = restrict(mu, open_set, tol)
    blocks, stats = [], []
    for (c, d), mu_n in zip(open_set.components, parts):
        h, off = _holes(mu_n, c, d)
        blocks.append(_gap(c, d, h, off))
        # beta = W * mid - h * g, with restrict's mass for W - h
        stats.append((mu_n.mass, mu_n.mass * 0.5 * (c + d) - h * off))
    target = _blocks_measure(b.as_tuple() for b in blocks)
    # the target lies in the set by construction: restrict's leak check is moot
    certificate = _certify_parts(parts, _slices(target, open_set), open_set, tol)
    if not certificate.ordered:
        raise VerificationError(
            "solver output failed the potential order certification "
            f"(worst gap {certificate.worst_gap:.3e} at {certificate.worst_point:.9g})",
            certificate,
        )
    return MaximalSolution(tuple(blocks), target, tuple(stats), certificate)


def _blocks_measure(blocks: Iterable[tuple[float, ...]]) -> StepMeasure:
    """Indicator of (c, e) union (f, d) over every (c, e, f, d) given."""
    cells = []
    for c, e, f, d in blocks:
        cells.extend(((c, e, 1.0), (f, d, 1.0)))
    return _from_cells(cells)


# -- sweep oracle ----------------------------------------------------------------


def _unit_blocks(mu: StepMeasure) -> list[tuple[float, float]]:
    blocks = []
    for lo, hi, v in mu.cells():
        if v == 0.0:
            continue
        if abs(v - 1.0) > 1e-12:
            raise ValidationError(
                f"sweep needs unit-density blocks, found density {v!r} on "
                f"({lo!r}, {hi!r}); overlapping input blocks add up"
            )
        blocks.append((lo, hi))
    return blocks


def _sweep(mu: StepMeasure, open_set: OpenSet1D):
    """Final block pair, unit blocks and one (sat_end, carry, i) per merge.

    Linear in the blocks: after merge i, (c, sat_end) is saturated and carry
    is the produced right block; only :func:`sweep_states` builds the states.
    """
    if len(open_set.components) != 1:
        raise ValidationError("sweep operates on a single-interval domain")
    (c, d) = open_set.components[0]
    blocks = _unit_blocks(mu)
    if not blocks:
        return BlockPair(c, c, d, d), blocks, []
    if blocks[0][0] <= c or blocks[-1][1] >= d:
        raise ValidationError("sweep blocks must lie strictly inside the domain")

    merges = []
    sat_end = c  # (c, sat_end) is saturated so far
    carry = blocks[0]
    for i, nxt in enumerate(blocks[1:], start=1):
        a, b = carry
        sub = solve_component(sat_end, nxt[0], b - a, (b * b - a * a) / 2.0)
        sat_end = sub.e
        carry = (sub.f, nxt[1])  # produced right block touches the next one
        merges.append((sat_end, carry, i))
    a, b = carry
    final = solve_component(sat_end, d, b - a, (b * b - a * a) / 2.0)
    return BlockPair(c, final.e, final.f, d), blocks, merges


def solve_by_sweep(mu: StepMeasure, open_set: OpenSet1D) -> MaximalSolution:
    """Left-to-right merge oracle for the closed form, on one interval.

    Solves the leftmost block in the sub-domain ending at the next block's
    left edge, merges the produced right block with that one, and repeats;
    mass and first moment are conserved at every step, so the final two-block
    state must match :func:`solve`. Linear in the number of blocks, since
    only :func:`sweep_states` builds the intermediate states. No
    certification is run here, keeping the route independent.
    """
    block, _, _ = _sweep(mu, open_set)
    target = block.measure()
    return MaximalSolution(
        (block,), target, ((mu.mass, mu.first_moment),), certificate=None
    )


def sweep_states(mu: StepMeasure, open_set: OpenSet1D) -> list[StepMeasure]:
    """Intermediate measures produced by the sweep, excluding mu and the target.

    The only builder of these states, quadratic in the number of blocks.
    """
    _, blocks, merges = _sweep(mu, open_set)
    c = open_set.components[0][0]
    return [
        _from_cells(
            [(c, sat_end, 1.0), (carry[0], carry[1], 1.0)]
            + [(lo, hi, 1.0) for lo, hi in blocks[i + 1 :]]
        )
        for sat_end, carry, i in merges
    ]


# -- stationary point of the potential difference ---------------------------------


def critical_point(k: float, beta: float) -> float:
    """Unique stationary point of U_target - U_source on (-1, 1).

    The source is the single unit block with the given mass and first moment,
    the target its two-block solution on (-1, 1). Both have mass k, so the
    derivative of the difference is -F, F the cumulative distribution of
    target - source; the point is the single interior zero of F. The built
    potential difference checks it: it must vanish at the endpoints, stay
    nonpositive inside and attain its minimum there, to the policy's bound.
    The repro manifest compares it with the appendix's closed form.
    """
    if not 0.0 < k < 2.0:
        raise InfeasibilityError(f"mass must satisfy 0 < k < 2, got {k!r}")
    if not abs(beta) < k - 0.5 * k * k:
        raise InfeasibilityError(f"first moment {beta!r} outside the window -+{k - 0.5 * k * k!r}")
    a = beta / k - 0.5 * k
    b = beta / k + 0.5 * k
    source = indicator(a, b)
    # holes of mass h = 2 - k about the midpoint 0, with h * offset = -beta
    target = _gap(-1.0, 1.0, 2.0 - k, -beta / (2.0 - k)).measure()

    zeros, flats = _zeros_of_f(*_merged(target, source))
    margin = 1e-7
    interior = [r for r in zeros if -1.0 + margin < r < 1.0 - margin]
    interior_flats = [
        seg for seg in flats if seg[1] > -1.0 + margin and seg[0] < 1.0 - margin
    ]
    if interior_flats:
        raise VerificationError(
            f"derivative difference vanishes on segments {interior_flats}"
        )
    if len(interior) != 1:
        raise VerificationError(
            f"expected a unique interior stationary point, found {interior}"
        )
    (s0,) = interior

    u_target, u_source = potential(target), potential(source)
    diff = u_target - u_source
    bound = _bounds(DEFAULT_TOL, k, -1.0, 1.0)[1]
    if abs(diff(-1.0)) > bound or abs(diff(1.0)) > bound:
        raise VerificationError("potential difference does not vanish at the endpoints")
    top, _ = diff.max_on(-1.0, 1.0)
    if top > bound:
        raise VerificationError(f"potential difference positive inside: {top!r}")
    # the minimum of diff is minus the maximum of its negation, which IEEE
    # subtraction gives exactly as u_source - u_target
    neg_bottom, arg = (u_source - u_target).max_on(-1.0, 1.0)
    bottom = -neg_bottom
    if abs(diff(s0) - bottom) > bound:
        raise VerificationError(
            f"minimum at {arg!r} with value {bottom!r} is not attained at s0={s0!r}"
        )
    return s0


# -- primal objective and cost independence ----------------------------------------


@dataclass(frozen=True)
class ConcaveGrid:
    """Cost function given by samples on a grid, certified concave.

    Slopes must be nonincreasing (second differences <= 0, up to rounding);
    weakly concave samples such as a linear cost are accepted, strictly
    convex kinks are not.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ValidationError("need matching xs/ys with at least two samples")
        if not all(map(math.isfinite, (*self.xs, *self.ys))):
            raise ValidationError("cost grid samples must be finite")
        for i in range(len(self.xs) - 1):
            if self.xs[i + 1] <= self.xs[i]:
                raise ValidationError(f"grid not strictly increasing at index {i}")
        slopes = [
            (self.ys[i + 1] - self.ys[i]) / (self.xs[i + 1] - self.xs[i])
            for i in range(len(self.xs) - 1)
        ]
        span = max(abs(s) for s in slopes) + 1.0
        for i in range(len(slopes) - 1):
            if slopes[i + 1] > slopes[i] + 1e-12 * span:
                raise ValidationError(
                    f"cost samples are not concave at index {i + 1}"
                )

    @classmethod
    def from_function(
        cls, fn: Callable[[float], float], lo: float, hi: float, n: int = 1001
    ) -> "ConcaveGrid":
        # n < 2 leaves fewer than two samples, which the constructor rejects
        xs = [lo + (hi - lo) * i / max(n - 1, 1) for i in range(n)]
        return cls(tuple(xs), tuple(fn(x) for x in xs))

    def __call__(self, x: float) -> float:
        if x < self.xs[0] - 1e-12 or x > self.xs[-1] + 1e-12:
            raise ValidationError(f"point {x!r} outside the cost grid")
        i = min(max(bisect_right(self.xs, x) - 1, 0), len(self.xs) - 2)
        t = (x - self.xs[i]) / (self.xs[i + 1] - self.xs[i])
        return self.ys[i] * (1.0 - t) + self.ys[i + 1] * t


def primal_objective(nu: StepMeasure, cost: ConcaveGrid) -> float:
    """Integral of the piecewise-linear interpolant of the cost against nu.

    Exact for the interpolant: the trapezoid rule on the merged grid of cell
    boundaries and cost nodes introduces no further error.
    """
    if nu.ncells == 0:
        return 0.0
    lo_s, hi_s = nu.support()
    if lo_s < cost.xs[0] - 1e-12 or hi_s > cost.xs[-1] + 1e-12:
        raise ValidationError("measure support leaves the cost grid")
    total = 0.0
    for lo, hi, v in nu.cells():
        if v == 0.0:
            continue
        inner = list(cost.xs[bisect_right(cost.xs, lo) : bisect_left(cost.xs, hi)])
        pts = [lo] + inner + [hi]
        f_prev = cost(pts[0])
        for left, right in zip(pts, pts[1:]):
            f_right = cost(right)
            total += v * (right - left) * (f_prev + f_right) / 2.0
            f_prev = f_right
    return total


@dataclass(frozen=True)
class CandidateResult:
    index: int
    admissible: bool
    certificate: OrderCertificate
    objectives: tuple[float, ...]  # one per cost; nan when inadmissible


@dataclass(frozen=True)
class CostIndependenceReport:
    """Primal objectives of candidate targets against a battery of costs.

    ``ok`` certifies that, for every cost, the maximal target achieves the
    minimum over the admissible candidates and the argmin measure coincides
    with it: the computable restatement of cost independence.
    """

    solution: MaximalSolution
    candidates: tuple[CandidateResult, ...]
    optimal_objectives: tuple[float, ...]
    argmin_indices: tuple[int, ...]
    argmin_is_maximal: tuple[bool, ...]
    ok: bool


def check_admissible(
    nu: StepMeasure, mu: StepMeasure, open_set: OpenSet1D
) -> OrderCertificate:
    """Certificate that nu is a reachable target for mu inside the open set."""
    top = nu.max_density()
    if top > 1.0 + DEFAULT_TOL:
        lo_s, hi_s = nu.support()
        return OrderCertificate(
            ordered=False,
            mass_gap=0.0,
            moment_gap=0.0,
            worst_point=0.5 * (lo_s + hi_s),
            worst_gap=top - 1.0,
            note=f"density {top:.9g} exceeds the unit bound",
        )
    try:
        return order_leq_sh_O(mu, nu, open_set)
    except ValidationError:
        # nu outside the set fails the certificate even when mu leaks too
        try:
            restrict(nu, open_set)
        except ValidationError as exc:
            return OrderCertificate(
                ordered=False,
                mass_gap=0.0,
                moment_gap=0.0,
                worst_point=0.0,
                worst_gap=math.inf,
                note=f"support violation: {exc}",
            )
        raise


def independence_check(
    mu: StepMeasure,
    open_set: OpenSet1D,
    candidates: Sequence[StepMeasure],
    costs: Sequence[ConcaveGrid],
) -> CostIndependenceReport:
    """Compare primal objectives of admissible candidates against the solver output."""
    solution = solve(mu, open_set)
    star = solution.measure
    optimal = tuple(primal_objective(star, cost) for cost in costs)

    rows: list[CandidateResult] = []
    for i, cand in enumerate(candidates):
        cert = check_admissible(cand, mu, open_set)
        if cert.ordered:
            objs = tuple(primal_objective(cand, cost) for cost in costs)
        else:
            objs = tuple(math.nan for _ in costs)
        rows.append(CandidateResult(i, cert.ordered, cert, objs))

    argmins: list[int] = []
    argmin_is_max: list[bool] = []
    ok = True
    for j, opt in enumerate(optimal):
        best_idx, best_val = -1, math.inf
        for row in rows:
            if row.admissible and row.objectives[j] < best_val:
                best_idx, best_val = row.index, row.objectives[j]
        argmins.append(best_idx)
        tie = 1e-12 * (1.0 + abs(opt))
        if best_idx < 0:
            argmin_is_max.append(True)  # no admissible competitor
            continue
        is_max = measures_allclose(candidates[best_idx], star, 1e-9)
        argmin_is_max.append(is_max)
        if best_val < opt - tie or not is_max:
            ok = False
    return CostIndependenceReport(
        solution=solution,
        candidates=tuple(rows),
        optimal_objectives=optimal,
        argmin_indices=tuple(argmins),
        argmin_is_maximal=tuple(argmin_is_max),
        ok=ok,
    )

