"""Maximal two-block targets: each component minus one gap interval.

On a component (c, d), the input's holes eta = (1 - mu) * 1_(c, d) have mass
h = d - c - k and barycentre g, and the saturated target is the indicator
of (c, e) union (f, d) with gap (e, f) = (g - h/2, g + h/2): the paper's
p = (k * (d - k/2) - beta) / ((d - c) - k) in terms of the holes. The
component is saturated exactly when h = 0. Every solve is
construct-then-verify: the result must pass the component-wise potential
order check or the operation fails loudly. A left-to-right sweep over unit
blocks, merging through the same hole pass, is an independent oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Sequence

from .errors import AdmissibilityError, InfeasibilityError, SupportError, ValidationError
from .errors import VerificationError
from .measure import DEFAULT_TOL, OpenSet1D, StepMeasure, _bounds, _canonical, _check_tol, _cuts
from .measure import _mass, _unit, indicator, measures_allclose
from .measure import restrict  # noqa: F401  (uncalled: tests/test_trace_contract.py pins it)
from .potential import OrderCertificate, _certify_parts, dominates, order_leq_sh_O
from .potential import potential  # noqa: F401  (uncalled: pinned as restrict is)


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
    provenance: tuple[tuple[float, float], ...]
    certificate: OrderCertificate | None = None

    @cached_property
    def measure(self) -> StepMeasure:
        """The target, built from the blocks on first read: ValidationError if its moments overflow."""
        return _blocks_measure(b.as_tuple() for b in self.blocks)

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
    """Public (k, beta) form of the two-block target: mass and first moment about 0.

    With hole mass h = (d - c) - k, a beta outside k * mid -+ k * h / 2 by more
    than the policy's slack (default tolerance) raises InfeasibilityError.
    """
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
    c, d, off = c + 0.0, d + 0.0, min(max(lean / h, -half), half) if h else 0.0
    return BlockPair(c, *_gap(c, d, h, off), d)


def _holes(breaks: Sequence, values: Sequence, c: float, d: float) -> tuple[float, float, float]:
    """Mass h and barycentre offset of the holes (1 - mu)^+ on (c, d), and mu's centred moment.

    mu's breaks and values lie in [c, d], a measure's or a cut's. Nonnegative
    weights and positions from the midpoint: nothing cancels near saturation
    or far from 0. Weights are in the length unit of (c, d)
    (:func:`stefan1d.measure._unit`), so no product under- or overflows. The
    offset and the moment are about the midpoint: mu's mass times the midpoint
    plus its centred moment is its first moment beta, the one the package reports.
    """
    mid, unit, b = 0.5 * (c + d), _unit(c, d), (c, *breaks, d)
    w, moments, centred = [], [], []
    for x, lo, hi in zip((0.0, *values, 0.0), b, b[1:]):
        width, arm = (hi - lo) * unit, (lo - mid) + (hi - mid)
        w.append((1.0 - x) * width if x < 1.0 else 0.0)
        moments.append(w[-1] * arm)
        centred.append(x * (width * (arm * unit)))
    h, off = sum(w, 0.0), sum(moments, 0.0)
    return h / unit, (0.5 * off / h if h else 0.0), 0.5 * sum(centred, 0.0) / unit / unit


def _gap(c: float, d: float, h: float, off: float) -> tuple[float, float]:
    """Ends (e, f) of the blocks of (c, d) around the gap (g - h/2, g + h/2), g = midpoint + off.

    The gap's ends are clamped into [c, d] only where rounding puts them
    outside; no block is dropped, however narrow. So c <= e <= f <= d; only a
    caller's result is built as a :class:`BlockPair`.
    """
    mid = 0.5 * (c + d)
    e, f = mid + (off - 0.5 * h), mid + (off + 0.5 * h)
    if not c <= e <= f <= d:
        e, f = min(max(e, c), d), min(max(f, c), d)
    return e, f


def solve(
    mu: StepMeasure, open_set: OpenSet1D, tol: float = DEFAULT_TOL
) -> MaximalSolution:
    """Maximal target for mu on the open set, certified before returning.

    Each component is solved from the holes of its restricted input, which
    always fit: a density in [0, 1] with hole mass h has its hole barycentre
    in [c + h/2, d - h/2]. Only mu is cut: the certificate reads each
    component's target from its block pair. A failed certificate raises
    VerificationError.
    """
    _check_tol(tol)
    _admit(mu, tol)
    cuts = _cuts(mu, open_set, tol)
    blocks, stats = [], []
    for (c, d), (breaks, values, k) in zip(open_set.components, cuts):
        h, off, moment = _holes(breaks, values, c, d)
        e, f = _gap(c, d, h, off)
        blocks.append(BlockPair(c, e, f, d))
        stats.append((k, k * (0.5 * (c + d)) + moment))
    certificate = _certify_parts(cuts, [*map(_pair_cut, blocks)], open_set, tol)
    if not certificate.ordered:
        raise VerificationError(
            "solver output failed the potential order certification "
            f"(worst gap {certificate.worst_gap:.3e} at {certificate.worst_point:.9g})",
            certificate,
        )
    return MaximalSolution(tuple(blocks), tuple(stats), certificate)


def _pair_cut(pair: BlockPair) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """The pair's indicator on (c, d) as :func:`_cuts` cuts its target: no zero end cell."""
    c, e, f, d = breaks = pair.as_tuple()
    if e == f:
        breaks, values = (c, d), (1.0,)
    elif e == c:
        breaks, values = ((f, d), (1.0,)) if f < d else ((), ())
    elif f == d:
        breaks, values = (c, e), (1.0,)
    else:
        values = (1.0, 0.0, 1.0)
    return breaks, values, _mass(breaks, values)


def _admit(mu: StepMeasure, tol: float) -> None:
    """AdmissibilityError where mu's density passes the admissible bound 1 by more than tol."""
    top = mu.max_density()
    if top > 1.0 + tol:
        raise AdmissibilityError(f"density {top:.9g} exceeds the admissible bound 1")


def _blocks_measure(blocks: Iterable[tuple[float, ...]]) -> StepMeasure:
    """Indicator of (c, e) union (f, d) over every (c, e, f, d) given, left to right."""
    breaks = [*map(float, chain.from_iterable(blocks))]
    return _canonical(breaks, [1.0, 0.0, 1.0, 0.0] * (len(breaks) // 4))


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


def _two_holes(e: float, h: float, right: float, end: float) -> tuple[float, float]:
    """:func:`_holes` on (e, end) for holes (e, e + h), known by its mass h, and (right, end)."""
    mid, unit = 0.5 * (e + end), _unit(e, end)
    w, v = h * unit, (end - right) * unit
    off = w * ((e - mid) + ((e - mid) + h)) + v * ((right - mid) + (end - mid))
    return (w + v) / unit, 0.5 * off / (w + v)


def _sweep(mu: StepMeasure, open_set: OpenSet1D):
    """Final block pair (the one pair built), unit blocks and one (sat_end, carry, i) per merge.

    Linear in the blocks. (c, e) is saturated, a hole of mass h follows, and
    the carried block ends at right: each merge carries h, not rounded ends.
    carry is the produced block, its left end rounded, for :func:`sweep_states`.
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
    e, h, right = c, blocks[0][0] - c, blocks[0][1]
    for i, (lo, hi) in enumerate(blocks[1:], start=1):
        h, off = _two_holes(e, h, right, lo)
        e, f = _gap(e, lo, h, off)
        right = hi  # the produced right block touches the next one
        merges.append((e, (f, hi), i))
    e, f = _gap(e, d, *_two_holes(e, h, right, d))
    return BlockPair(c, e, f, d), blocks, merges


def solve_by_sweep(mu: StepMeasure, open_set: OpenSet1D) -> MaximalSolution:
    """Left-to-right merge oracle for the closed form, on one interval.

    Solves the leftmost block in the sub-domain ending at the next block's
    left edge, merges the produced right block with that one, and repeats;
    mass and first moment are conserved at every step, so the final two-block
    state must match :func:`solve`. Each merge carries its holes' mass, so the
    endpoints stay within a few ulps of the exact gap near saturation too.
    Linear in the number of blocks, since only :func:`sweep_states` builds the
    intermediate states. No certification is run here, keeping the route
    independent.
    """
    block, _, _ = _sweep(mu, open_set)
    c, d = block.c, block.d
    beta = mu.mass * (0.5 * (c + d)) + _holes(mu.breaks, mu.values, c, d)[2]
    return MaximalSolution((block,), ((mu.mass, beta),), certificate=None)


def sweep_states(mu: StepMeasure, open_set: OpenSet1D) -> list[StepMeasure]:
    """Intermediate measures produced by the sweep, excluding mu and the target.

    The only builder of these states, quadratic in the number of blocks.
    """
    _, blocks, merges = _sweep(mu, open_set)
    c = open_set.components[0][0]
    return [
        _blocks_measure([(c, sat_end, *carry), *[(lo, hi, hi, hi) for lo, hi in blocks[i + 1 :]]])
        for sat_end, carry, i in merges
    ]


# -- stationary point of the potential difference ---------------------------------


def critical_point(k: float, beta: float) -> float:
    """Unique stationary point of U_target - U_source on (-1, 1).

    The source is the single unit block with the given mass and first moment,
    the target its two-block solution on (-1, 1). Two walks decide it. The
    source must precede the target: U_target - U_source <= 0 inside and
    vanishing beyond, to the policy's bound. The reverse walk's first
    maximum, the minimum of that difference, sits at the vertex where F, the
    cumulative distribution of target - source, crosses zero. Where that
    minimum is rounding dust the target is the source and the point is not
    unique. The repro manifest compares it with the appendix's closed form.
    """
    if not 0.0 < k < 2.0:
        raise InfeasibilityError(f"mass must satisfy 0 < k < 2, got {k!r}")
    if not abs(beta) < k - 0.5 * k * k:
        raise InfeasibilityError(f"first moment {beta!r} outside the window -+{k - 0.5 * k * k!r}")
    a, b = beta / k - 0.5 * k, beta / k + 0.5 * k
    if not a < b:  # k/2 is below half an ulp of beta/k
        raise InfeasibilityError(f"mass {k!r}, first moment {beta!r}: the source rounds to a point")
    source = indicator(a, b)
    # holes of mass h = 2 - k about the midpoint 0, with h * offset = -beta
    target = _blocks_measure([(-1.0, *_gap(-1.0, 1.0, 2.0 - k, -beta / (2.0 - k)), 1.0)])
    cert = dominates(source, target)
    if not cert.ordered:
        raise VerificationError(f"the source does not precede its target: {cert.to_json()}")
    reverse = dominates(target, source)
    if reverse.worst_gap <= _bounds(0.0, 0.0, -1.0, 1.0)[1]:
        raise InfeasibilityError(
            f"first moment {beta!r} at the window's edge: the target is the source up to rounding"
        )
    return reverse.worst_point


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
    #: The grid widened by the tolerance policy's rounding floor: where points may sit.
    _domain: tuple[float, float] = field(init=False, repr=False, compare=False)

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
        slack = _bounds(0.0, 0.0, self.xs[0], self.xs[-1])[0]
        object.__setattr__(self, "_domain", (self.xs[0] - slack, self.xs[-1] + slack))

    @classmethod
    def from_function(
        cls, fn: Callable[[float], float], lo: float, hi: float, n: int = 1001
    ) -> "ConcaveGrid":
        # n < 2 leaves fewer than two samples, which the constructor rejects
        xs = [lo + (hi - lo) * i / max(n - 1, 1) for i in range(n)]
        return cls(tuple(xs), tuple(fn(x) for x in xs))

    def __call__(self, x: float) -> float:
        lo, hi = self._domain
        if x < lo or x > hi:
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
    (lo_s, hi_s), (lo_g, hi_g) = nu.support(), cost._domain
    if lo_s < lo_g or hi_s > hi_g:
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
    """One candidate's verdict; ``certificate`` is None where check_admissible refused it."""

    index: int
    admissible: bool
    certificate: OrderCertificate | None
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
    """Certificate that nu is a reachable target for mu inside the open set.

    A density of nu above 1 raises AdmissibilityError before either support is
    read; mass outside the set raises SupportError, mu's where both leak.
    """
    _admit(nu, DEFAULT_TOL)
    return order_leq_sh_O(mu, nu, open_set)


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
        try:
            cert = check_admissible(cand, mu, open_set)
        except (AdmissibilityError, SupportError):
            cert = None
        ordered = cert is not None and cert.ordered
        objs = tuple(primal_objective(cand, cost) if ordered else math.nan for cost in costs)
        rows.append(CandidateResult(i, ordered, cert, objs))

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
        is_max = measures_allclose(candidates[best_idx], star)
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

