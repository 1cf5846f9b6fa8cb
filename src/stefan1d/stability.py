"""Stability behaviour of the two-block solver.

Three experiments: monotonicity of the input-to-target map fails, any
uniform L1 Lipschitz bound fails along an explicit one-parameter family of
block rearrangements, and targets are stable under convergence of each
component's hole mass and centred hole moment (weak convergence of the
inputs).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .errors import ParameterError, VerificationError
from .measure import (
    OpenSet1D,
    StepMeasure,
    _bounds,
    indicator,
    l1_distance,
    pointwise_leq,
    positive_part_l1,
)
from .solver import MaximalSolution, solve


@dataclass(frozen=True)
class LipschitzFamilyParams:
    """Parameters (x, y, r, c) of the blow-up family.

    mu1 = r*chi_(-x, x) and mu2 = chi_(-c, -c+r*y) + r*chi_(-x, x-y) on
    (-1, 1). The small detached block must sit strictly left of the wide one:
    -c + r*y < -x.
    """

    x: float
    y: float
    r: float
    c: float

    def __post_init__(self):
        if not 0.0 < self.x < 1.0:
            raise ParameterError(f"x must lie in (0, 1), got {self.x!r}")
        if not 0.0 < self.r < 1.0:
            raise ParameterError(f"r must lie in (0, 1), got {self.r!r}")
        if not 0.0 < self.c < 1.0:
            raise ParameterError(f"c must lie in (0, 1), got {self.c!r}")
        if not 0.0 < self.y < 2.0 * self.x:
            raise ParameterError(f"y must lie in (0, 2x), got {self.y!r}")
        if not -self.c + self.r * self.y < -self.x:
            raise ParameterError(
                f"need -c + r*y < -x, got {-self.c + self.r * self.y!r} "
                f">= {-self.x!r}"
            )
        # formalises "y small": the target displacement must stay below the
        # middle gap of the limiting target, else the one-sided L1 gap
        # saturates at 2 - 2rx and the closed forms no longer describe it
        displacement = lipschitz_closed_form_gap(self)
        if not displacement < 2.0 - 2.0 * self.r * self.x:
            raise ParameterError(
                f"y={self.y!r} too large: target displacement {displacement:.6g} "
                f"reaches the middle gap {2.0 - 2.0 * self.r * self.x:.6g}"
            )


def lipschitz_pair(params: LipschitzFamilyParams) -> tuple[StepMeasure, StepMeasure]:
    x, y, r, c = params.x, params.y, params.r, params.c
    mu1 = indicator(-x, x, r)
    mu2 = indicator(-c, -c + r * y) + indicator(-x, x - y, r)
    return mu1, mu2


def lipschitz_closed_form_gap(params: LipschitzFamilyParams) -> float:
    """Closed form of the target gap || (nu1 - nu2)_+ ||_L1."""
    x, y, r, c = params.x, params.y, params.r, params.c
    return (2 * r * x * y + 2 * c * r * y - r * y * y - r * r * y * y) / (
        2.0 * (2.0 - 2.0 * r * x)
    )


def lipschitz_closed_form_ratio(x: float, y: float, r: float, c: float) -> float:
    """Target gap over input gap, (2x + 2c - y - r*y) / (4 (1 - r*x)).

    Pure formula evaluation; it needs no feasible pair of measures and is
    defined whenever r*x < 1. Along c, x, r up to 1 and y down to 0 it grows
    without bound.
    """
    if not r * x < 1.0:
        raise ParameterError(f"need r*x < 1, got {r * x!r}")
    return (2.0 * x + 2.0 * c - y - r * y) / (4.0 * (1.0 - r * x))


@dataclass(frozen=True)
class StabilityReport:
    """L1 gaps of a pair of inputs and of their targets, plus order flags."""

    input_l1_gap: float
    output_l1_gap: float
    ratio: float
    monotone_in: bool
    monotone_out: bool
    closed_form_ratio: float
    nu1: StepMeasure
    nu2: StepMeasure

    def to_json(self) -> dict:
        return asdict(self)


def _compare(
    mu1: StepMeasure,
    mu2: StepMeasure,
    open_set: OpenSet1D,
    closed_form_ratio: float = math.nan,
) -> StabilityReport:
    sol1 = solve(mu1, open_set)
    sol2 = solve(mu2, open_set)
    in_gap = positive_part_l1(mu1, mu2)
    out_gap = positive_part_l1(sol1.measure, sol2.measure)
    return StabilityReport(
        input_l1_gap=in_gap,
        output_l1_gap=out_gap,
        ratio=out_gap / in_gap if in_gap > 0.0 else math.nan,
        monotone_in=pointwise_leq(mu1, mu2),
        monotone_out=pointwise_leq(sol1.measure, sol2.measure),
        closed_form_ratio=closed_form_ratio,
        nu1=sol1.measure,
        nu2=sol2.measure,
    )


def monotonicity_report(
    mu1: StepMeasure, mu2: StepMeasure, open_set: OpenSet1D
) -> StabilityReport:
    """Compare pointwise order of two inputs with that of their targets."""
    return _compare(mu1, mu2, open_set)


def lipschitz_ratio(params: LipschitzFamilyParams) -> StabilityReport:
    """Solve the blow-up pair and cross-check both gaps against closed forms.

    The input gap must equal r*y and the target gap the closed form, both to
    1e-9, otherwise VerificationError: the family is the analytic witness
    that no uniform Lipschitz constant exists, so transcription slips here
    must fail loudly.
    """
    report = _compare(
        *lipschitz_pair(params),
        OpenSet1D.interval(-1.0, 1.0),
        lipschitz_closed_form_ratio(params.x, params.y, params.r, params.c),
    )
    expected_in = params.r * params.y
    expected_out = lipschitz_closed_form_gap(params)
    if abs(report.input_l1_gap - expected_in) > 1e-9:
        raise VerificationError(
            f"input gap {report.input_l1_gap!r} does not match r*y = {expected_in!r}"
        )
    if abs(report.output_l1_gap - expected_out) > 1e-9:
        raise VerificationError(
            f"target gap {report.output_l1_gap!r} does not match the closed form "
            f"{expected_out!r}"
        )
    return report


@dataclass(frozen=True)
class WeakConvergenceRow:
    index: int
    mass_gap: float
    moment_gap: float
    l1_gap: float


@dataclass(frozen=True)
class WeakConvergenceTable:
    rows: tuple[WeakConvergenceRow, ...]
    constant: float
    bounded: bool

    def to_json(self) -> dict:
        return asdict(self)


def _gaps(sol: MaximalSolution) -> list[tuple[float, float]]:
    """Each component's gap (e, f) as hole mass h = f - e and offset o from the midpoint."""
    return [(b.f - b.e, 0.5 * (b.e + b.f) - 0.5 * (b.c + b.d)) for b in sol.blocks]


def weak_convergence_experiment(
    sequence: Sequence[StepMeasure],
    mu: StepMeasure,
    open_set: OpenSet1D,
) -> WeakConvergenceTable:
    """Target L1 gaps along a sequence of inputs converging to mu.

    Each component's target is the component minus a gap of hole mass h and
    offset o from the midpoint (:func:`_gaps`), so a row's L1 gap is the measure
    of the gaps' symmetric difference, sum_n min(h + h', max(2 |do|, |dh|)); a
    measured gap off it by more than the policy's floor raises VerificationError.
    ``mass_gap`` is sum_n |dh| and ``moment_gap`` sum_n |dB|, with B = h * o the
    holes' centred moment. With H the larger hole mass of a pair and o' the
    other side's offset, H * do = dB - o' * dh: ``bounded`` checks this modulus,
    and ``constant``, the largest max(1, 2 max(1, |o'|) / H), bounds every row's
    l1_gap by constant * (mass_gap + moment_gap), finitely at saturation.
    """
    limit = solve(mu, open_set)
    gaps0 = _gaps(limit)
    floors = [_bounds(0.0, 0.0, c, d)[0] for c, d in open_set.components]
    slack = sum(floors)
    rows, constant, bounded = [], 1.0, True
    for i, m in enumerate(sequence):
        sol = solve(m, open_set)
        mass_gap = moment_gap = identity = 0.0
        for (h, o), (h0, o0), floor in zip(_gaps(sol), gaps0, floors):
            dh, do, db = abs(h - h0), abs(o - o0), abs(h * o - h0 * o0)
            mass_gap += dh
            moment_gap += db
            identity += min(h + h0, max(2.0 * do, dh))
            if h or h0:  # both saturated: the same target, nothing to bound
                big, other = (h, abs(o0)) if h >= h0 else (h0, abs(o))
                constant = max(constant, 2.0 * max(1.0, other) / big)
                bounded = bounded and do <= (other * dh + db) / big + floor
        gap = l1_distance(sol.measure, limit.measure)
        if not abs(gap - identity) <= slack:
            raise VerificationError(
                f"member {i}: target L1 gap {gap!r} does not match the gap identity {identity!r}"
            )
        rows.append(WeakConvergenceRow(i, mass_gap, moment_gap, gap))
    return WeakConvergenceTable(tuple(rows), constant, bounded)
