"""Stepwise response of maximal output share to an input share.

For a reference unit, the response function maps a proportional input
budget ``alpha`` to the largest proportional output level ``beta`` the
variable-returns technology supports at ``alpha`` times the reference
inputs. It is a nondecreasing right-continuous step function: unit j
becomes usable once ``alpha`` reaches its worst input ratio and then
contributes its worst output ratio.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from enum import Enum
from operator import itemgetter

from .errors import InefficientUnitError, OutOfDomainError
from .model import Dataset, Numeric, RatioTable, ratio_table


class StepDerivative(Enum):
    """One-sided slope of a step function at a point."""

    ZERO = "zero"
    INFINITE = "infinite"
    UNDEFINED = "undefined"


class ResponseFunction(namedtuple("ResponseFunction", "reference steps")):
    """Canonical step list: thresholds and values both strictly increasing.

    ``steps[k] = (threshold, value)`` means the function equals ``value``
    from that threshold up to the next one. The domain starts at the first
    threshold, ``alpha_min``; queries below it are undefined.
    """

    __slots__ = ()

    @property
    def alpha_min(self) -> Numeric:
        return self.steps[0][0]

    def evaluate(self, alpha: Numeric) -> Numeric:
        if alpha < self.alpha_min:
            raise OutOfDomainError(
                f"alpha={alpha!r} below domain start {self.alpha_min!r}"
            )
        return self.steps[bisect_right(self.steps, alpha, key=itemgetter(0)) - 1][1]

    def __call__(self, alpha: Numeric) -> Numeric:
        return self.evaluate(alpha)


def build_response(d: Dataset, o: int) -> ResponseFunction:
    """Response function of unit ``o``; defined for any unit."""
    return response_from_table(ratio_table(d, o))


def response_from_table(rt: RatioTable) -> ResponseFunction:
    """Response function of the table's reference, off any table that holds every
    efficient unit's row (docs/derivations.md, "Response steps off the pool table")."""
    best_at: dict[Numeric, Numeric] = {}
    for a, b in zip(rt.alpha, rt.beta):
        if a not in best_at or b > best_at[a]:
            best_at[a] = b
    steps: list[tuple[Numeric, Numeric]] = []
    for a in sorted(best_at):
        v = best_at[a]
        if not steps or v > steps[-1][1]:
            steps.append((a, v))
    return ResponseFunction(reference=rt.reference, steps=tuple(steps))


def one_sided_step_derivatives(
    r: ResponseFunction,
) -> tuple[StepDerivative, StepDerivative]:
    """Right and left slope of the response at the observed scale (alpha=1).

    Callers must pass the response of an efficient unit; the visible part
    of that precondition (value 1 at alpha=1) is enforced here. On a finite
    step list the right slope is always zero. The left slope is infinite
    when the function jumps at 1, zero when it is flat just below 1, and
    undefined when the domain starts at 1.
    """
    if r.evaluate(1) != 1:
        raise InefficientUnitError(
            f"unit {r.reference} expands outputs at its own scale; "
            "one-sided slopes are defined for efficient units"
        )
    right = StepDerivative.ZERO
    if not r.alpha_min < 1:
        return right, StepDerivative.UNDEFINED
    below = max(v for t, v in r.steps if t < 1)
    left = StepDerivative.INFINITE if below < 1 else StepDerivative.ZERO
    return right, left
