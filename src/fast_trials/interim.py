"""Phase-2 decision machinery: the arm-dropping analysis, the pooled
feasibility analysis, and the schedule ordering them by sample-size
triggers: a plain pair of ``(AnalysisKind, trigger)`` pairs in run order.

Arm dropping compares the two active domain-A arms head-to-head on each
biomarker with two-sided tests; a significant biomarker nominates the arm
whose sample mean sits further in that biomarker's benefit direction, the
retained set is the union of nominations, and no nominations fall back to
the pre-selected default arm. Feasibility is a one-sided pooled-vs-control
comparison on y11 using every subject ever randomized to a treatment arm,
including any already-dropped arm's subjects. Both analyses take the
subjects enrolled so far as columns of equal length: the domain-A arm codes
and the biomarkers they test. Each returns its decision as a NamedTuple,
a ``RetentionDecision`` or a ``FeasibilityDecision``, that holds its tests'
``TestResult``s.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .design import ARM_A_CODE, BenefitDirection
from .stats import Tail, TestResult, welch_t_test

__all__ = [
    "SchedulingError",
    "AnalysisKind",
    "RetentionDecision",
    "FeasibilityDecision",
    "resolve_retention",
    "arm_dropping_analysis",
    "feasibility_analysis",
    "build_schedule",
]


class SchedulingError(RuntimeError):
    """An interim analysis was triggered before enough subjects existed."""


class AnalysisKind(str, Enum):
    ARM_DROPPING = "arm_dropping"
    FEASIBILITY = "feasibility"


class RetentionDecision(NamedTuple):
    retained: frozenset
    test_y11: TestResult
    test_y12: TestResult
    nominated_by_y11: Optional[str]
    nominated_by_y12: Optional[str]
    used_default: bool


class FeasibilityDecision(NamedTuple):
    proceed: bool
    test: TestResult  # its means are the (pooled, control) y11 means


# A direction's member by its value; a member hashes and compares as its
# value, so either finds it, and the enum is called only to reject a bad one.
_DIRECTION = {d.value: d for d in BenefitDirection}


def _nominate(p_value, mean_a1, mean_a2, alpha, direction) -> Optional[str]:
    if not p_value < alpha:
        return None
    direction = _DIRECTION.get(direction) or BenefitDirection(direction)
    return "A1" if direction.favours(mean_a1, mean_a2) else "A2"


def resolve_retention(
    test_y11: TestResult,
    test_y12: TestResult,
    alpha: float,
    directions: tuple,
    default_arm: str,
) -> RetentionDecision:
    """Pure retention rule: nominations from the two A1-vs-A2 test results
    and the (A1, A2) sample means they carry, union-retained, default on no
    nomination."""
    nom11 = _nominate(test_y11.p_value, *test_y11.means, alpha, directions[0])
    nom12 = _nominate(test_y12.p_value, *test_y12.means, alpha, directions[1])
    retained = frozenset(a for a in (nom11, nom12) if a is not None)
    used_default = not retained
    if used_default:
        retained = frozenset([default_arm])
    return RetentionDecision(retained, test_y11, test_y12, nom11, nom12, used_default)


def _subject_columns(*columns) -> list:
    """The columns as arrays, checked 1-d and of equal length."""
    arrays = [np.asarray(c) for c in columns]
    if arrays[0].ndim != 1 or any(a.shape != arrays[0].shape for a in arrays):
        raise ValueError("subject columns must be 1-d and of equal length")
    return arrays


def arm_dropping_analysis(
    arm_a,
    y11,
    y12,
    alpha_drop: float,
    directions: tuple,
    default_arm: str,
) -> RetentionDecision:
    """Head-to-head comparison of the two treatment arms on both biomarkers."""
    arm_a, y11, y12 = _subject_columns(arm_a, y11, y12)
    in_a1 = arm_a == ARM_A_CODE["A1"]
    in_a2 = arm_a == ARM_A_CODE["A2"]
    if np.count_nonzero(in_a1) < 2 or np.count_nonzero(in_a2) < 2:
        raise SchedulingError(
            "arm-dropping trigger too early: fewer than 2 subjects in a treatment arm "
            f"(A1={np.count_nonzero(in_a1)}, A2={np.count_nonzero(in_a2)})"
        )
    test_y11 = welch_t_test(y11[in_a1], y11[in_a2], Tail.TWO_SIDED)
    test_y12 = welch_t_test(y12[in_a1], y12[in_a2], Tail.TWO_SIDED)
    return resolve_retention(test_y11, test_y12, alpha_drop, directions, default_arm)


def feasibility_analysis(arm_a, y11, alpha_feas: float, direction) -> FeasibilityDecision:
    """One-sided pooled-treatment vs control comparison on y11; failing to
    reject terminates the domain."""
    arm_a, y11 = _subject_columns(arm_a, y11)
    in_control = arm_a == ARM_A_CODE["A0"]
    in_pool = arm_a > ARM_A_CODE["A0"]  # A1 or A2: an ABSENT code lies below A0
    if np.count_nonzero(in_control) < 2 or np.count_nonzero(in_pool) < 2:
        raise SchedulingError(
            "feasibility trigger too early: fewer than 2 subjects in control or pooled group "
            f"(control={np.count_nonzero(in_control)}, pooled={np.count_nonzero(in_pool)})"
        )
    direction = _DIRECTION.get(direction) or BenefitDirection(direction)
    tail = Tail.UPPER if direction is BenefitDirection.INCREASE else Tail.LOWER
    test = welch_t_test(y11[in_pool], y11[in_control], tail)
    return FeasibilityDecision(proceed=test.p_value < alpha_feas, test=test)


def build_schedule(n_drop: int, n_feas: int) -> tuple:
    """The two ``(AnalysisKind, trigger)`` pairs in run order, ordered by
    trigger; a tie runs arm dropping first so the feasibility pooling sees
    the post-drop allocation."""
    if n_drop < 1 or n_feas < 1:
        raise ValueError(f"triggers must be >= 1, got n_drop={n_drop}, n_feas={n_feas}")
    drop = (AnalysisKind.ARM_DROPPING, int(n_drop))
    feas = (AnalysisKind.FEASIBILITY, int(n_feas))
    if n_drop <= n_feas:
        return drop, feas
    return feas, drop
