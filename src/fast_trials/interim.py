"""Phase-2 decision machinery: the arm-dropping analysis, the pooled
feasibility analysis, and the schedule ordering them by sample-size
triggers.

Arm dropping compares the two active domain-A arms head-to-head on each
biomarker with two-sided tests; a significant biomarker nominates the arm
whose sample mean sits further in that biomarker's benefit direction, the
retained set is the union of nominations, and no nominations fall back to
the pre-selected default arm. Feasibility is a one-sided pooled-vs-control
comparison on y11 using every subject ever randomized to a treatment arm,
including any already-dropped arm's subjects.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .design import ARM_A_CODE, BenefitDirection
from .stats import Tail, TestResult, welch_t_test

__all__ = [
    "SchedulingError",
    "AnalysisKind",
    "RetentionDecision",
    "FeasibilityDecision",
    "AnalysisSchedule",
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


@dataclass(frozen=True)
class RetentionDecision:
    retained: frozenset
    test_y11: TestResult
    test_y12: TestResult
    nominated_by_y11: Optional[str]
    nominated_by_y12: Optional[str]
    used_default: bool


@dataclass(frozen=True)
class FeasibilityDecision:
    proceed: bool
    test: TestResult  # its means are the (pooled, control) y11 means


@dataclass(frozen=True)
class AnalysisSchedule:
    first: tuple[AnalysisKind, int]
    second: tuple[AnalysisKind, int]


def _nominate(p_value, mean_a1, mean_a2, alpha, direction) -> Optional[str]:
    if not p_value < alpha:
        return None
    return "A1" if BenefitDirection(direction).favours(mean_a1, mean_a2) else "A2"


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


def arm_dropping_analysis(
    subjects,
    alpha_drop: float,
    directions: tuple = ("increase", "decrease"),
    default_arm: str = "A2",
) -> RetentionDecision:
    """Head-to-head comparison of the two treatment arms on both biomarkers."""
    in_a1 = subjects.arm_a == ARM_A_CODE["A1"]
    in_a2 = subjects.arm_a == ARM_A_CODE["A2"]
    if np.count_nonzero(in_a1) < 2 or np.count_nonzero(in_a2) < 2:
        raise SchedulingError(
            "arm-dropping trigger too early: fewer than 2 subjects in a treatment arm "
            f"(A1={np.count_nonzero(in_a1)}, A2={np.count_nonzero(in_a2)})"
        )
    y11_a1, y11_a2 = subjects.y11[in_a1], subjects.y11[in_a2]
    y12_a1, y12_a2 = subjects.y12[in_a1], subjects.y12[in_a2]
    test_y11 = welch_t_test(y11_a1, y11_a2, Tail.TWO_SIDED)
    test_y12 = welch_t_test(y12_a1, y12_a2, Tail.TWO_SIDED)
    return resolve_retention(test_y11, test_y12, alpha_drop, directions, default_arm)


def feasibility_analysis(
    subjects, alpha_feas: float, direction="increase"
) -> FeasibilityDecision:
    """One-sided pooled-treatment vs control comparison on y11; failing to
    reject terminates the domain."""
    in_control = subjects.arm_a == ARM_A_CODE["A0"]
    in_pool = (subjects.arm_a == ARM_A_CODE["A1"]) | (subjects.arm_a == ARM_A_CODE["A2"])
    if np.count_nonzero(in_control) < 2 or np.count_nonzero(in_pool) < 2:
        raise SchedulingError(
            "feasibility trigger too early: fewer than 2 subjects in control or pooled group "
            f"(control={np.count_nonzero(in_control)}, pooled={np.count_nonzero(in_pool)})"
        )
    control = subjects.y11[in_control]
    pooled = subjects.y11[in_pool]
    tail = Tail.UPPER if BenefitDirection(direction) is BenefitDirection.INCREASE else Tail.LOWER
    test = welch_t_test(pooled, control, tail)
    return FeasibilityDecision(proceed=test.p_value < alpha_feas, test=test)


def build_schedule(n_drop: int, n_feas: int) -> AnalysisSchedule:
    """Order the two interim analyses by trigger; a tie runs arm dropping
    first so the feasibility pooling sees the post-drop allocation."""
    if n_drop < 1 or n_feas < 1:
        raise ValueError(f"triggers must be >= 1, got n_drop={n_drop}, n_feas={n_feas}")
    drop = (AnalysisKind.ARM_DROPPING, int(n_drop))
    feas = (AnalysisKind.FEASIBILITY, int(n_feas))
    if n_drop <= n_feas:
        return AnalysisSchedule(first=drop, second=feas)
    return AnalysisSchedule(first=feas, second=drop)
