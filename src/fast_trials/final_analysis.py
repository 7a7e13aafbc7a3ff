"""Phase-3 analysis along the three possible trial paths.

Whichever interim path a replicate took, the final model is a logistic
regression of the binary outcome on treatment indicators:

* one arm retained  -- intercept, pooled-fluid indicator (every subject
  ever randomized to A1 or A2, dropped arm included), B1 indicator;
* both arms retained -- intercept, A1, A2, B1 indicators;
* domain A terminated -- intercept and B1 only, over all subjects.

Hypotheses are tested by likelihood-ratio chi-square at the full final
alpha, gated so an elementary hypothesis is assessed only after every
intersection hypothesis containing it has been rejected. That closure
controls the family-wise error rate in the strong sense.

Most of the models are saturated on their own grouping: they have as many
distinct covariate rows as parameters, so their MLE is the per-group event
proportion and ``fit_saturated_counts`` fits them in closed form. Those are
every reduced model of the one-arm branch (global, beta1, beta2), H01-H04
and H07 of the both-arms branch (A1 + A2 dummies are saturated on the three
A-arm groups), and both models of the terminated branch. Only the
main-effects models iterate by IRLS: the one-arm and both-arms full models,
H05 and H06. The closed form is the maximum IRLS converges to, so the
p-values agree to rounding and the decisions are the same. A table with a
group at 0 or at all events has no interior maximum; every such fit, as
every unsaturated one, goes through ``fit_logistic_counts``, whose
divergence flags the replicate as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .design import ABSENT, as_subject_data
from .stats import FittingError, LogisticFit, fit_logistic_counts, fit_saturated_counts, lr_test

__all__ = [
    "FinalBranch",
    "FinalModelSpec",
    "FinalModelData",
    "GatekeepingOutcome",
    "build_final_model",
    "gate_two_parameter",
    "gate_three_parameter",
    "gatekeep_one_retained",
    "gatekeep_both_retained",
    "analyze_terminated",
]


class FinalBranch(str, Enum):
    ONE_ARM_RETAINED = "one_arm_retained"
    BOTH_ARMS_RETAINED = "both_arms_retained"
    DOMAIN_A_TERMINATED = "domain_a_terminated"


@dataclass(frozen=True)
class FinalModelSpec:
    branch: FinalBranch
    covariates: tuple  # indicator names, intercept excluded
    subject_filter: str


class FinalModelData:
    """Model-ready data for one branch: the grouped covariate patterns with
    event/trial counts, plus the subject-level indicators for auditing."""

    def __init__(self, spec: FinalModelSpec, rows, events, trials, subject_indicators):
        self.spec = spec
        self.rows = np.asarray(rows, dtype=float)  # g x (1 + k) with intercept
        self.events = np.asarray(events, dtype=float)
        self.trials = np.asarray(trials, dtype=float)
        self.subject_indicators = np.asarray(subject_indicators, dtype=np.int8)

    @property
    def n_subjects(self) -> int:
        return int(self.trials.sum())


@dataclass(frozen=True)
class GatekeepingOutcome:
    node_p_values: dict
    rejected: frozenset
    successful_arms: frozenset
    fit_failed: bool = False


def build_final_model(subjects, branch: FinalBranch, retained_arm=None) -> FinalModelData:
    """Assemble the branch-appropriate indicator design.

    ``retained_arm`` documents the one-arm path; the pooled indicator is
    I(arm_a != A0) over every domain-A-assigned subject regardless of which
    arm was dropped.
    """
    data = as_subject_data(subjects)
    branch = FinalBranch(branch)
    if branch is FinalBranch.ONE_ARM_RETAINED and retained_arm not in ("A1", "A2"):
        raise ValueError("one_arm_retained path requires the retained arm")

    if branch is FinalBranch.DOMAIN_A_TERMINATED:
        mask = np.ones(len(data), dtype=bool)
        subject_filter = "all_subjects"
    else:
        mask = data.arm_a != ABSENT
        subject_filter = "domain_a_assigned"
    arm_a = data.arm_a[mask]
    arm_b = data.arm_b[mask]
    y21 = data.y21[mask]

    if branch is FinalBranch.ONE_ARM_RETAINED:
        covariates = ("fluid_pooled", "b1")
        indicators = np.column_stack([(arm_a > 0), arm_b == 1]).astype(np.int8)
    elif branch is FinalBranch.BOTH_ARMS_RETAINED:
        covariates = ("a1", "a2", "b1")
        indicators = np.column_stack([arm_a == 1, arm_a == 2, arm_b == 1]).astype(np.int8)
    else:
        covariates = ("b1",)
        indicators = (arm_b == 1).astype(np.int8).reshape(-1, 1)

    # Group by covariate pattern so repeated nested fits stay cheap.
    k = indicators.shape[1]
    codes = np.zeros(len(arm_b), dtype=np.int64)
    for j in range(k):
        codes = codes * 2 + indicators[:, j]
    n_patterns = 2**k
    trials = np.bincount(codes, minlength=n_patterns)
    events = np.bincount(codes, weights=y21.astype(float), minlength=n_patterns)
    present = trials > 0
    pattern_bits = np.array(
        [[(c >> (k - 1 - j)) & 1 for j in range(k)] for c in range(n_patterns)], dtype=float
    )
    rows = np.column_stack([np.ones(int(present.sum())), pattern_bits[present]])

    spec = FinalModelSpec(branch=branch, covariates=covariates, subject_filter=subject_filter)
    return FinalModelData(spec, rows, events[present], trials[present], indicators)


def _fit_columns(data: FinalModelData, cols: tuple) -> LogisticFit:
    x = data.rows[:, list(cols)]
    fit = fit_saturated_counts(x, data.events, data.trials)
    return fit if fit is not None else fit_logistic_counts(x, data.events, data.trials)


def _node_tests(data: FinalModelData, full_cols: tuple, reduced_map: dict) -> tuple[dict, bool]:
    """LR p-value per node id; flags failure on any non-convergent fit."""
    fits = {}
    failed = False
    try:
        full = _fit_columns(data, full_cols)
        fits["__full__"] = full
        failed |= not full.converged
        p_values = {}
        for node, reduced_cols in reduced_map.items():
            reduced = _fit_columns(data, reduced_cols)
            failed |= not reduced.converged
            p_values[node] = lr_test(full, reduced, len(full_cols) - len(reduced_cols)).p_value
    except FittingError:
        return {node: 1.0 for node in reduced_map}, True
    return p_values, failed


def gate_two_parameter(p_values: dict, alpha: float) -> frozenset:
    """Rejected nodes for the one-arm branch: the joint fluid/B1 test gates
    the two elementary comparisons, each at the full alpha."""
    rejected = set()
    if p_values["global"] < alpha:
        rejected.add("global")
        if p_values["beta1"] < alpha:
            rejected.add("beta1")
        if p_values["beta2"] < alpha:
            rejected.add("beta2")
    return frozenset(rejected)


def gate_three_parameter(p_values: dict, alpha: float) -> frozenset:
    """Rejected nodes for the both-arms branch.

    H01 (all three parameters null) gates the pairwise intersections
    H02..H04; an elementary hypothesis is assessed only once the three
    intersections containing its parameter are all rejected.
    """
    rejected = set()
    if p_values["H01"] < alpha:
        rejected.add("H01")
        for pair in ("H02", "H03", "H04"):
            if p_values[pair] < alpha:
                rejected.add(pair)
        if {"H02", "H03"} <= rejected and p_values["H05"] < alpha:
            rejected.add("H05")
        if {"H02", "H04"} <= rejected and p_values["H06"] < alpha:
            rejected.add("H06")
        if {"H03", "H04"} <= rejected and p_values["H07"] < alpha:
            rejected.add("H07")
    return frozenset(rejected)


def gatekeep_one_retained(data: FinalModelData, alpha_final: float) -> GatekeepingOutcome:
    """Two-parameter gatekept analysis of the pooled-fluid model."""
    if data.spec.branch is not FinalBranch.ONE_ARM_RETAINED:
        raise ValueError(f"expected one_arm_retained data, got {data.spec.branch}")
    p_values, failed = _node_tests(
        data,
        full_cols=(0, 1, 2),
        reduced_map={"global": (0,), "beta1": (0, 2), "beta2": (0, 1)},
    )
    rejected = frozenset() if failed else gate_two_parameter(p_values, alpha_final)
    successful = set()
    if "beta1" in rejected:
        successful.add("A_pooled")
    if "beta2" in rejected:
        successful.add("B1")
    return GatekeepingOutcome(p_values, rejected, frozenset(successful), failed)


def gatekeep_both_retained(data: FinalModelData, alpha_final: float) -> GatekeepingOutcome:
    """Three-parameter gatekept analysis when both fluid arms reached the
    final stage."""
    if data.spec.branch is not FinalBranch.BOTH_ARMS_RETAINED:
        raise ValueError(f"expected both_arms_retained data, got {data.spec.branch}")
    p_values, failed = _node_tests(
        data,
        full_cols=(0, 1, 2, 3),
        reduced_map={
            "H01": (0,),
            "H02": (0, 3),
            "H03": (0, 2),
            "H04": (0, 1),
            "H05": (0, 2, 3),
            "H06": (0, 1, 3),
            "H07": (0, 1, 2),
        },
    )
    rejected = frozenset() if failed else gate_three_parameter(p_values, alpha_final)
    arm_for = {"H05": "A1", "H06": "A2", "H07": "B1"}
    successful = frozenset(arm for node, arm in arm_for.items() if node in rejected)
    return GatekeepingOutcome(p_values, rejected, successful, failed)


def analyze_terminated(data: FinalModelData, alpha_final: float) -> GatekeepingOutcome:
    """Single-parameter B-domain test; no multiplicity adjustment needed."""
    if data.spec.branch is not FinalBranch.DOMAIN_A_TERMINATED:
        raise ValueError(f"expected domain_a_terminated data, got {data.spec.branch}")
    p_values, failed = _node_tests(data, full_cols=(0, 1), reduced_map={"beta1": (0,)})
    rejected = frozenset(["beta1"]) if not failed and p_values["beta1"] < alpha_final else frozenset()
    successful = frozenset(["B1"]) if "beta1" in rejected else frozenset()
    return GatekeepingOutcome(p_values, rejected, successful, failed)
