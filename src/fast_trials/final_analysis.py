"""Phase-3 analysis along the three possible trial paths.

Whichever interim path a replicate took, the final model is a logistic
regression of the binary outcome on treatment indicators:

* one arm retained  -- intercept, pooled-fluid indicator (every subject
  ever randomized to A1 or A2, dropped arm included), B1 indicator;
* both arms retained -- intercept, A1, A2, B1 indicators;
* domain A terminated -- intercept and B1 only, over all subjects.

Each branch tests a family of nodes, one per null hypothesis that sets a
set S of its coefficients to zero (``HIERARCHY``). Every node is tested by
likelihood-ratio chi-square at the full final alpha, and one rule gates
them all, closed testing (Marcus, Peritz & Gabriel, 1976): reject the node
for S iff its p-value is below alpha and every node for a strict superset
of S is rejected. That closure controls the family-wise error rate in the
strong sense.

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

What depends only on the design layout is computed once, not per
replicate: the 2^k covariate-pattern rows per k at import, and per
(branch, grouped design) a memoised node plan holding every model's sliced
design and its checked layout (intercept, full rank, row grouping). The
counts are checked once per table against the full model. The fits run on
the same arrays with the same arithmetic as before, so every p-value, and
every output bit, is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .design import ABSENT
from .stats import (
    FittingError,
    InputError,
    LogisticFit,
    _check_table,
    _checked_layout,
    _Layout,
    _saturated_fit,
    fit_logistic_counts,
    lr_test,
)

__all__ = [
    "FinalBranch",
    "FinalModelSpec",
    "FinalModelData",
    "GatekeepingOutcome",
    "HIERARCHY",
    "ANCESTORS",
    "build_final_model",
    "closed_test",
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


# Covariates of each branch's full model, intercept excluded: covariate j
# is design column j + 1.
_COVARIATES = {
    FinalBranch.ONE_ARM_RETAINED: ("fluid_pooled", "b1"),
    FinalBranch.BOTH_ARMS_RETAINED: ("a1", "a2", "b1"),
    FinalBranch.DOMAIN_A_TERMINATED: ("b1",),
}

# The arm declared successful when a covariate's elementary node is rejected.
_ARM_OF = {"fluid_pooled": "A_pooled", "a1": "A1", "a2": "A2", "b1": "B1"}

# The gating hierarchy of every branch, written once: trace label -> the
# covariates whose coefficients the node's null hypothesis sets to zero.
HIERARCHY = {
    FinalBranch.ONE_ARM_RETAINED: {
        "global": ("fluid_pooled", "b1"),
        "beta1": ("fluid_pooled",),
        "beta2": ("b1",),
    },
    FinalBranch.BOTH_ARMS_RETAINED: {
        "H01": ("a1", "a2", "b1"),
        "H02": ("a1", "a2"),
        "H03": ("a1", "b1"),
        "H04": ("a2", "b1"),
        "H05": ("a1",),
        "H06": ("a2",),
        "H07": ("b1",),
    },
    FinalBranch.DOMAIN_A_TERMINATED: {"beta1": ("b1",)},
}


class _Node(NamedTuple):
    label: str
    reduced: tuple  # design columns the reduced model keeps
    df: int  # columns the null hypothesis drops
    ancestors: frozenset  # labels of the nodes for strict supersets
    arm: Optional[str]  # credited on rejection; None for an intersection


def _derive(covariates: tuple, nulls: dict) -> tuple:
    """Full-model columns and the nodes, supersets first, of one branch."""
    full = tuple(range(len(covariates) + 1))
    return full, tuple(
        _Node(
            label,
            tuple(c for c in full if c == 0 or covariates[c - 1] not in nulled),
            len(nulled),
            frozenset(other for other, s in nulls.items() if set(s) > set(nulled)),
            _ARM_OF[nulled[0]] if len(nulled) == 1 else None,
        )
        for label, nulled in sorted(nulls.items(), key=lambda item: -len(item[1]))
    )


_GATING = {branch: _derive(_COVARIATES[branch], nulls) for branch, nulls in HIERARCHY.items()}
# branch -> node label -> the labels that must be rejected before it may be.
ANCESTORS = {branch: {n.label: n.ancestors for n in nodes} for branch, (_, nodes) in _GATING.items()}

# k -> the 2^k covariate patterns as design rows (intercept first), in the
# order of their binary codes.
_PATTERN_ROWS = {
    k: np.array([[1.0] + [float((c >> (k - 1 - j)) & 1) for j in range(k)] for c in range(2**k)])
    for k in {len(c) for c in _COVARIATES.values()}
}
_PLAN_CACHE_SIZE = 256  # distinct (branch, present patterns); a run meets a few dozen at most


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
    """Assemble the branch-appropriate indicator design from ``SubjectData``.

    ``retained_arm`` documents the one-arm path; the pooled indicator is
    I(arm_a != A0) over every domain-A-assigned subject regardless of which
    arm was dropped.
    """
    branch = FinalBranch(branch)
    if branch is FinalBranch.ONE_ARM_RETAINED and retained_arm not in ("A1", "A2"):
        raise ValueError("one_arm_retained path requires the retained arm")

    if branch is FinalBranch.DOMAIN_A_TERMINATED:
        mask = np.ones(len(subjects), dtype=bool)
        subject_filter = "all_subjects"
    else:
        mask = subjects.arm_a != ABSENT
        subject_filter = "domain_a_assigned"
    arm_a = subjects.arm_a[mask]
    arm_b = subjects.arm_b[mask]
    y21 = subjects.y21[mask]

    if branch is FinalBranch.ONE_ARM_RETAINED:
        indicators = np.column_stack([(arm_a > 0), arm_b == 1]).astype(np.int8)
    elif branch is FinalBranch.BOTH_ARMS_RETAINED:
        indicators = np.column_stack([arm_a == 1, arm_a == 2, arm_b == 1]).astype(np.int8)
    else:
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
    rows = _PATTERN_ROWS[k][present]

    spec = FinalModelSpec(branch=branch, covariates=_COVARIATES[branch], subject_filter=subject_filter)
    return FinalModelData(spec, rows, events[present], trials[present], indicators)


class _Model(NamedTuple):
    x: np.ndarray  # the design columns the model keeps
    layout: _Layout


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _node_plan(branch: FinalBranch, shape: tuple, buffer: bytes) -> tuple:
    """The full model and every node's reduced model of ``branch`` on one
    grouped design, sliced and checked (intercept, full rank) once; the full
    model is checked first, so a bad design raises the error its fit would."""
    rows = np.frombuffer(buffer).reshape(shape)
    full_cols, nodes = _GATING[branch]
    plan = []
    for cols in (full_cols,) + tuple(node.reduced for node in nodes):
        x = rows[:, list(cols)]
        x.setflags(write=False)
        plan.append(_Model(x, _checked_layout(x)))
    return tuple(plan)


def _fit(model: _Model, events: np.ndarray, trials: np.ndarray) -> LogisticFit:
    fit = _saturated_fit(model.layout, events, trials)
    return fit if fit is not None else fit_logistic_counts(model.x, events, trials)


def _node_tests(data: FinalModelData, branch: FinalBranch) -> tuple[dict, bool]:
    """LR p-value per node label; flags failure on any non-convergent fit.
    The counts are checked once, against the full model's column count."""
    full_cols, nodes = _GATING[branch]
    events, trials = data.events, data.trials
    if events.shape != (len(data.rows),) or trials.shape != (len(data.rows),):
        raise InputError("events/trials must align with design rows")
    _check_table(events, trials, len(full_cols))
    full_model, *reduced_models = _node_plan(branch, data.rows.shape, data.rows.tobytes())
    try:
        full = _fit(full_model, events, trials)
        failed = not full.converged
        p_values = {}
        for node, model in zip(nodes, reduced_models):
            reduced = _fit(model, events, trials)
            failed |= not reduced.converged
            p_values[node.label] = lr_test(full, reduced, node.df).p_value
    except FittingError:
        return {node.label: 1.0 for node in nodes}, True
    return p_values, failed


def closed_test(branch: FinalBranch, p_values: dict, alpha: float) -> frozenset:
    """Rejected nodes of ``branch``: a node is rejected iff its p-value is
    below alpha and every node for a strict superset of its null set is
    rejected. Nodes are visited supersets first."""
    rejected = set()
    for node in _GATING[branch][1]:
        if node.ancestors <= rejected and p_values[node.label] < alpha:
            rejected.add(node.label)
    return frozenset(rejected)


def gate_two_parameter(p_values: dict, alpha: float) -> frozenset:
    """Closed testing on the one-arm branch's global/beta1/beta2 nodes."""
    return closed_test(FinalBranch.ONE_ARM_RETAINED, p_values, alpha)


def gate_three_parameter(p_values: dict, alpha: float) -> frozenset:
    """Closed testing on the both-arms branch's H01..H07 nodes."""
    return closed_test(FinalBranch.BOTH_ARMS_RETAINED, p_values, alpha)


def _gatekeep(data: FinalModelData, alpha_final: float, branch: FinalBranch) -> GatekeepingOutcome:
    if data.spec.branch is not branch:
        raise ValueError(f"expected {branch.value} data, got {data.spec.branch}")
    p_values, failed = _node_tests(data, branch)
    nodes = _GATING[branch][1]
    rejected = frozenset() if failed else closed_test(branch, p_values, alpha_final)
    successful = frozenset(node.arm for node in nodes if node.arm and node.label in rejected)
    return GatekeepingOutcome(p_values, rejected, successful, failed)


def gatekeep_one_retained(data: FinalModelData, alpha_final: float) -> GatekeepingOutcome:
    """Two-parameter gatekept analysis of the pooled-fluid model."""
    return _gatekeep(data, alpha_final, FinalBranch.ONE_ARM_RETAINED)


def gatekeep_both_retained(data: FinalModelData, alpha_final: float) -> GatekeepingOutcome:
    """Three-parameter gatekept analysis when both fluid arms reached the
    final stage."""
    return _gatekeep(data, alpha_final, FinalBranch.BOTH_ARMS_RETAINED)


def analyze_terminated(data: FinalModelData, alpha_final: float) -> GatekeepingOutcome:
    """Single-parameter B-domain test; no multiplicity adjustment needed."""
    return _gatekeep(data, alpha_final, FinalBranch.DOMAIN_A_TERMINATED)
