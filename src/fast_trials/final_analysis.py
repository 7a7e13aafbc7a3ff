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
proportion and they are fitted in closed form. Those are
every reduced model of the one-arm branch (global, beta1, beta2), H01-H04
and H07 of the both-arms branch (A1 + A2 dummies are saturated on the three
A-arm groups), and both models of the terminated branch. A saturated
model has an MLE exactly when every group is strictly between 0 and all
events; elsewhere its closed form is nan. The unsaturated ones are the
main-effects models: the one-arm and both-arms full models, H05 and H06.
Each is one intercept per stratum of domain-A arms and a common B1 log
odds ratio, so its fit takes the model's stratum map, and the fit
(``stats._profile_fit``) decides by rule whether the MLE exists and finds
it by profile Newton, on rows at 0 or at all events too. Both fits, and
the rule that tells a model's kind from its rows (``stats._fit_plan``),
live in ``stats``, which ``fit_logistic`` runs too. A model without an
MLE has a nan log-likelihood, which ``lr_test`` rejects: the replicate is
flagged with every node p-value 1.0, as on any other failed LR test.

The likelihood of every model depends on the data only through the events
and trials of each (domain-A arm, domain-B arm) cell. So generation counts
each enrollment block, as it draws it, into a 4 x 2 x 2 cell table:
``cells[arm_a + 1, arm_b]`` holds the cell's (non-events, events), and a
replicate adds its blocks' tables. A pattern table holds only the
covariate patterns a subject can have: the first 2, 4 or 6 binary codes
of the full model's indicators, as the both-arms codes 6 and 7 would be
A1 and A2 at once. ``build_final_model`` maps the cells to them with one
bincount, giving a fixed-shape (2, 2), (2, 4) or (2, 6) pattern table:
the events and the trials of every pattern in the order of its binary
code, 0 where no subject has it. The counts are integer sums, so the
table equals grouping the subjects themselves bit for bit.

A replicate computes only what the closed test reads: log-likelihoods.
Each branch's constants are one record (``_Branch``), built at import:
its patterns and cell -> pattern slots, its full model's column count,
its nodes, and each model once, in one ``models`` entry. A saturated
model (as many distinct rows as columns) is its index among the record's
groups of rows; every other model is the stratum map (``stats.Strata``)
that its fit takes, the map's inverse included, so no fit solves for it
again. A pattern without subjects needs nothing of its own: a saturated
group or a stratum left empty has no MLE, so the replicate is flagged, as
when no subject is in B1. After the draws a replicate decides on Python
floats: the pattern table is read once (``tolist``) and checked once, its
shape against the record and its counts against the full model, and its
two float lists go to every main-effects fit as they are. One
``stats._saturated_pass`` over the record's groups gives every saturated
model's closed form. The record also holds what a replicate walks: one
(label, df, ``models`` entry) test per node, supersets first, each node's
model fitted just before its ``lr_test``, so a flagged replicate stops at
its first failed test; and a label -> arm map of the elementary nodes,
which credits the arms of the rejected ones. A branch's outcome is one
NamedTuple, a ``GatekeepingOutcome``.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .design import ABSENT, ARM_A_CODE
from .stats import FittingError, InputError, Strata, _check_table, _fit_plan, _saturated_pass, check_design
from .stats import fit_logistic_counts, lr_test

__all__ = [
    "FinalBranch",
    "GatekeepingOutcome",
    "HIERARCHY",
    "ANCESTORS",
    "build_final_model",
    "closed_test",
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
# Each covariate's indicator, from subjects' domain-A and domain-B arm codes.
_INDICATOR = {
    "fluid_pooled": lambda arm_a, arm_b: (arm_a == ARM_A_CODE["A1"]) | (arm_a == ARM_A_CODE["A2"]),
    "a1": lambda arm_a, arm_b: arm_a == ARM_A_CODE["A1"],
    "a2": lambda arm_a, arm_b: arm_a == ARM_A_CODE["A2"],
    "b1": lambda arm_a, arm_b: arm_b == 1,
}

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
    df: int  # columns the null hypothesis drops
    ancestors: frozenset  # labels of the nodes for strict supersets
    arm: Optional[str]  # credited on rejection; None for an intersection


class _Branch(NamedTuple):
    """The constants of one branch's final analysis (``_constants``)."""

    patterns: int  # the patterns a subject can have: the first 2, 4 or 6 binary codes
    slots: np.ndarray  # cell-table entry (arm_a + 1, arm_b, y21), flattened -> its pattern-table slot
    columns: int  # the full model's design columns
    nodes: tuple  # every node, supersets first
    models: tuple  # the full model's, then every node's: its index in ``groups`` if saturated, else its ``Strata``
    groups: tuple  # per saturated model, each group's rows, for ``_saturated_pass``
    tests: tuple  # per node, supersets first: (label, df, its ``models`` entry)
    arms: dict  # label of each elementary node -> the arm credited on its rejection


def _constants(branch: FinalBranch) -> _Branch:
    """The record of ``branch``. Each cell-table entry's slot in the
    flattened (2, patterns) pattern table is its subjects' binary code,
    first indicator most significant, in row 0 for events and in row 1 for
    non-events; 2 * patterns for the subjects the model leaves out: those
    not assigned in domain A, unless domain A is terminated. The full
    model and every node's reduced model are sliced from the patterns as
    design rows, checked once and planned by ``stats._fit_plan``: a
    saturated model's groups of rows are kept for the closed form, and
    every other model gets its stratum map."""
    covariates, nulls = _COVARIATES[branch], HIERARCHY[branch]
    arm_a, arm_b, y21 = np.meshgrid(np.arange(ABSENT, len(ARM_A_CODE)), np.arange(2), np.arange(2), indexing="ij")
    codes = np.zeros(arm_a.shape, dtype=np.intp)
    for name in covariates:
        codes = codes * 2 + _INDICATOR[name](arm_a, arm_b)
    kept = (arm_a != ABSENT) | (branch is FinalBranch.DOMAIN_A_TERMINATED)
    patterns = int(codes[kept].max()) + 1
    slots = np.where(kept, codes + (1 - y21) * patterns, 2 * patterns).ravel()
    k = len(covariates)
    # each pattern as a design row, intercept first, in the order of the codes
    rows = np.array([[1.0] + [float((c >> (k - 1 - j)) & 1) for j in range(k)] for c in range(patterns)])
    ordered = sorted(nulls.items(), key=lambda item: -len(item[1]))
    models, groups = [], []
    for nulled in [()] + [n for _, n in ordered]:
        columns = [0] + [j + 1 for j, name in enumerate(covariates) if name not in nulled]
        plan = _fit_plan(check_design(rows[:, columns]))
        if isinstance(plan, Strata):  # one intercept per stratum of the columns but b1, a common B1 log odds ratio
            models.append(plan)
        else:
            models.append(len(groups))
            groups.append(plan)
    nodes = tuple(
        _Node(
            label,
            len(nulled),
            frozenset(other for other, s in nulls.items() if set(s) > set(nulled)),
            _ARM_OF[nulled[0]] if len(nulled) == 1 else None,
        )
        for label, nulled in ordered
    )
    tests = tuple((node.label, node.df, model) for node, model in zip(nodes, models[1:]))
    arms = {node.label: node.arm for node in nodes if node.arm}
    return _Branch(patterns, slots, k + 1, nodes, tuple(models), tuple(groups), tests, arms)


_BRANCHES = {branch: _constants(branch) for branch in FinalBranch}
# branch -> node label -> the labels that must be rejected before it may be.
ANCESTORS = {branch: {n.label: n.ancestors for n in record.nodes} for branch, record in _BRANCHES.items()}


class GatekeepingOutcome(NamedTuple):
    node_p_values: dict
    rejected: frozenset
    successful_arms: frozenset
    fit_failed: bool = False


def build_final_model(cells: np.ndarray, branch: FinalBranch) -> np.ndarray:
    """The branch's pattern table from a cell table (``generate_block``
    returns one per block): row 0 holds the events and row 1 the trials of
    each covariate pattern a subject can have under its full model, 2, 4
    or 6 of them, in the order of their binary codes (of k covariates,
    covariate j is bit k - 1 - j), 0 for a pattern no subject has. In the
    one-arm model the pooled indicator is I(arm_a != A0) over every
    domain-A-assigned subject, whichever arm was dropped."""
    record = _BRANCHES[FinalBranch(branch)]
    patterns, slots = record.patterns, record.slots
    counts = np.bincount(slots, weights=cells.ravel(), minlength=2 * patterns + 1)
    table = counts[: 2 * patterns].reshape(2, patterns)
    table[1] += table[0]  # trials = non-events + events
    return table


def _node_tests(table: np.ndarray, branch: FinalBranch) -> tuple[dict, bool]:
    """LR p-value per node label, and whether the replicate is flagged:
    where a model has no MLE (a nan log-likelihood, which ``lr_test``
    rejects), as when a pattern that a saturated model's group or a
    stratum needs has no subjects, and on any other failed LR test, every
    p-value is 1.0. The pattern table is read once and checked once: its
    shape against the branch's patterns, its counts against the full
    model's column count; one pass gives every saturated model's
    closed-form log-likelihood. Every other model's is its profile fit's
    (``fit_logistic_counts``) on its stratum map, fitted only when its
    node is tested, so a flagged replicate stops at its first failed LR
    test."""
    record = _BRANCHES[branch]
    if table.shape != (2, record.patterns):
        raise InputError(f"{branch.value} needs a (2, {record.patterns}) pattern table, got shape {table.shape}")
    events, trials = table.tolist()
    _check_table(events, trials, record.columns)
    closed = _saturated_pass(record.groups, events, trials)
    full = record.models[0]
    full = closed[full] if full.__class__ is int else fit_logistic_counts(full, events, trials).log_likelihood
    p_values = {}
    try:
        for label, df, model in record.tests:
            reduced = (
                closed[model] if model.__class__ is int else fit_logistic_counts(model, events, trials).log_likelihood
            )
            p_values[label] = lr_test(full, reduced, df).p_value
    except FittingError:
        return {label: 1.0 for label, _, _ in record.tests}, True
    return p_values, False


def closed_test(branch: FinalBranch, p_values: dict, alpha: float) -> frozenset:
    """Rejected nodes of ``branch``: a node is rejected iff its p-value is
    below alpha and every node for a strict superset of its null set is
    rejected. Nodes are visited supersets first."""
    rejected = set()
    for label, _, ancestors, _ in _BRANCHES[branch].nodes:
        if ancestors <= rejected and p_values[label] < alpha:
            rejected.add(label)
    return frozenset(rejected)


def gate_three_parameter(p_values: dict, alpha: float) -> frozenset:
    """Closed testing on the both-arms branch's H01..H07 nodes."""
    return closed_test(FinalBranch.BOTH_ARMS_RETAINED, p_values, alpha)


def _gatekeep(table: np.ndarray, alpha_final: float, branch: FinalBranch) -> GatekeepingOutcome:
    p_values, failed = _node_tests(table, branch)
    rejected = frozenset() if failed else closed_test(branch, p_values, alpha_final)
    arms = _BRANCHES[branch].arms
    successful = frozenset(arms[label] for label in rejected if label in arms)
    return GatekeepingOutcome(p_values, rejected, successful, failed)


def gatekeep_one_retained(table: np.ndarray, alpha_final: float) -> GatekeepingOutcome:
    """Two-parameter gatekept analysis of the pooled-fluid model."""
    return _gatekeep(table, alpha_final, FinalBranch.ONE_ARM_RETAINED)


def gatekeep_both_retained(table: np.ndarray, alpha_final: float) -> GatekeepingOutcome:
    """Three-parameter gatekept analysis when both fluid arms reached the
    final stage."""
    return _gatekeep(table, alpha_final, FinalBranch.BOTH_ARMS_RETAINED)


def analyze_terminated(table: np.ndarray, alpha_final: float) -> GatekeepingOutcome:
    """Single-parameter B-domain test; no multiplicity adjustment needed."""
    return _gatekeep(table, alpha_final, FinalBranch.DOMAIN_A_TERMINATED)
