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
A-arm groups), and both models of the terminated branch. Only the
main-effects models iterate by IRLS: the one-arm and both-arms full models,
H05 and H06. The closed form is the maximum IRLS converges to, so the
p-values agree to rounding and the decisions are the same. A table with a
group at 0 or at all events has no interior maximum; every such fit, as
every unsaturated one, goes through ``fit_logistic_counts``, whose
divergence flags the replicate as before.

The likelihood of every model depends on the data only through the events
and trials of each (domain-A arm, domain-B arm) cell. So generation counts
each enrollment block, as it draws it, into a 4 x 2 x 2 cell table:
``cells[arm_a + 1, arm_b]`` holds the cell's (non-events, events), and a
replicate adds its blocks' tables. A branch
whose full model has k covariates has 2^k covariate patterns, and
``build_final_model`` maps the cells to them with one bincount, giving a
fixed-shape (2, 2^k) pattern table: the events and the trials of every
pattern in the order of its binary code, 0 where no subject has it. The
counts are integer sums, so the table equals grouping the subjects
themselves bit for bit.

A replicate computes only what the closed test reads: log-likelihoods and
convergence flags. The cell -> pattern lookups and the 2^k pattern rows
are built at import, and per (branch, set of patterns with subjects) a
memoised node plan holds every model's checked ``Design`` and the row
groupings of the saturated ones, stacked. The table is checked once
against the full model; the fits see the plan's designs on the patterns
that have subjects, which ``fit_logistic_counts`` trusts. One vectorised
pass (``_saturated_pass``) gives every saturated model's log-likelihood, with
the same per-group arithmetic and summation order as fitting each alone.
``lr_test`` takes the two log-likelihoods. Every p-value, and every output
bit, is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import NamedTuple, Optional

import numpy as np

from .design import ABSENT
from .stats import (
    FittingError,
    InputError,
    _check_table,
    check_design,
    fit_logistic_counts,
    lr_test,
)

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

# The indicator columns of each branch's full model, from the arm codes of
# the subjects the model includes.
_INDICATORS = {
    FinalBranch.ONE_ARM_RETAINED: lambda arm_a, arm_b: (arm_a > 0, arm_b == 1),
    FinalBranch.BOTH_ARMS_RETAINED: lambda arm_a, arm_b: (arm_a == 1, arm_a == 2, arm_b == 1),
    FinalBranch.DOMAIN_A_TERMINATED: lambda arm_a, arm_b: (arm_b == 1,),
}


def _table_slots(branch: FinalBranch) -> np.ndarray:
    """Cell-table entry (arm_a + 1, arm_b, y21), flattened -> its slot in
    the flattened (2, 2^k) pattern table: the binary code of its subjects'
    covariate pattern, first indicator most significant, in row 0 for
    events and in row 1 for non-events; 2^(k + 1) for the subjects the
    model leaves out: those not assigned in domain A, unless domain A is
    terminated."""
    arm_a, arm_b, y21 = np.meshgrid(np.arange(ABSENT, 3), np.arange(2), np.arange(2), indexing="ij")
    codes = np.zeros(arm_a.shape, dtype=np.intp)
    for column in _INDICATORS[branch](arm_a, arm_b):
        codes = codes * 2 + column
    k = len(_COVARIATES[branch])
    slots = codes + (1 - y21) * 2**k
    if branch is not FinalBranch.DOMAIN_A_TERMINATED:
        slots[arm_a == ABSENT] = 2 ** (k + 1)
    return slots.ravel()


_TABLE_SLOTS = {branch: _table_slots(branch) for branch in FinalBranch}

# k -> the 2^k covariate patterns as design rows (intercept first), in the
# order of their binary codes.
_PATTERN_ROWS = {
    k: np.array([[1.0] + [float((c >> (k - 1 - j)) & 1) for j in range(k)] for c in range(2**k)])
    for k in {len(c) for c in _COVARIATES.values()}
}


@dataclass(frozen=True)
class GatekeepingOutcome:
    node_p_values: dict
    rejected: frozenset
    successful_arms: frozenset
    fit_failed: bool = False


def build_final_model(cells: np.ndarray, branch: FinalBranch) -> np.ndarray:
    """The branch's pattern table from a cell table (``generate_block``
    returns one per block): row 0
    holds the events and row 1 the trials of each of the 2^k covariate
    patterns of its full model, in the order of their binary codes
    (``_PATTERN_ROWS[k]``), 0 for a pattern no subject has. In the one-arm
    model the pooled indicator is I(arm_a != A0) over every
    domain-A-assigned subject, whichever arm was dropped."""
    branch = FinalBranch(branch)
    n = 2 ** len(_COVARIATES[branch])
    counts = np.bincount(_TABLE_SLOTS[branch], weights=cells.ravel(), minlength=2 * n + 1)
    table = counts[: 2 * n].reshape(2, n)
    table[1] += table[0]  # trials = non-events + events
    return table


class _Stack(NamedTuple):
    """The row groupings of saturated models, stacked so that one pass over
    a table sums the groups of them all: stacked row j is table row
    ``rows[j]`` in stacked group ``groups[j]``, and stacked group g belongs
    to model ``owner[g]``."""

    rows: np.ndarray
    groups: np.ndarray
    owner: np.ndarray


def _stack(designs) -> _Stack:
    """Stack the row groupings of saturated designs, in their order; a
    saturated design has as many groups as columns."""
    rows, groups, owner = [], [], []
    for model, design in enumerate(designs):
        rows.append(np.arange(len(design.groups)))
        groups.append(design.groups + len(owner))
        owner += [model] * design.rows.shape[1]
    arrays = [np.concatenate(rows), np.concatenate(groups), np.array(owner, dtype=np.intp)]
    for a in arrays:
        a.setflags(write=False)
    return _Stack(*arrays)


def _saturated_pass(stack: _Stack, events: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """The maximised log-likelihood of every saturated model in ``stack``,
    in one pass over a checked table.

    A saturated model gives each group g its own free logit, so its MLE is
    the group's event proportion p_g = E_g / N_g and its log-likelihood is
    sum_g [E_g log p_g + (N_g - E_g) log(1 - p_g)]: the maximum IRLS
    converges to. The terms are added group by group in order, which is how
    ``ndarray.sum`` adds fewer than eight terms, so each value equals the
    model's closed form computed alone bit for bit. It is nan where a group
    of the model has no events, only events or no trials: that model has no
    interior maximum.
    """
    size = len(stack.owner)
    e = np.bincount(stack.groups, weights=events[stack.rows], minlength=size)
    n = np.bincount(stack.groups, weights=trials[stack.rows], minlength=size)
    with np.errstate(divide="ignore", invalid="ignore"):  # boundary groups give nan
        p = e / n
        return np.bincount(stack.owner, weights=e * np.log(p) + (n - e) * np.log1p(-p))


class _Plan(NamedTuple):
    designs: tuple  # each model's ``Design``: the full model, then every node's
    slots: tuple  # each model's index in ``stack``; None where it is not saturated
    stack: _Stack  # the row groupings of the saturated models


@cache  # keyed by a mask of 2^k patterns: at most 4 + 16 + 256 plans exist
def _node_plan(branch: FinalBranch, present: tuple) -> _Plan:
    """The full model and every node's reduced model of ``branch`` on the
    patterns ``present`` marks, each sliced into a checked ``Design``
    once, with the row groupings of the saturated ones stacked for one
    pass. The full model is checked first, so a bad design raises the error
    its fit would."""
    rows = _PATTERN_ROWS[len(_COVARIATES[branch])][np.array(present)]
    full_cols, nodes = _GATING[branch]
    models = (full_cols,) + tuple(node.reduced for node in nodes)
    designs = tuple(check_design(rows[:, list(cols)]) for cols in models)
    saturated = [m for m, design in enumerate(designs) if design.saturated]
    slots = tuple(saturated.index(m) if m in saturated else None for m in range(len(designs)))
    return _Plan(designs, slots, _stack([designs[m] for m in saturated]))


def _log_likelihood(plan: _Plan, model: int, closed: list, events, trials) -> tuple[float, bool]:
    """The maximised log-likelihood of the plan's model and whether its fit
    converged: the closed form where the model is saturated and has an
    interior maximum, else an IRLS fit, whose divergence flags the
    replicate."""
    slot = plan.slots[model]
    if slot is not None and not math.isnan(closed[slot]):
        return closed[slot], True
    fit = fit_logistic_counts(plan.designs[model], events, trials)
    return fit.log_likelihood, fit.converged


def _node_tests(table: np.ndarray, branch: FinalBranch) -> tuple[dict, bool]:
    """LR p-value per node label; flags failure on any non-convergent fit.
    The pattern table is checked once, against the full model's column
    count; the fits see the patterns that have subjects, and one pass gives
    every saturated model's closed-form log-likelihood."""
    full_cols, nodes = _GATING[branch]
    shape = (2, 2 ** (len(full_cols) - 1))
    if table.shape != shape:
        raise InputError(f"{branch.value} needs a {shape} pattern table, got shape {table.shape}")
    events, trials = table
    _check_table(events, trials, len(full_cols))
    present = trials > 0
    plan = _node_plan(branch, tuple(present.tolist()))
    events, trials = events[present], trials[present]
    closed = _saturated_pass(plan.stack, events, trials).tolist()
    try:
        full, converged = _log_likelihood(plan, 0, closed, events, trials)
        failed = not converged
        p_values = {}
        for model, node in enumerate(nodes, 1):
            reduced, converged = _log_likelihood(plan, model, closed, events, trials)
            failed |= not converged
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


def gate_three_parameter(p_values: dict, alpha: float) -> frozenset:
    """Closed testing on the both-arms branch's H01..H07 nodes."""
    return closed_test(FinalBranch.BOTH_ARMS_RETAINED, p_values, alpha)


def _gatekeep(table: np.ndarray, alpha_final: float, branch: FinalBranch) -> GatekeepingOutcome:
    p_values, failed = _node_tests(table, branch)
    nodes = _GATING[branch][1]
    rejected = frozenset() if failed else closed_test(branch, p_values, alpha_final)
    successful = frozenset(node.arm for node in nodes if node.arm and node.label in rejected)
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
