"""Final-analysis branches: model construction, gating rule traces, the
single closed-testing rule against the per-branch rules it replaced, and
calibration of the terminated-branch test."""

import itertools

import numpy as np
import pytest

from fast_trials.design import ScenarioConfig, SubjectData
from fast_trials.final_analysis import (
    HIERARCHY,
    FinalBranch,
    GatekeepingOutcome,
    analyze_terminated,
    build_final_model,
    cell_table,
    closed_test,
    gate_three_parameter,
    gatekeep_both_retained,
    gatekeep_one_retained,
)
from fast_trials.generation import ActiveArms, generate_block
from fast_trials.harness import gating_violation
from fast_trials.oracles import oracle_gatekeeping_enumerate

_NODES = ("H01", "H02", "H03", "H04", "H05", "H06", "H07")


def _subjects(arm_a, arm_b, y21):
    n = len(arm_a)
    return SubjectData(arm_a, arm_b, np.zeros(n), np.zeros(n), y21)


def _model(subjects, branch):
    return build_final_model(cell_table(subjects), branch)


# -- model construction -------------------------------------------------------

@pytest.mark.parametrize(
    "column, value", [("y21", 2), ("arm_b", 2), ("arm_a", -2), ("arm_a", 258), ("y21", 0.5)]
)
def test_subject_codes_out_of_range_are_rejected(column, value):
    # A y21 of 2 would count as a non-event of the next cell, and an arm_b
    # of 2 as a subject of the next domain-A arm.
    columns = {"arm_a": [0, 1, 2, -1], "arm_b": [0, 1, 0, 1], "y21": [0, 1, 1, 0]}
    columns[column][1] = value
    with pytest.raises(ValueError, match=column):
        _subjects(**columns)


def test_pooled_indicator_is_or_of_arm_indicators():
    arm_a = np.array([0, 1, 2, 1, 0, 2, 2])
    arm_b = np.array([0, 1, 0, 1, 1, 0, 1])
    table = _model(_subjects(arm_a, arm_b, np.zeros(7, dtype=int)), FinalBranch.ONE_ARM_RETAINED)
    # (pooled, b1) patterns in code order 00, 01, 10, 11: A0 -> pooled 0,
    # A1 and A2 -> pooled 1.
    assert table.shape == (2, 4)
    np.testing.assert_array_equal(table[1], [1, 1, 2, 3])
    np.testing.assert_array_equal(table[0], 0)


def test_dropped_arm_subjects_stay_in_pool():
    # A1 dropped mid-stream: its early subjects still carry the pooled flag.
    arm_a = np.array([1] * 5 + [2] * 10 + [0] * 10)
    arm_b = np.zeros(25, dtype=int)
    table = _model(_subjects(arm_a, arm_b, np.zeros(25, dtype=int)), FinalBranch.ONE_ARM_RETAINED)
    np.testing.assert_array_equal(table[1], [10, 0, 15, 0])


def test_terminated_model_uses_all_subjects():
    arm_a = np.array([0, 1, 2, -1, -1, -1])
    arm_b = np.array([0, 1, 0, 1, 0, 1])
    table = _model(_subjects(arm_a, arm_b, np.zeros(6, dtype=int)), "domain_a_terminated")
    assert table.shape == (2, 2)
    np.testing.assert_array_equal(table[1], [3, 3])


def test_both_retained_reference_coding():
    arm_a = np.array([0, 1, 2, 0])
    arm_b = np.array([0, 0, 1, 1])
    table = _model(_subjects(arm_a, arm_b, np.zeros(4, dtype=int)), "both_arms_retained")
    # (a1, a2, b1) codes: A0/B0 000, A0/B1 001, A2/B1 011, A1/B0 100.
    np.testing.assert_array_equal(table[1], [1, 1, 0, 1, 1, 0, 0, 0])


def test_gatekeepers_reject_another_branchs_table():
    cells = cell_table(_subjects([0, 1, 2, 0, 1, 2], [0, 0, 0, 1, 1, 1], [0, 1, 0, 1, 1, 0]))
    analyses = {
        FinalBranch.ONE_ARM_RETAINED: gatekeep_one_retained,
        FinalBranch.BOTH_ARMS_RETAINED: gatekeep_both_retained,
        FinalBranch.DOMAIN_A_TERMINATED: analyze_terminated,
    }
    for branch, analysis in analyses.items():
        for other in FinalBranch:
            if other is not branch:
                with pytest.raises(ValueError, match="pattern table"):
                    analysis(build_final_model(cells, other), 0.05)
        with pytest.raises(ValueError, match="pattern table"):
            analysis(build_final_model(cells, branch)[:, :1], 0.05)


def test_grouped_counts_conserve_subjects_and_events():
    rng = np.random.default_rng(55)
    arm_a = rng.integers(0, 3, 500)
    arm_b = rng.integers(0, 2, 500)
    y21 = rng.integers(0, 2, 500)
    table = _model(_subjects(arm_a, arm_b, y21), "both_arms_retained")
    assert table[1].sum() == 500
    assert table[0].sum() == y21.sum()


def _reference_build(subjects, branch):
    """Events and trials per pattern code as built from the subjects before
    cell tables: mask, indicator columns, binary codes."""
    mask = subjects.arm_a != -1
    if branch is FinalBranch.DOMAIN_A_TERMINATED:
        mask = np.ones(len(subjects), dtype=bool)
    arm_a, arm_b, y21 = subjects.arm_a[mask], subjects.arm_b[mask], subjects.y21[mask]
    if branch is FinalBranch.ONE_ARM_RETAINED:
        indicators = np.column_stack([(arm_a > 0), arm_b == 1]).astype(np.int8)
    elif branch is FinalBranch.BOTH_ARMS_RETAINED:
        indicators = np.column_stack([arm_a == 1, arm_a == 2, arm_b == 1]).astype(np.int8)
    else:
        indicators = (arm_b == 1).astype(np.int8).reshape(-1, 1)
    k = indicators.shape[1]
    codes = np.zeros(len(arm_b), dtype=np.int64)
    for j in range(k):
        codes = codes * 2 + indicators[:, j]
    trials = np.bincount(codes, minlength=2**k)
    events = np.bincount(codes, weights=y21.astype(float), minlength=2**k)
    return np.array([events, trials.astype(float)])


def _split(subjects, bounds):
    return [
        _subjects(*(getattr(subjects, c)[lo:hi] for c in ("arm_a", "arm_b", "y21")))
        for lo, hi in zip((0, *bounds), (*bounds, len(subjects)))
    ]


@pytest.mark.parametrize("branch", list(FinalBranch))
def test_table_lookup_grouping_bit_identical_to_indicator_codes(branch):
    """Summed per-block cell tables give the pattern table of grouping the
    concatenated subjects, on random block splits with absent
    subjects, missing arms, no B1 and one-subject blocks."""
    rng = np.random.default_rng(606)
    seen = set()
    for _ in range(150):
        n = int(rng.integers(1, 400))
        arms = rng.choice([-1, 0, 1, 2], size=4, replace=False)[: int(rng.integers(1, 5))]
        arm_a = rng.choice(arms, size=n)
        if branch is not FinalBranch.DOMAIN_A_TERMINATED and not (arm_a != -1).any():
            arm_a[0] = 0
        arm_b = rng.integers(0, 2, size=n) * int(rng.random() < 0.9)  # sometimes no B1 at all
        data = _subjects(arm_a, arm_b, rng.integers(0, 2, size=n))
        bounds = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, int(rng.integers(0, 4))), replace=False))
        if rng.random() < 0.3 and n > 2:  # a one-subject block
            bounds = np.unique(np.append(bounds, [n - 1] if rng.random() < 0.5 else [1]))
        blocks = _split(data, bounds)
        assert sum(len(b) for b in blocks) == n
        tables = [cell_table(b) for b in blocks]
        cells = np.zeros((4, 2, 2), dtype=np.intp)
        for table in tables:
            cells = cells + table
        np.testing.assert_array_equal(cells, cell_table(data), strict=True)
        np.testing.assert_array_equal(build_final_model(cells, branch), _reference_build(data, branch), strict=True)
        seen.add(len(blocks) > 1)
        seen.add(min(len(b) for b in blocks) == 1)
        seen.add("absent" if (arm_a == -1).any() else "assigned only")
        seen.add("no_b1" if not arm_b.any() else "b1")
    assert seen == {True, False, "absent", "assigned only", "no_b1", "b1"}


# -- pure gating rules ---------------------------------------------------------

def gate_two_parameter(p_values, alpha):
    """Closed testing on the one-arm branch's global/beta1/beta2 nodes."""
    return closed_test(FinalBranch.ONE_ARM_RETAINED, p_values, alpha)


def test_two_parameter_gate_traces():
    assert gate_two_parameter({"global": 0.001, "beta1": 0.2, "beta2": 0.001}, 0.05) == {
        "global",
        "beta2",
    }
    assert gate_two_parameter({"global": 1.0, "beta1": 1.0, "beta2": 1.0}, 0.05) == frozenset()
    assert gate_two_parameter({"global": 0.2, "beta1": 0.001, "beta2": 0.001}, 0.05) == frozenset()


def test_three_parameter_gate_full_rejection():
    p = {node: 0.001 for node in _NODES}
    assert gate_three_parameter(p, 0.05) == set(_NODES)


def test_three_parameter_gate_blocked_pairs():
    # H04 holds: H06 and H07 stay blocked no matter their own p-values.
    p = {"H01": 0.001, "H02": 0.001, "H03": 0.001, "H04": 0.9, "H05": 0.001, "H06": 0.0, "H07": 0.0}
    rejected = gate_three_parameter(p, 0.05)
    assert "H05" in rejected
    assert "H06" not in rejected and "H07" not in rejected


def test_three_parameter_gate_root_closed():
    p = {node: 0.0 for node in _NODES}
    p["H01"] = 0.5
    assert gate_three_parameter(p, 0.05) == frozenset()


def test_gate_matches_oracle_on_random_vectors():
    rng = np.random.default_rng(616)
    for _ in range(500):
        p = {node: float(rng.choice([rng.random(), rng.random() * 0.1])) for node in _NODES}
        assert set(gate_three_parameter(p, 0.05)) == oracle_gatekeeping_enumerate(p, 0.05)


# -- one rule for every branch -------------------------------------------------
# The rules each branch had before closed testing was written down once,
# kept verbatim as the reference the single rule must reproduce.

def _reference_two_parameter(p_values, alpha):
    rejected = set()
    if p_values["global"] < alpha:
        rejected.add("global")
        if p_values["beta1"] < alpha:
            rejected.add("beta1")
        if p_values["beta2"] < alpha:
            rejected.add("beta2")
    return frozenset(rejected)


def _reference_three_parameter(p_values, alpha):
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


def _reference_terminated(p_values, alpha):
    return frozenset(["beta1"]) if p_values["beta1"] < alpha else frozenset()


# branch -> (analysis, reference rule, arm credited per node, ancestors per node)
_REFERENCE = {
    FinalBranch.ONE_ARM_RETAINED: (
        gatekeep_one_retained,
        _reference_two_parameter,
        {"beta1": "A_pooled", "beta2": "B1"},
        {"global": set(), "beta1": {"global"}, "beta2": {"global"}},
    ),
    FinalBranch.BOTH_ARMS_RETAINED: (
        gatekeep_both_retained,
        _reference_three_parameter,
        {"H05": "A1", "H06": "A2", "H07": "B1"},
        {
            "H01": set(),
            "H02": {"H01"},
            "H03": {"H01"},
            "H04": {"H01"},
            "H05": {"H01", "H02", "H03"},
            "H06": {"H01", "H02", "H04"},
            "H07": {"H01", "H03", "H04"},
        },
    ),
    FinalBranch.DOMAIN_A_TERMINATED: (
        analyze_terminated,
        _reference_terminated,
        {"beta1": "B1"},
        {"beta1": set()},
    ),
}


@pytest.mark.parametrize("branch", list(FinalBranch))
def test_closed_test_matches_reference_rules(branch):
    _, reference, _, ancestors = _REFERENCE[branch]
    assert list(HIERARCHY[branch]) == list(ancestors)  # the trace labels
    rng = np.random.default_rng(1976)
    for _ in range(3000):
        alpha = float(rng.uniform(0.01, 0.2))
        p = {node: float(rng.choice([rng.random(), 2.0 * alpha * rng.random()])) for node in ancestors}
        assert closed_test(branch, p, alpha) == reference(p, alpha), p


@pytest.mark.parametrize("branch", list(FinalBranch))
def test_gating_violation_iff_not_closed_upward(branch):
    ancestors = _REFERENCE[branch][3]
    for size in range(len(ancestors) + 1):
        for subset in itertools.combinations(ancestors, size):
            rejected = frozenset(subset)
            closed = all(ancestors[node] <= rejected for node in rejected)
            outcome = GatekeepingOutcome({}, rejected, frozenset())
            assert gating_violation(outcome, branch) == (not closed), subset


@pytest.mark.parametrize("branch", list(FinalBranch))
def test_gatekeeping_decisions_match_reference_rules(branch):
    analysis, reference, arm_for, _ = _REFERENCE[branch]
    rng = np.random.default_rng(4242)
    seen = set()
    for rep in range(150):
        rates = {(a, b): float(rng.uniform(0.15, 0.45)) for a in (0, 1, 2) for b in (0, 1)}
        model = _synthetic_cell_data(branch, rates, n_per_cell=60)
        alpha = float(rng.uniform(0.01, 0.5))
        outcome = analysis(model, alpha)
        assert not outcome.fit_failed
        assert outcome.rejected == reference(outcome.node_p_values, alpha)
        assert outcome.successful_arms == {arm_for[n] for n in outcome.rejected if n in arm_for}
        seen.add(len(outcome.successful_arms))
    assert len(seen) > 1  # the draws reach both failing and succeeding arms


# -- end-to-end analyses -------------------------------------------------------

def _synthetic_cell_data(branch, rates, n_per_cell=400):
    """Final-model data whose per-(arm_a, arm_b) cell event rates are
    exactly ``rates``."""
    cells = np.zeros((4, 2, 2), dtype=np.intp)
    for (a, b), rate in rates.items():
        events = int(round(rate * n_per_cell))
        cells[a + 1, b] = n_per_cell - events, events
    return build_final_model(cells, branch)


def test_one_retained_b1_effect_only():
    # Fluid pool at control rate, B1 doubles the rate: only B1 succeeds.
    rates = {(0, 0): 0.2, (0, 1): 0.5, (1, 0): 0.2, (1, 1): 0.5, (2, 0): 0.2, (2, 1): 0.5}
    model = _synthetic_cell_data(FinalBranch.ONE_ARM_RETAINED, rates)
    outcome = gatekeep_one_retained(model, 0.05)
    assert not outcome.fit_failed
    assert outcome.successful_arms == frozenset({"B1"})
    assert outcome.node_p_values["global"] < 0.05 < outcome.node_p_values["beta1"]


def test_one_retained_flat_data_rejects_nothing():
    rates = {(a, b): 0.3 for a in (0, 1, 2) for b in (0, 1)}
    model = _synthetic_cell_data(FinalBranch.ONE_ARM_RETAINED, rates)
    outcome = gatekeep_one_retained(model, 0.05)
    assert outcome.rejected == frozenset()
    assert outcome.successful_arms == frozenset()
    assert min(outcome.node_p_values.values()) > 0.9


def test_both_retained_all_effects_succeed_everywhere():
    rates = {(0, 0): 0.2, (1, 0): 0.5, (2, 0): 0.5, (0, 1): 0.5, (1, 1): 0.8, (2, 1): 0.8}
    model = _synthetic_cell_data(FinalBranch.BOTH_ARMS_RETAINED, rates)
    outcome = gatekeep_both_retained(model, 0.05)
    assert outcome.successful_arms == frozenset({"A1", "A2", "B1"})
    assert outcome.rejected == frozenset(_NODES)


def test_terminated_branch_calibration_and_effect():
    cfg = ScenarioConfig()  # B1 null
    hits = 0
    n_rep = 400
    for rep in range(n_rep):
        block, _ = generate_block(cfg, ActiveArms(domain_a=None), 600, np.random.default_rng(rep))
        model = _model(block, "domain_a_terminated")
        hits += analyze_terminated(model, 0.05).successful_arms == frozenset({"B1"})
    rate = hits / n_rep
    assert rate < 0.05 + 3.5 * np.sqrt(0.05 * 0.95 / n_rep)

    strong = ScenarioConfig(phase3_effects={"A1": 0.0, "A2": 0.0, "B1": 0.2})
    block, _ = generate_block(strong, ActiveArms(domain_a=None), 1000, np.random.default_rng(5150))
    outcome = analyze_terminated(_model(block, "domain_a_terminated"), 0.05)
    assert outcome.successful_arms == frozenset({"B1"})


def test_all_zero_outcomes_flag_failure_without_crash():
    data = _subjects(np.array([-1] * 40), np.array([0, 1] * 20), np.zeros(40, dtype=int))
    outcome = analyze_terminated(_model(data, "domain_a_terminated"), 0.05)
    assert outcome.fit_failed
    assert outcome.successful_arms == frozenset()


def test_branch_mismatch_raises():
    data = _subjects(np.array([0, 1, 2, 0]), np.array([0, 1, 0, 1]), np.array([0, 1, 0, 1]))
    model = _model(data, "both_arms_retained")
    with pytest.raises(ValueError):
        gatekeep_one_retained(model, 0.05)
    with pytest.raises(ValueError):
        analyze_terminated(model, 0.05)
