"""Interim decision machinery: retention rule enumeration, feasibility
behavior, scheduling, and scale invariance."""

import itertools
import math

import numpy as np
import pytest

from fast_trials.interim import (
    SchedulingError,
    AnalysisKind,
    arm_dropping_analysis,
    build_schedule,
    feasibility_analysis,
    resolve_retention,
)
from fast_trials.stats import Tail, TestResult

_DIRECTIONS = ("increase", "decrease")  # the benefit directions of (y11, y12)


def _subjects(arm_a_codes, y11, y12=None):
    """The (arm_a, y11, y12) columns the interims read; y12 defaults to 0."""
    y12 = y12 if y12 is not None else np.zeros(len(arm_a_codes))
    return np.asarray(arm_a_codes), np.asarray(y11, dtype=float), np.asarray(y12, dtype=float)


def _two_arm_data(y11_a1, y11_a2, y12_a1=None, y12_a2=None):
    y12_a1 = y12_a1 if y12_a1 is not None else np.zeros(len(y11_a1))
    y12_a2 = y12_a2 if y12_a2 is not None else np.zeros(len(y11_a2))
    codes = [1] * len(y11_a1) + [2] * len(y11_a2)
    return _subjects(codes, np.r_[y11_a1, y11_a2], np.r_[y12_a1, y12_a2])


def test_identical_arms_fall_back_to_default():
    base = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    data = _two_arm_data(base, base, base, base)
    decision = arm_dropping_analysis(*data, 0.05, _DIRECTIONS, "A2")
    assert decision.used_default
    assert decision.retained == frozenset({"A2"})
    assert decision.nominated_by_y11 is None and decision.nominated_by_y12 is None

    decision_a1 = arm_dropping_analysis(*data, 0.05, _DIRECTIONS, "A1")
    assert decision_a1.retained == frozenset({"A1"})


def test_clear_separation_nominates_single_arm():
    rng = np.random.default_rng(42)
    high = rng.normal(20.0, 1.0, 40)
    low = rng.normal(0.0, 1.0, 40)
    flat = rng.normal(0.0, 1.0, 40)
    # y11 separated (A1 higher, benefit=increase), y12 null
    data = _two_arm_data(high, low, flat, rng.normal(0.0, 1.0, 40))
    decision = arm_dropping_analysis(*data, 0.05, _DIRECTIONS, "A2")
    assert decision.nominated_by_y11 == "A1"
    assert decision.nominated_by_y12 is None
    assert decision.retained == frozenset({"A1"})
    assert not decision.used_default


def test_conflicting_nominations_retain_both():
    rng = np.random.default_rng(43)
    # y11 favors A1 (higher, increase); y12 favors A2 (lower, decrease).
    data = _two_arm_data(
        rng.normal(20.0, 1.0, 40),
        rng.normal(0.0, 1.0, 40),
        rng.normal(0.0, 1.0, 40),
        rng.normal(20.0, 1.0, 40),
    )
    decision = arm_dropping_analysis(*data, 0.05, _DIRECTIONS, "A2")
    assert decision.nominated_by_y11 == "A1"
    assert decision.nominated_by_y12 == "A1"
    # both nominations agree here; flip y12 direction to force a conflict
    conflicted = arm_dropping_analysis(*data, 0.05, ("increase", "increase"), "A2")
    assert conflicted.nominated_by_y11 == "A1"
    assert conflicted.nominated_by_y12 == "A2"
    assert conflicted.retained == frozenset({"A1", "A2"})


def test_directions_flip_nominations():
    rng = np.random.default_rng(44)
    data = _two_arm_data(rng.normal(10.0, 1.0, 30), rng.normal(0.0, 1.0, 30))
    up = arm_dropping_analysis(*data, 0.05, ("increase", "decrease"), "A2")
    down = arm_dropping_analysis(*data, 0.05, ("decrease", "decrease"), "A2")
    assert up.nominated_by_y11 == "A1"
    assert down.nominated_by_y11 == "A2"


def _expected_rule(sig11, mean11, sig12, mean12, default):
    # Literal transcription for directions=(increase, decrease):
    # a significant y11 keeps the higher-mean arm, a significant y12 keeps
    # the lower-mean arm, otherwise fall back to the default arm.
    noms = set()
    if sig11:
        noms.add("A1" if mean11[0] > mean11[1] else "A2")
    if sig12:
        noms.add("A1" if mean12[0] < mean12[1] else "A2")
    return frozenset(noms) if noms else frozenset({default})


def test_retention_rule_exhaustive_enumeration():
    orderings = [(1.0, 0.0), (0.0, 1.0)]
    for sig11, sig12, mean11, mean12, default in itertools.product(
        (False, True), (False, True), orderings, orderings, ("A1", "A2")
    ):
        t11 = TestResult(2.0, 10.0, 0.01 if sig11 else 0.5, Tail.TWO_SIDED, means=mean11)
        t12 = TestResult(2.0, 10.0, 0.01 if sig12 else 0.5, Tail.TWO_SIDED, means=mean12)
        decision = resolve_retention(t11, t12, 0.05, ("increase", "decrease"), default)
        expected = _expected_rule(sig11, mean11, sig12, mean12, default)
        assert decision.retained == expected, (sig11, sig12, mean11, mean12, default)
        assert decision.used_default == (not sig11 and not sig12)


def test_p_value_at_alpha_rejects_nothing():
    """Every interim compares p < alpha strictly. At p = alpha_drop neither
    biomarker nominates an arm, so the default arm is retained; at
    p = alpha_feas the domain does not proceed, and just above it does."""
    for default in ("A1", "A2"):
        tests = [TestResult(2.0, 10.0, 0.05, Tail.TWO_SIDED, means=(1.0, 0.0)) for _ in range(2)]
        decision = resolve_retention(*tests, 0.05, _DIRECTIONS, default)
        assert decision.nominated_by_y11 is None and decision.nominated_by_y12 is None
        assert decision.used_default and decision.retained == frozenset({default})
    rng = np.random.default_rng(34)
    data = _subjects([0] * 60 + [1] * 30 + [2] * 30, np.r_[rng.normal(0.0, 1.0, 60), rng.normal(0.4, 1.0, 60)])
    p = feasibility_analysis(*data[:2], 0.05, "increase").test.p_value
    assert 0.0 < p < 1.0
    assert not feasibility_analysis(*data[:2], p, "increase").proceed
    assert feasibility_analysis(*data[:2], math.nextafter(p, 1.0), "increase").proceed


def test_retention_requires_two_per_arm():
    data = _subjects([1, 1, 2], [1.0, 2.0, 3.0])
    with pytest.raises(SchedulingError):
        arm_dropping_analysis(*data, 0.05, _DIRECTIONS, "A2")


def test_interims_reject_columns_of_unequal_length():
    # Without the check, a short biomarker column would be masked by a
    # longer arm column and raise IndexError, or a 2-d one tested flat.
    codes, y11, y12 = _subjects([0, 0, 1, 1, 2, 2], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    for args in ((codes, y11, y12[:-1]), (codes[:-1], y11, y12), (codes, y11, y12.reshape(2, 3))):
        with pytest.raises(ValueError, match="equal length"):
            arm_dropping_analysis(*args, 0.05, _DIRECTIONS, "A2")
    with pytest.raises(ValueError, match="equal length"):
        feasibility_analysis(codes, y11[1:], 0.05, "increase")
    with pytest.raises(ValueError, match="equal length"):
        feasibility_analysis(codes.reshape(2, 3), y11.reshape(2, 3), 0.05, "increase")


def test_feasibility_null_rejection_rate_near_alpha():
    rng = np.random.default_rng(2718)
    hits = 0
    n_rep = 2000
    for _ in range(n_rep):
        data = _subjects([0] * 30 + [1] * 30 + [2] * 30, rng.normal(0.0, 10.0, 90))
        hits += feasibility_analysis(*data[:2], 0.05, "increase").proceed
    rate = hits / n_rep
    assert abs(rate - 0.05) < 3.0 * np.sqrt(0.05 * 0.95 / n_rep)


def test_feasibility_strong_shift_proceeds():
    rng = np.random.default_rng(31)
    y = np.r_[rng.normal(0.0, 1.0, 100), rng.normal(10.0, 1.0, 100)]
    data = _subjects([0] * 100 + [1] * 50 + [2] * 50, y)
    decision = feasibility_analysis(*data[:2], 0.05, "increase")
    assert decision.proceed
    assert 60.0 < decision.test.statistic < 82.0
    assert decision.test.p_value < 1e-12
    pooled_mean, control_mean = decision.test.means
    assert pooled_mean == pytest.approx(10.0, abs=0.5)
    assert control_mean == pytest.approx(0.0, abs=0.5)


def test_feasibility_one_sidedness():
    rng = np.random.default_rng(32)
    y = np.r_[rng.normal(0.0, 1.0, 100), rng.normal(10.0, 1.0, 100)]
    data = _subjects([0] * 100 + [1] * 50 + [2] * 50, y)
    assert not feasibility_analysis(*data[:2], 0.05, "decrease").proceed


def test_feasibility_pools_dropped_arm_subjects():
    # A1 subjects drag the pool down even though A1 was "dropped":
    # both treatment arms' subjects enter the pooled group.
    y = np.r_[np.full(40, 0.0), np.full(20, 0.0), np.full(20, 10.0)]
    y = y + np.tile([-0.5, 0.5], 40)
    data = _subjects([0] * 40 + [1] * 20 + [2] * 20, y)
    decision = feasibility_analysis(*data[:2], 0.05, "increase")
    assert decision.test.means[0] == pytest.approx(5.0, abs=1e-9)


def test_feasibility_invariant_to_permutation():
    rng = np.random.default_rng(33)
    codes = np.array([0] * 40 + [1] * 25 + [2] * 25)
    y = rng.normal(2.0, 5.0, 90)
    data = _subjects(codes, y)
    perm = rng.permutation(90)
    shuffled = _subjects(codes[perm], y[perm])
    d1 = feasibility_analysis(*data[:2], 0.05, "increase")
    d2 = feasibility_analysis(*shuffled[:2], 0.05, "increase")
    assert d1.proceed == d2.proceed
    assert d1.test.p_value == pytest.approx(d2.test.p_value, abs=1e-12)


def test_scale_invariance_of_decisions():
    rng = np.random.default_rng(34)
    codes = [0] * 30 + [1] * 30 + [2] * 30
    y11 = rng.normal(1.0, 4.0, 90)
    y12 = rng.normal(0.0, 4.0, 90)
    data = _subjects(codes, y11, y12)
    scaled = _subjects(codes, 3.7 * y11, y12)
    d1 = arm_dropping_analysis(*data, 0.2, _DIRECTIONS, "A2")
    d2 = arm_dropping_analysis(*scaled, 0.2, _DIRECTIONS, "A2")
    assert d1.nominated_by_y11 == d2.nominated_by_y11
    assert d1.test_y11.p_value == pytest.approx(d2.test_y11.p_value, abs=1e-9)
    f1 = feasibility_analysis(*data[:2], 0.2, "increase")
    f2 = feasibility_analysis(*scaled[:2], 0.2, "increase")
    assert f1.proceed == f2.proceed
    assert f1.test.p_value == pytest.approx(f2.test.p_value, abs=1e-9)


def test_schedule_ordering():
    s = build_schedule(150, 300)
    assert s[0] == (AnalysisKind.ARM_DROPPING, 150)
    assert s[1] == (AnalysisKind.FEASIBILITY, 300)

    s = build_schedule(300, 90)
    assert s[0] == (AnalysisKind.FEASIBILITY, 90)
    assert s[1] == (AnalysisKind.ARM_DROPPING, 300)


def test_schedule_tie_runs_arm_dropping_first():
    s = build_schedule(120, 120)
    assert s[0][0] is AnalysisKind.ARM_DROPPING
    assert s[1][0] is AnalysisKind.FEASIBILITY


def test_schedule_rejects_bad_triggers():
    with pytest.raises(ValueError):
        build_schedule(0, 90)


def test_decisions_carry_the_welch_sample_means_bit_for_bit():
    rng = np.random.default_rng(808)
    for _ in range(50):
        codes = rng.integers(0, 3, size=int(rng.integers(12, 300)))
        codes[:6] = [0, 0, 1, 1, 2, 2]
        y11 = rng.normal(rng.uniform(-1e3, 1e3), rng.uniform(0.1, 50.0), codes.size)
        y12 = rng.normal(0.0, 10.0, codes.size)
        data = _subjects(codes, y11, y12)
        retention = arm_dropping_analysis(*data, 0.05, _DIRECTIONS, "A2")
        for test, y in ((retention.test_y11, y11), (retention.test_y12, y12)):
            assert test.means == (float(y[codes == 1].mean()), float(y[codes == 2].mean()))
        feasibility = feasibility_analysis(*data[:2], 0.05, "increase")
        assert feasibility.test.means == (float(y11[codes > 0].mean()), float(y11[codes == 0].mean()))
