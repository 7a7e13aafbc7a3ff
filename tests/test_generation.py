"""Subject generation: allocation balance, biomarker and outcome laws,
additivity and clamping of risk differences, stream determinism, and bit
identity of the table-driven block generator with the per-subject
arithmetic it replaced."""

import dataclasses
import pickle

import numpy as np
import pytest

from fast_trials.design import ABSENT, ARM_A_CODE, ScenarioConfig
from fast_trials.generation import PROB_CLAMP_HI, PROB_CLAMP_LO, ActiveArms, generate_block
from test_final_analysis import cell_table


def _freq_tol(p, n):
    return 3.0 * np.sqrt(p * (1.0 - p) / n)


def test_block_allocation_thirds_and_halves():
    cfg = ScenarioConfig()
    block, _, _ = generate_block(cfg, ActiveArms(), 300_000, np.random.default_rng(1))
    for code in (0, 1, 2):
        freq = np.mean(block.arm_a == code)
        assert abs(freq - 1 / 3) < _freq_tol(1 / 3, 300_000)
    assert abs(np.mean(block.arm_b == 1) - 0.5) < _freq_tol(0.5, 300_000)


def test_terminated_domain_never_assigns():
    cfg = ScenarioConfig()
    stream = np.random.default_rng(2)
    block, _, _ = generate_block(cfg, ActiveArms(domain_a=None), 50_000, stream)
    assert np.all(block.arm_a == ABSENT)
    assert abs(np.mean(block.arm_b == 1) - 0.5) < _freq_tol(0.5, 50_000)


def test_restricted_allocation_excludes_dropped_arm():
    cfg = ScenarioConfig()
    active = ActiveArms(domain_a=frozenset({"A0", "A2"}))
    block, _, _ = generate_block(cfg, active, 20_000, np.random.default_rng(3))
    assert not np.any(block.arm_a == 1)  # A1 never assigned
    assert abs(np.mean(block.arm_a == 0) - 0.5) < _freq_tol(0.5, 20_000)
    assert set(np.unique(block.arm_a)) == {0, 2}


def test_active_arms_invariants():
    with pytest.raises(ValueError):
        ActiveArms(domain_a=frozenset({"A1", "A2"}))  # control missing
    with pytest.raises(ValueError):
        ActiveArms(domain_a=frozenset({"A0"}))  # no treatment arm
    with pytest.raises(ValueError):
        ActiveArms(domain_a=frozenset({"A0", "A1", "B1"}))  # a domain-B arm


def test_biomarker_means():
    cfg = ScenarioConfig(
        biomarker_effects={"A1": (-10.0, 10.0), "A2": (4.0, -6.0)},
        biomarker_sds=(10.0, 10.0),
    )
    block, _, _ = generate_block(cfg, ActiveArms(), 300_000, np.random.default_rng(5))
    for code, (m11, m12) in ((0, (0.0, 0.0)), (1, (-10.0, 10.0)), (2, (4.0, -6.0))):
        arm = block.arm_a == code  # about 100k subjects: 3 MC standard errors < 0.1
        assert abs(block.y11[arm].mean() - m11) < 0.1
        assert abs(block.y12[arm].mean() - m12) < 0.1
        assert block.y11[arm].std() == pytest.approx(10.0, abs=0.1)


def test_control_and_degenerate_sd():
    cfg = ScenarioConfig(
        biomarker_effects={"A1": (7.0, -3.0), "A2": (0.0, 0.0)},
        biomarker_sds=(0.0, 0.0),
    )
    block, _, _ = generate_block(cfg, ActiveArms(), 300, np.random.default_rng(6))
    expected = {0: (0.0, 0.0), 1: (7.0, -3.0), 2: (0.0, 0.0)}
    for code, (m11, m12) in expected.items():
        arm = block.arm_a == code
        assert arm.any()
        assert np.all(block.y11[arm] == m11) and np.all(block.y12[arm] == m12)
    # Subjects enrolled after domain A terminated carry no shift.
    absent, _, _ = generate_block(cfg, ActiveArms(domain_a=None), 50, np.random.default_rng(6))
    assert np.all(absent.arm_a == ABSENT)
    assert np.all(absent.y11 == 0.0) and np.all(absent.y12 == 0.0)


def test_event_probability_clamps_and_flags():
    # Unvalidated extreme configs: every A1 subject's probability is clamped
    # into [0.001, 0.999] and counted; a probability inside stays as it is.
    for risk_difference, clamped, rate in ((0.9, True, 0.999), (-0.9, True, 0.001), (0.55, False, 0.95)):
        cfg = ScenarioConfig(phase3_effects={"A1": risk_difference, "A2": 0.0, "B1": 0.0})
        block, n_clamped, _ = generate_block(cfg, ActiveArms(), 60_000, np.random.default_rng(12))
        a1 = block.arm_a == 1
        assert n_clamped == (int(a1.sum()) if clamped else 0)
        assert abs(block.y21[a1].mean() - rate) < _freq_tol(rate, int(a1.sum()))


def test_phase3_outcome_frequency():
    cfg = ScenarioConfig()
    block, _, _ = generate_block(cfg, ActiveArms(), 150_000, np.random.default_rng(7))
    control = (block.arm_a == 0) & (block.arm_b == 0)
    assert abs(block.y21[control].mean() - 0.4) < _freq_tol(0.4, int(control.sum()))


def test_block_outcome_frequency_with_effects():
    cfg = ScenarioConfig(phase3_effects={"A1": 0.1, "A2": 0.1, "B1": 0.1})
    block, n_clamped, _ = generate_block(cfg, ActiveArms(), 200_000, np.random.default_rng(8))
    assert n_clamped == 0
    # Risk differences add: control 0.4, one active arm 0.5, both 0.6.
    for a, b, rate in ((0, 0, 0.4), (2, 0, 0.5), (0, 1, 0.5), (2, 1, 0.6), (1, 1, 0.6)):
        cell = (block.arm_a == a) & (block.arm_b == b)
        assert abs(block.y21[cell].mean() - rate) < _freq_tol(rate, int(cell.sum()))


def test_global_null_exchangeable_across_arms():
    cfg = ScenarioConfig()  # all effects zero
    block, _, _ = generate_block(cfg, ActiveArms(), 120_000, np.random.default_rng(9))
    means = [block.y11[block.arm_a == code].mean() for code in (0, 1, 2)]
    rates = [block.y21[block.arm_a == code].mean() for code in (0, 1, 2)]
    for m in means:
        assert abs(m) < 0.16  # 3 SE with sigma=10, n~40000
    assert max(rates) - min(rates) < 2 * _freq_tol(0.4, 40_000)


def test_blocks_deterministic_given_stream_state():
    cfg = ScenarioConfig(phase3_effects={"A1": 0.1, "A2": 0.0, "B1": 0.0})
    b1, c1, _ = generate_block(cfg, ActiveArms(), 500, np.random.default_rng(10))
    b2, c2, _ = generate_block(cfg, ActiveArms(), 500, np.random.default_rng(10))
    assert c1 == c2
    for column in ("arm_a", "arm_b", "y11", "y12", "y21"):
        np.testing.assert_array_equal(getattr(b1, column), getattr(b2, column))


def test_generation_tables_are_built_once_per_config():
    config = ScenarioConfig(phase3_effects={"A1": 0.1, "A2": -0.2, "B1": 0.05})
    assert "generation_tables" not in vars(config)
    generate_block(config, ActiveArms(), 50, np.random.default_rng(0))
    tables = vars(config)["generation_tables"]
    generate_block(config, ActiveArms(), 50, np.random.default_rng(1))
    assert config.generation_tables is tables
    assert not any(t.flags.writeable for t in tables[:4])

    # A replaced config builds its own tables from its own fields.
    changed = dataclasses.replace(config, control_event_rate=0.3)
    np.testing.assert_array_equal(
        changed.generation_tables.p_event,
        [[0.3, 0.3 + 0.05], [0.3, 0.3 + 0.05], [0.3 + 0.1, 0.3 + 0.1 + 0.05], [0.3 - 0.2, 0.3 - 0.2 + 0.05]],
        strict=True,
    )
    assert tables.p_event[0, 0] == 0.4

    restored = pickle.loads(pickle.dumps(config))
    for got, want in zip(restored.generation_tables, tables):
        np.testing.assert_array_equal(got, want, strict=True)


# -- bit identity with the per-subject arithmetic ---------------------------------

def _reference_generate_block(config, active, n, stream):
    """``generate_block`` before its per-scenario tables: np.where lookups of
    the arm shifts and risk differences and a per-subject clip."""
    arms_a = () if active.domain_a is None else tuple(sorted(active.domain_a))
    if arms_a:
        idx = stream.integers(len(arms_a), size=n)
        arm_a = np.array([ARM_A_CODE[a] for a in arms_a], dtype=np.int8)[idx]
    else:
        arm_a = np.full(n, ABSENT, dtype=np.int8)
    arm_b = stream.integers(2, size=n).astype(np.int8)

    shift11 = np.zeros(3)
    shift12 = np.zeros(3)
    for arm in ("A1", "A2"):
        shift11[ARM_A_CODE[arm]] = float(config.biomarker_effects[arm][0])
        shift12[ARM_A_CODE[arm]] = float(config.biomarker_effects[arm][1])
    mean11 = np.where(arm_a == ABSENT, 0.0, shift11[np.maximum(arm_a, 0)])
    mean12 = np.where(arm_a == ABSENT, 0.0, shift12[np.maximum(arm_a, 0)])
    s11, s12 = config.biomarker_sds
    y11 = mean11 + s11 * stream.standard_normal(n)
    y12 = mean12 + s12 * stream.standard_normal(n)

    rd_a = np.zeros(3)
    for arm in ("A1", "A2"):
        rd_a[ARM_A_CODE[arm]] = float(config.phase3_effects[arm])
    rd_b = np.array([0.0, float(config.phase3_effects["B1"])])
    p = (
        config.control_event_rate
        + np.where(arm_a == ABSENT, 0.0, rd_a[np.maximum(arm_a, 0)])
        + rd_b[arm_b]
    )
    n_clamped = int(np.count_nonzero((p < PROB_CLAMP_LO) | (p > PROB_CLAMP_HI)))
    p = np.clip(p, PROB_CLAMP_LO, PROB_CLAMP_HI)
    y21 = (stream.random(n) < p).astype(np.int8)
    return (arm_a, arm_b, y11, y12, y21), n_clamped, p


_ARM_SETS = {
    "full": ActiveArms(),
    "restricted_a1": ActiveArms(domain_a=frozenset({"A0", "A1"})),
    "restricted_a2": ActiveArms(domain_a=frozenset({"A0", "A2"})),
    "terminated": ActiveArms(domain_a=None),
}
_IDENTITY_CONFIGS = {
    "null": ScenarioConfig(),
    "effects": ScenarioConfig(
        biomarker_effects={"A1": (10.0, -0.3), "A2": (-2.5, 7.1)},
        biomarker_sds=(5.0, 12.5),
        phase3_effects={"A1": 0.1, "A2": -0.07, "B1": 0.13},
        control_event_rate=0.37,
    ),
    # Unvalidated: A1 and A2 cells leave [0.001, 0.999] on both sides.
    "clamping": ScenarioConfig(
        phase3_effects={"A1": 0.62, "A2": -0.45, "B1": 0.3},
        control_event_rate=0.41,
    ),
    # Sums whose value depends on the order of the additions.
    "rounding": ScenarioConfig(
        biomarker_effects={"A1": (0.1, 0.2), "A2": (0.3, 1e-9)},
        biomarker_sds=(0.7, 3.0),
        phase3_effects={"A1": 0.1, "A2": 0.2, "B1": 0.25},
        control_event_rate=0.1,
    ),
}


@pytest.mark.parametrize("config_name", list(_IDENTITY_CONFIGS))
@pytest.mark.parametrize("arms_name", list(_ARM_SETS))
def test_block_bit_identical_to_per_subject_reference(config_name, arms_name):
    config, active = _IDENTITY_CONFIGS[config_name], _ARM_SETS[arms_name]
    for seed, n in ((0, 1), (1, 2), (2, 97), (3, 1000), (4, 4321), (5, 150), (6, 800)):
        stream, reference_stream = np.random.default_rng(seed), np.random.default_rng(seed)
        block, n_clamped, cells = generate_block(config, active, n, stream)
        expected, expected_clamped, p = _reference_generate_block(config, active, n, reference_stream)
        assert n_clamped == expected_clamped
        # The returned cell table is the block's, counted from its columns.
        np.testing.assert_array_equal(cells, cell_table(block), strict=True)
        # A probability one ulp off would almost never flip an outcome, so
        # the table cells are compared with the per-subject sums directly.
        p_event = config.generation_tables.p_event[block.arm_a + 1, block.arm_b]
        np.testing.assert_array_equal(p_event, p, strict=True)
        for column, want in zip(("arm_a", "arm_b", "y11", "y12", "y21"), expected):
            got = getattr(block, column)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want, strict=True)
        # The stream is left where the reference leaves it.
        assert stream.random() == reference_stream.random()


def test_clamping_reference_case_clamps():
    # Guards the identity test above: its clamping scenario really clamps.
    config = _IDENTITY_CONFIGS["clamping"]
    _, n_clamped, _ = _reference_generate_block(config, ActiveArms(), 1000, np.random.default_rng(3))
    assert 0 < n_clamped < 1000
