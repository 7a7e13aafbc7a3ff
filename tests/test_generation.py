"""Subject generation: allocation balance, biomarker and outcome laws,
additivity and clamping of risk differences, stream determinism, and bit
identity of the table-driven block generator with the per-subject
arithmetic it replaced."""

import dataclasses
import pickle

import numpy as np
import pytest

from fast_trials import generation
from fast_trials.design import ABSENT, ARM_A_CODE, DOMAIN_A_ARMS, PROB_CLAMP_HI, PROB_CLAMP_LO, ScenarioConfig
from fast_trials.generation import generate_block
from test_final_analysis import cell_table


def _freq_tol(p, n):
    return 3.0 * np.sqrt(p * (1.0 - p) / n)


def _n_clamped(config, cells):
    """The subjects of a cell table whose event probability was clamped,
    read as a replicate reads them off its summed table."""
    return int(cells.sum(axis=2)[config.generation_tables.clamped].sum())


def _event_rate(cells):
    """Events over subjects of a slice of a block's cell table, and the
    subjects."""
    return cells[..., 1].sum() / cells.sum(), int(cells.sum())


def test_block_allocation_thirds_and_halves():
    cfg = ScenarioConfig()
    arm_a, _, _, cells = generate_block(cfg, frozenset(DOMAIN_A_ARMS), 300_000, np.random.default_rng(1))
    for code in (0, 1, 2):
        freq = np.mean(arm_a == code)
        assert abs(freq - 1 / 3) < _freq_tol(1 / 3, 300_000)
    assert abs(cells[:, 1].sum() / 300_000 - 0.5) < _freq_tol(0.5, 300_000)


def test_terminated_domain_never_assigns():
    cfg = ScenarioConfig()
    stream = np.random.default_rng(2)
    arm_a, _, _, cells = generate_block(cfg, None, 50_000, stream)
    assert np.all(arm_a == ABSENT)
    assert cells[0].sum() == 50_000  # every subject in the ABSENT row
    assert abs(cells[:, 1].sum() / 50_000 - 0.5) < _freq_tol(0.5, 50_000)


def test_restricted_allocation_excludes_dropped_arm():
    cfg = ScenarioConfig()
    arm_a, _, _, _ = generate_block(cfg, frozenset({"A0", "A2"}), 20_000, np.random.default_rng(3))
    assert not np.any(arm_a == 1)  # A1 never assigned
    assert abs(np.mean(arm_a == 0) - 0.5) < _freq_tol(0.5, 20_000)
    assert set(np.unique(arm_a)) == {0, 2}


def test_active_arms_invariants():
    cfg, stream = ScenarioConfig(), np.random.default_rng(4)
    with pytest.raises(ValueError, match="active domain A must be A0 with A1, A2 or both"):
        generate_block(cfg, frozenset({"A1", "A2"}), 10, stream)  # control missing
    with pytest.raises(ValueError, match="active domain A must be A0 with A1, A2 or both"):
        generate_block(cfg, frozenset({"A0"}), 10, stream)  # no treatment arm
    with pytest.raises(ValueError, match="active domain A must be A0 with A1, A2 or both"):
        generate_block(cfg, frozenset({"A0", "A1", "B1"}), 10, stream)  # a domain-B arm


def test_biomarker_means():
    cfg = ScenarioConfig(
        biomarker_effects={"A1": (-10.0, 10.0), "A2": (4.0, -6.0)},
        biomarker_sds=(10.0, 10.0),
    )
    arm_a, y11, y12, _ = generate_block(cfg, frozenset(DOMAIN_A_ARMS), 300_000, np.random.default_rng(5))
    for code, (m11, m12) in ((0, (0.0, 0.0)), (1, (-10.0, 10.0)), (2, (4.0, -6.0))):
        arm = arm_a == code  # about 100k subjects: 3 MC standard errors < 0.1
        assert abs(y11[arm].mean() - m11) < 0.1
        assert abs(y12[arm].mean() - m12) < 0.1
        assert y11[arm].std() == pytest.approx(10.0, abs=0.1)


def test_control_and_degenerate_sd():
    cfg = ScenarioConfig(
        biomarker_effects={"A1": (7.0, -3.0), "A2": (0.0, 0.0)},
        biomarker_sds=(0.0, 0.0),
    )
    arm_a, y11, y12, _ = generate_block(cfg, frozenset(DOMAIN_A_ARMS), 300, np.random.default_rng(6))
    expected = {0: (0.0, 0.0), 1: (7.0, -3.0), 2: (0.0, 0.0)}
    for code, (m11, m12) in expected.items():
        arm = arm_a == code
        assert arm.any()
        assert np.all(y11[arm] == m11) and np.all(y12[arm] == m12)
    # Subjects enrolled after domain A terminated carry no shift.
    absent, y11, y12, _ = generate_block(cfg, None, 50, np.random.default_rng(6))
    assert np.all(absent == ABSENT)
    assert np.all(y11 == 0.0) and np.all(y12 == 0.0)


def test_event_probability_clamps_and_flags():
    # Unvalidated extreme configs: every A1 subject's probability is clamped
    # into [0.001, 0.999] and counted; a probability inside stays as it is.
    for risk_difference, clamped, rate in ((0.9, True, 0.999), (-0.9, True, 0.001), (0.55, False, 0.95)):
        cfg = ScenarioConfig(phase3_effects={"A1": risk_difference, "A2": 0.0, "B1": 0.0})
        arm_a, _, _, cells = generate_block(cfg, frozenset(DOMAIN_A_ARMS), 60_000, np.random.default_rng(12))
        n_a1 = int(np.count_nonzero(arm_a == 1))
        assert _n_clamped(cfg, cells) == (n_a1 if clamped else 0)
        observed, n = _event_rate(cells[1 + 1])
        assert n == n_a1
        assert abs(observed - rate) < _freq_tol(rate, n)


def test_phase3_outcome_frequency():
    cfg = ScenarioConfig()
    *_, cells = generate_block(cfg, frozenset(DOMAIN_A_ARMS), 150_000, np.random.default_rng(7))
    observed, n = _event_rate(cells[0 + 1, 0])  # A0 and B0
    assert abs(observed - 0.4) < _freq_tol(0.4, n)


def test_block_outcome_frequency_with_effects():
    cfg = ScenarioConfig(phase3_effects={"A1": 0.1, "A2": 0.1, "B1": 0.1})
    *_, cells = generate_block(cfg, frozenset(DOMAIN_A_ARMS), 200_000, np.random.default_rng(8))
    assert _n_clamped(cfg, cells) == 0
    # Risk differences add: control 0.4, one active arm 0.5, both 0.6.
    for a, b, rate in ((0, 0, 0.4), (2, 0, 0.5), (0, 1, 0.5), (2, 1, 0.6), (1, 1, 0.6)):
        observed, n = _event_rate(cells[a + 1, b])
        assert abs(observed - rate) < _freq_tol(rate, n)


def test_global_null_exchangeable_across_arms():
    cfg = ScenarioConfig()  # all effects zero
    arm_a, y11, _, cells = generate_block(cfg, frozenset(DOMAIN_A_ARMS), 120_000, np.random.default_rng(9))
    means = [y11[arm_a == code].mean() for code in (0, 1, 2)]
    rates = [_event_rate(cells[code + 1])[0] for code in (0, 1, 2)]
    for m in means:
        assert abs(m) < 0.16  # 3 SE with sigma=10, n~40000
    assert max(rates) - min(rates) < 2 * _freq_tol(0.4, 40_000)


def test_blocks_deterministic_given_stream_state():
    cfg = ScenarioConfig(phase3_effects={"A1": 0.1, "A2": 0.0, "B1": 0.0})
    first = generate_block(cfg, frozenset(DOMAIN_A_ARMS), 500, np.random.default_rng(10))
    second = generate_block(cfg, frozenset(DOMAIN_A_ARMS), 500, np.random.default_rng(10))
    for got, want in zip(first, second):
        np.testing.assert_array_equal(got, want, strict=True)


def test_generation_tables_are_built_once_per_config():
    config = ScenarioConfig(phase3_effects={"A1": 0.1, "A2": -0.2, "B1": 0.05})
    assert "generation_tables" not in vars(config)
    generate_block(config, frozenset(DOMAIN_A_ARMS), 50, np.random.default_rng(0))
    tables = vars(config)["generation_tables"]
    generate_block(config, frozenset(DOMAIN_A_ARMS), 50, np.random.default_rng(1))
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

def _reference_generate_block(config, arms, n, stream):
    """``generate_block`` before its per-scenario tables: np.where lookups of
    the arm shifts and risk differences and a per-subject clip."""
    arms_a = () if arms is None else tuple(sorted(arms))
    if arms_a:
        idx = stream.integers(len(arms_a), size=n)
        arm_a = np.array([ARM_A_CODE[a] for a in arms_a], dtype=np.intp)[idx]
    else:
        arm_a = np.full(n, ABSENT, dtype=np.intp)
    arm_b = stream.integers(2, size=n).astype(np.intp)

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
    y21 = (stream.random(n) < p).astype(np.intp)
    return (arm_a, arm_b, y11, y12, y21), n_clamped, p


_ARM_SETS = {
    "full": frozenset(DOMAIN_A_ARMS),
    "restricted_a1": frozenset({"A0", "A1"}),
    "restricted_a2": frozenset({"A0", "A2"}),
    "terminated": None,
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
    config, arms = _IDENTITY_CONFIGS[config_name], _ARM_SETS[arms_name]
    for seed, n in ((0, 1), (1, 2), (2, 97), (3, 1000), (4, 4321), (5, 150), (6, 800)):
        stream, reference_stream = np.random.default_rng(seed), np.random.default_rng(seed)
        *columns, cells = generate_block(config, arms, n, stream)
        expected, expected_clamped, p = _reference_generate_block(config, arms, n, reference_stream)
        arm_a, arm_b, y11, y12, y21 = expected
        assert _n_clamped(config, cells) == expected_clamped
        # The returned cell table is the reference subjects', counted from
        # their columns.
        np.testing.assert_array_equal(cells, cell_table(arm_a, arm_b, y21), strict=True)
        # A probability one ulp off would almost never flip an outcome, so
        # the table cells are compared with the per-subject sums directly.
        p_event = config.generation_tables.p_event[arm_a + 1, arm_b]
        np.testing.assert_array_equal(p_event, p, strict=True)
        for got, want in zip(columns, (arm_a, y11, y12)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want, strict=True)
        # The stream is left where the reference leaves it.
        assert stream.random() == reference_stream.random()


def test_clamping_reference_case_clamps():
    # Guards the identity test above: its clamping scenario really clamps.
    config = _IDENTITY_CONFIGS["clamping"]
    _, n_clamped, _ = _reference_generate_block(config, frozenset(DOMAIN_A_ARMS), 1000, np.random.default_rng(3))
    assert 0 < n_clamped < 1000


# -- the integer columns are exactly Generator.integers ---------------------------

def _assert_assignments_are_integers(codes, n, stream, reference):
    """The decoded columns equal the ``integers`` draws of a twin stream,
    and the twins end in the same 128-bit state. ``uinteger``, a stale copy
    of the last buffered 32-bit half, is read only while ``has_uint32`` is
    1, so it is not compared."""
    arm_a, arm_b = generation._assignments(stream, codes, n)
    if codes is None:
        expected_a = np.full(n, ABSENT, dtype=np.intp)
    else:
        expected_a = codes[reference.integers(len(codes), size=n)]
    expected_b = reference.integers(2, size=n)
    np.testing.assert_array_equal(arm_a, expected_a, strict=True)
    np.testing.assert_array_equal(arm_b, expected_b, strict=True)
    got, want = stream.bit_generator.state, reference.bit_generator.state
    assert got["state"] == want["state"]
    if codes is None and n % 2:
        # integers buffers the unread high half of the last word; the
        # decode does not. Only 32-bit draws read that buffer, and none
        # follows a terminated block, a replicate's last.
        assert (got["has_uint32"], want["has_uint32"]) == (0, 1)
    else:
        assert got["has_uint32"] == want["has_uint32"]


def _codes(arms_name):
    arms = _ARM_SETS[arms_name]
    return None if arms is None else generation._ACTIVE_CODES[arms]


@pytest.mark.parametrize("arms_name", list(_ARM_SETS))
def test_assignments_are_generator_integers(arms_name):
    codes = _codes(arms_name)
    for seed in range(40):
        for n in (1, 2, 3, 98, 99, 1000, 1001):
            stream, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            _assert_assignments_are_integers(codes, n, stream, reference)


def _zero_word_stream(words_before):
    """A generator whose raw word after ``words_before`` others is 0. PCG64
    outputs the rotated xor of the two 64-bit halves of its stepped state,
    so a stepped state with equal halves outputs 0."""
    stream = np.random.default_rng(0)
    state = stream.bit_generator.state
    state["state"]["state"] = 0x0123456789ABCDEF * (2**64 + 1)
    stream.bit_generator.state = state
    stream.bit_generator.advance(-(words_before + 1))
    return stream


# (n, word): with three arms, word < n / 2 puts its two zero halves among
# the arm halves, which Lemire rejects; later words give domain-B halves.
@pytest.mark.parametrize("n, word", [(1, 0), (2, 0), (7, 3), (8, 3), (8, 4), (9, 8)])
@pytest.mark.parametrize("arms_name", list(_ARM_SETS))
def test_assignments_are_generator_integers_around_a_zero_word(arms_name, n, word):
    assert _zero_word_stream(word).bit_generator.random_raw(word + 1)[word] == 0
    _assert_assignments_are_integers(_codes(arms_name), n, _zero_word_stream(word), _zero_word_stream(word))


@pytest.mark.parametrize("arms_name", list(_ARM_SETS))
def test_block_without_biomarkers_draws_the_same_block(arms_name):
    config, arms = _IDENTITY_CONFIGS["clamping"], _ARM_SETS[arms_name]
    for seed, n in ((0, 1), (1, 150), (2, 801)):
        stream, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        arm_a, y11, y12, cells = generate_block(config, arms, n, stream, biomarkers=False)
        want_arm_a, _, _, want_cells = generate_block(config, arms, n, reference)
        assert y11 is None and y12 is None
        np.testing.assert_array_equal(arm_a, want_arm_a, strict=True)
        np.testing.assert_array_equal(cells, want_cells, strict=True)
        assert stream.bit_generator.state == reference.bit_generator.state
