"""Welch two-sample t-test: hand-computed cases, tail relations, the
degenerate zero-variance handling the simulation loop relies on, bit
identity of the one-pass sample moments with numpy's mean and variance, and
of the test with its body before the tail code was shared."""

import itertools
import math

import numpy as np
import pytest

from fast_trials.stats import InputError, Tail, TestResult, _moments, t_sf, welch_t_test


def test_identical_samples_give_null_result():
    a = [3.0, 4.0, 5.0, 6.0]
    r = welch_t_test(a, list(a))
    assert r.statistic == 0.0
    assert r.p_value == 1.0
    assert not r.degenerate


def test_hand_computed_example():
    # means differ by -1, both variances 2.5, n=5 each: se=1, t=-1, df=8.
    r = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert r.statistic == pytest.approx(-1.0, abs=1e-12)
    assert r.df == pytest.approx(8.0, abs=1e-12)
    assert r.p_value == pytest.approx(0.3466, abs=1e-3)


def test_swap_symmetry():
    a, b = [1, 2, 3, 4, 5], [2, 3, 4, 5, 6]
    r_ab = welch_t_test(a, b)
    r_ba = welch_t_test(b, a)
    assert r_ba.statistic == -r_ab.statistic
    assert r_ba.p_value == r_ab.p_value
    assert r_ba.df == r_ab.df


def test_two_sided_is_twice_smaller_tail():
    rng = np.random.default_rng(1234)
    for _ in range(50):
        a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3.0), rng.integers(3, 40))
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3.0), rng.integers(3, 40))
        two = welch_t_test(a, b, Tail.TWO_SIDED).p_value
        upper = welch_t_test(a, b, Tail.UPPER).p_value
        lower = welch_t_test(a, b, Tail.LOWER).p_value
        assert abs(two - 2.0 * min(upper, lower)) < 1e-12


def test_one_sided_direction():
    rng = np.random.default_rng(7)
    a = rng.normal(5.0, 1.0, 60)
    b = rng.normal(0.0, 1.0, 60)
    assert welch_t_test(a, b, Tail.UPPER).p_value < 1e-6
    assert welch_t_test(a, b, Tail.LOWER).p_value > 0.999


def test_p_value_matches_t_sf():
    rng = np.random.default_rng(99)
    a = rng.normal(0.3, 1.2, 25)
    b = rng.normal(0.0, 0.8, 31)
    r = welch_t_test(a, b, Tail.UPPER)
    assert r.p_value == pytest.approx(t_sf(r.statistic, r.df), abs=1e-15)


def test_welch_df_can_be_non_integer():
    r = welch_t_test([1.0, 2.0, 3.0], [1.0, 5.0, 9.0, 13.0, 17.0])
    assert r.df != int(r.df)
    assert 2.0 < r.df < 6.0


def test_degenerate_equal_constants():
    r = welch_t_test([2.0, 2.0, 2.0], [2.0, 2.0])
    assert r.degenerate
    assert r.p_value == 1.0
    assert r.statistic == 0.0


def test_degenerate_distinct_constants():
    r = welch_t_test([3.0, 3.0], [1.0, 1.0], Tail.TWO_SIDED)
    assert r.degenerate
    assert r.p_value == 0.0
    r_wrong_way = welch_t_test([3.0, 3.0], [1.0, 1.0], Tail.LOWER)
    assert r_wrong_way.p_value == 1.0


def test_too_small_sample_rejected():
    with pytest.raises(InputError):
        welch_t_test([1.0], [1.0, 2.0])
    with pytest.raises(InputError):
        welch_t_test([1.0, 2.0], [])


# -- sample moments -------------------------------------------------------------

def _moment_samples():
    rng = np.random.default_rng(2024)
    for n in (2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 333, 1000, 4099):
        for loc, scale in ((0.0, 1.0), (-3.5, 10.0), (1e6, 1.0), (1e-8, 1e-12)):
            yield loc + scale * rng.standard_normal(n)
    for value in (0.0, 2.0, 0.1, -1e100, 1.0 / 3.0):
        for n in (2, 5, 1000):
            yield np.full(n, value)  # constant: numpy may leave a rounding residue
    yield np.array([1e16, 1.0, -1e16, 3.0])
    yield rng.standard_normal(2001)[::3]  # strided, not contiguous


def test_moments_bit_identical_to_numpy():
    for a in _moment_samples():
        mean, var = _moments(a)
        assert mean == float(np.mean(a)) and var == float(np.var(a, ddof=1)), a.size


def _reference_welch(a, b):
    """Statistic and df as computed from np.mean / np.var(ddof=1)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    se2_a = float(a.var(ddof=1)) / a.size
    se2_b = float(b.var(ddof=1)) / b.size
    se2 = se2_a + se2_b
    stat = (float(a.mean()) - float(b.mean())) / math.sqrt(se2)
    df = se2 * se2 / (se2_a * se2_a / (a.size - 1) + se2_b * se2_b / (b.size - 1))
    return stat, df


def test_welch_statistic_bit_identical_to_numpy_moments():
    rng = np.random.default_rng(77)
    for _ in range(300):
        n_a, n_b = (int(v) for v in rng.integers(2, 400, size=2))
        a = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 20), n_a)
        b = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 20), n_b)
        for tail in Tail:
            r = welch_t_test(a, b, tail)
            assert (r.statistic, r.df) == _reference_welch(a, b)


def _reference_welch_test(sample_a, sample_b, tail):
    """welch_t_test as written with a tail code of its own for the
    degenerate case; inputs are already checked."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    n_a, n_b = a.size, b.size
    mean_a, var_a = _moments(a)
    mean_b, var_b = _moments(b)
    means = (mean_a, mean_b)
    if var_a == 0.0 and var_b == 0.0:
        diff = mean_a - mean_b
        df = float(n_a + n_b - 2)
        if diff == 0.0:
            return TestResult(0.0, df, 1.0, tail, degenerate=True, means=means)
        stat = math.inf if diff > 0 else -math.inf
        if tail is Tail.TWO_SIDED:
            p = 0.0
        elif tail is Tail.UPPER:
            p = 0.0 if diff > 0 else 1.0
        else:
            p = 0.0 if diff < 0 else 1.0
        return TestResult(stat, df, p, tail, degenerate=True, means=means)

    se2_a = var_a / n_a
    se2_b = var_b / n_b
    se2 = se2_a + se2_b
    stat = (mean_a - mean_b) / math.sqrt(se2)
    df = se2 * se2 / (se2_a * se2_a / (n_a - 1) + se2_b * se2_b / (n_b - 1))
    if tail is Tail.TWO_SIDED:
        p = min(1.0, 2.0 * t_sf(abs(stat), df))
    elif tail is Tail.UPPER:
        p = t_sf(stat, df)
    else:
        p = t_sf(-stat, df)
    return TestResult(stat, df, p, tail, means=means)


def test_welch_bit_identical_to_reference_body():
    """Every pair of the moment samples, constants (degenerate pairs) among
    them, and the random pairs above, in every tail."""
    samples = list(_moment_samples())
    rng = np.random.default_rng(77)
    pairs = list(itertools.product(samples, repeat=2))
    for _ in range(300):
        n_a, n_b = (int(v) for v in rng.integers(2, 400, size=2))
        a = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 20), n_a)
        b = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 20), n_b)
        pairs.append((a, b))

    def outcome(test, a, b, tail):
        try:
            return test(a, b, tail)
        except InputError as exc:  # an underflowing df is nan in both
            return str(exc)

    degenerate = 0
    with np.errstate(over="ignore", under="ignore"):  # the extreme samples, alike in both
        for a, b in pairs:
            for tail in Tail:
                got = outcome(welch_t_test, a, b, tail)
                assert got == outcome(_reference_welch_test, a, b, tail), (a.size, b.size, tail)
                degenerate += not isinstance(got, str) and got.degenerate and got.statistic != 0.0
    assert degenerate > 0
