"""Logistic-regression fitting: closed-form checks on contingency tables,
degenerate/separated data handling, likelihood-ratio test behavior, bit
identity of ``fit_logistic`` with the engine's two fits on the grouped
table, and of the profile fit with its numpy form in ``reference_kernels``;
the textbook IRLS loop there is the independent reference for both."""

import collections
import itertools
import math
import warnings

import numpy as np
import pytest
import reference_kernels

from fast_trials import final_analysis, stats
from fast_trials.final_analysis import gatekeep_both_retained
from fast_trials.stats import (
    _DIVERGE_BOUND,
    FittingError,
    InputError,
    LogisticFit,
    _check_table,
    _saturated_pass,
    check_design,
    chi_square_sf,
    fit_logistic,
    fit_logistic_counts,
    lr_test,
    stratify,
)


def _two_group_design(n0, events0, n1, events1):
    x = np.ones((n0 + n1, 2))
    x[:n0, 1] = 0.0
    y = np.concatenate(
        [np.r_[np.ones(events0), np.zeros(n0 - events0)],
         np.r_[np.ones(events1), np.zeros(n1 - events1)]]
    )
    return x, y


def test_intercept_only_balanced_events():
    fit = fit_logistic(np.ones((100, 1)), np.r_[np.ones(50), np.zeros(50)])
    assert fit.converged
    assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-8)


def test_two_group_closed_form():
    # group0 20/100, group1 30/100: intercept ln(20/80), slope ln(12/7).
    x, y = _two_group_design(100, 20, 100, 30)
    fit = fit_logistic(x, y)
    assert fit.converged
    assert fit.coefficients[0] == pytest.approx(-1.386294, abs=1e-6)
    assert fit.coefficients[1] == pytest.approx(0.538997, abs=1e-6)
    assert fit.log_likelihood < 0.0


def test_all_zero_outcomes_diverges_without_crash():
    fit = fit_logistic(np.ones((50, 1)), np.zeros(50))
    assert not fit.converged
    assert fit.diverged


def test_perfect_separation_flagged():
    x = np.ones((40, 2))
    x[:20, 1] = 0.0
    y = x[:, 1].copy()  # outcome identical to the covariate
    fit = fit_logistic(x, y)
    assert not fit.converged
    assert fit.diverged


def test_collinear_design_rejected():
    x = np.ones((30, 3))
    x[:, 1] = np.r_[np.zeros(15), np.ones(15)]
    x[:, 2] = x[:, 1]
    with pytest.raises(InputError):
        fit_logistic(x, np.r_[np.zeros(15), np.ones(15)])


def test_input_validation():
    with pytest.raises(InputError):
        fit_logistic(np.ones((10, 1)), np.full(10, 0.5))  # non-binary outcome
    x = np.ones((10, 2))
    x[:, 0] = 2.0
    with pytest.raises(InputError):
        fit_logistic(x, np.zeros(10))  # missing intercept column
    with pytest.raises(InputError):
        fit_logistic(np.ones((1, 2)), np.zeros(1))  # n < k
    # Row labels of strata: the one-arm layout takes (0, 0, 1, 1). Three
    # labels used to drop the last row and fit the rest; four strata or one
    # raised numpy's LinAlgError.
    for labels, reason in (
        ((0, 0, 1), "label each of the 4"),
        ((0, 0, 1, 1, 1), "label each of the 4"),
        ((0, 1, 2, 3), "needs 2 strata, got 4"),
        ((0, 0, 0, 0), "needs 2 strata, got 1"),
        ((0, 1, 0, 1), "rows of a stratum must agree"),
    ):
        with pytest.raises(InputError, match=reason):
            stratify(_DESIGNS[1], labels)
    with pytest.raises(InputError, match="0/1 indicator"):
        stratify(_DESIGNS[1] * [1.0, 1.0, 2.0], (0, 0, 1, 1))  # B1 coded 0/2
    # Two strata with the same intercept columns: the design check stops
    # them before the strata's rows are inverted.
    with pytest.raises(InputError, match="collinear"):
        stratify(np.array([[1.0, 1.0, b] for b in (0.0, 1.0, 0.0, 1.0)]), (0, 0, 1, 1))


def test_check_design_names_the_fault():
    # NaN used to raise LinAlgError from the SVD, +-inf to report
    # collinear columns, and no column an IndexError.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="finite"):
            check_design([[1.0, 0.0], [1.0, bad]])
    for empty in (np.ones((3, 0)), [[]]):
        with pytest.raises(InputError, match="at least one column"):
            check_design(empty)
    with pytest.raises(InputError, match="2-d"):
        check_design([1.0, 1.0])
    # No row used to report collinear columns.
    for empty in (np.ones((0, 2)), np.ones((0, 1))):
        with pytest.raises(InputError, match="no rows"):
            check_design(empty)


def test_gradient_vanishes_at_solution():
    rng = np.random.default_rng(5)
    x = np.column_stack([np.ones(400), rng.integers(0, 2, 400), rng.integers(0, 2, 400)])
    eta = -0.5 + 0.8 * x[:, 1] - 0.3 * x[:, 2]
    y = (rng.random(400) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    fit = fit_logistic(x, y)
    assert fit.converged
    mu = 1.0 / (1.0 + np.exp(-(x @ fit.coefficients)))
    assert np.max(np.abs(x.T @ (y - mu))) < 1e-6


def test_saturated_design_reproduces_empirical_rates():
    # Full 2x2 factorial with interaction is saturated: fitted cell
    # probabilities must equal the empirical event rates.
    rng = np.random.default_rng(21)
    f1 = rng.integers(0, 2, 600)
    f2 = rng.integers(0, 2, 600)
    x = np.column_stack([np.ones(600), f1, f2, f1 * f2])
    y = (rng.random(600) < 0.2 + 0.2 * f1 + 0.15 * f2 + 0.1 * f1 * f2).astype(float)
    fit = fit_logistic(x, y)
    assert fit.converged
    mu = 1.0 / (1.0 + np.exp(-(x @ fit.coefficients)))
    for a in (0, 1):
        for b in (0, 1):
            cell = (f1 == a) & (f2 == b)
            assert mu[cell][0] == pytest.approx(y[cell].mean(), abs=1e-6)


def test_grouped_fit_matches_row_level_fit():
    x, y = _two_group_design(120, 30, 80, 50)
    row_fit = fit_logistic(x, y)
    grouped = reference_kernels.irls(
        check_design([[1.0, 0.0], [1.0, 1.0]]), np.array([30.0, 50.0]), np.array([120.0, 80.0])
    )
    np.testing.assert_allclose(row_fit.coefficients, grouped.coefficients, atol=1e-12)
    assert row_fit.log_likelihood == pytest.approx(grouped.log_likelihood, abs=1e-9)


def test_stratify_checks_the_design_the_fit_trusts():
    rows = np.array([[1.0, 0.0], [1.0, 1.0]])
    events, trials = np.array([30.0, 50.0]), np.array([120.0, 80.0])
    faults = {"intercept": 2.0 * rows, "collinear": [[1.0, 0.0], [1.0, 0.0]], "finite": [[1.0, np.nan]]}
    for reason, bad in faults.items():
        with pytest.raises(InputError, match=reason):
            stratify(bad, (0, 0))
    strata = stratify(rows, (0, 0))
    rows[1, 1] = 2.0  # the map holds its own copy of what it reads
    assert strata == stratify(check_design([[1.0, 0.0], [1.0, 1.0]]), [0, 0])
    assert fit_logistic_counts(strata, events.tolist(), trials.tolist()).converged


def test_counts_that_do_not_align_with_the_design_rows_are_rejected():
    # zip would stop at the shorter of the map and the table: a longer table
    # would fit its first rows, and a nested one would fail with a TypeError
    strata = stratify([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]], (0, 0, 0))
    events, trials = [30.0, 20.0, 50.0], [120.0, 60.0, 80.0]
    fit = fit_logistic_counts(strata, events, trials)
    assert fit.converged and type(fit.log_likelihood) is float
    # list(array) holds numpy scalars: the fit is the same, and its
    # log-likelihood a float, not the numpy.float64 it used to be
    scalars = fit_logistic_counts(strata, list(np.array(events)), list(np.array(trials)))
    assert type(scalars.log_likelihood) is float and scalars.log_likelihood == fit.log_likelihood
    np.testing.assert_array_equal(scalars.coefficients, fit.coefficients, strict=True)
    for bad_events, bad_trials in (
        (events[:2], trials[:2]),
        (events + [1.0], trials + [2.0]),
        (events[:2], trials),
        (events, trials + [2.0]),
        ([events], [trials]),  # the table as one 2-d row
        (events, [trials]),
        # an array used to fit, to a numpy.float64 log-likelihood
        (np.array(events), trials),
        (events, np.array(trials)),
        (np.array([events]).T, trials),
    ):
        with pytest.raises(InputError, match="align"):
            fit_logistic_counts(strata, bad_events, bad_trials)
    # one-entry rows used to raise a TypeError from the profile pass
    for bad_events, bad_trials in (([[e] for e in events], trials), (events, [[n] for n in trials])):
        with pytest.raises(InputError, match="one number per design row"):
            fit_logistic_counts(strata, bad_events, bad_trials)


# -- likelihood-ratio tests -------------------------------------------------

def test_lr_identical_models():
    r = lr_test(-60.0, -60.0, 1)
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_lr_frozen_example():
    r = lr_test(-60.0, -63.0, 2)
    assert r.statistic == pytest.approx(6.0, abs=1e-12)
    assert r.p_value == pytest.approx(0.049787, abs=5e-4)
    assert r.p_value == chi_square_sf(6.0, 2)


def test_lr_near_tie_clamps_to_zero():
    r = lr_test(-60.0000001, -60.0, 1)
    assert r.statistic == 0.0
    assert r.p_value == 1.0
    r2 = lr_test(-60.0, -60.0000001, 1)
    assert r2.statistic < 1e-6
    assert r2.p_value > 0.999


def test_lr_inconsistent_fits_error():
    with pytest.raises(FittingError):
        lr_test(-61.0, -60.0, 1)


def test_lr_df_validation():
    with pytest.raises(InputError):
        lr_test(-60.0, -61.0, 0)
    with pytest.raises(InputError):  # a bool is not a df
        lr_test(-1.0, -3.0, True)


@pytest.mark.parametrize("df", [np.int64(2), np.uint8(1)], ids=repr)
def test_numpy_integer_df_is_a_df(df):
    # x = 1500 takes chi_square_sf's log-space branch, where a uint8 df's
    # own arithmetic would wrap.
    for x in (0.0, 3.0, 50.0, 1500.0):
        assert chi_square_sf(x, df) == chi_square_sf(x, int(df)), x
    assert lr_test(-1.0, -3.0, df) == lr_test(-1.0, -3.0, int(df))


@pytest.mark.parametrize("df", [True, np.bool_(True), 0, -1, 2.0], ids=repr)
def test_df_that_is_not_a_positive_integer_is_rejected(df):
    with pytest.raises(InputError, match="positive integer"):
        chi_square_sf(3.0, df)
    with pytest.raises(InputError, match="positive integer"):
        lr_test(-1.0, -3.0, df)


def test_lr_nan_log_likelihood_is_a_failed_fit(monkeypatch):
    # A NaN statistic used to give p = 0.0, a rejection.
    for full, reduced in ((np.nan, -5.0), (-5.0, np.nan), (np.nan, np.nan)):
        with pytest.raises(FittingError):
            lr_test(full, reduced, 1)
    # The final analysis flags such a replicate instead of rejecting on it.
    nan_fit = LogisticFit(np.zeros(4), np.nan, True, 1, False)
    monkeypatch.setattr(final_analysis, "fit_logistic_counts", lambda *args: nan_fit)
    table = np.array([[5.0, 9.0, 7.0, 12.0, 6.0, 11.0], [40.0] * 6])
    outcome = gatekeep_both_retained(table, 0.05)
    assert outcome.fit_failed
    assert outcome.rejected == frozenset()


@pytest.mark.parametrize("full, reduced", [(np.inf, -5.0), (-1.0, -np.inf), (3.0, -5.0), (-1.0, 2.0)])
def test_lr_impossible_log_likelihood_is_a_failed_fit(full, reduced):
    # A binary-outcome log-likelihood is finite and <= 0; these used to give
    # p = 0.0 or 6.3e-05, rejections.
    with pytest.raises(FittingError):
        lr_test(full, reduced, 1)


def test_lr_boundary_log_likelihoods_are_tests():
    # A perfect fit has log-likelihood exactly 0.
    r = lr_test(0.0, -5.0, 1)
    assert r.statistic == 10.0
    assert r.p_value == chi_square_sf(10.0, 1)
    assert lr_test(0.0, 0.0, 1).p_value == 1.0


def test_positive_log_likelihood_flags_the_replicate(monkeypatch):
    # The closed-form reduced models have negative log-likelihoods, so a
    # full fit reporting +3.0 used to reject every node on a spurious
    # statistic; the final analysis now flags the replicate instead.
    positive_fit = LogisticFit(np.zeros(4), 3.0, True, 1, False)
    monkeypatch.setattr(final_analysis, "fit_logistic_counts", lambda *args: positive_fit)
    table = np.array([[5.0, 9.0, 7.0, 12.0, 6.0, 11.0], [40.0] * 6])
    outcome = gatekeep_both_retained(table, 0.05)
    assert outcome.fit_failed
    assert outcome.rejected == frozenset()
    assert set(outcome.node_p_values.values()) == {1.0}


def test_lr_invariant_to_row_order():
    rng = np.random.default_rng(17)
    x, y = _two_group_design(90, 25, 110, 40)
    perm = rng.permutation(len(y))
    full_a = fit_logistic(x, y)
    full_b = fit_logistic(x[perm], y[perm])
    reduced_a = fit_logistic(x[:, :1], y)
    reduced_b = fit_logistic(x[perm][:, :1], y[perm])
    stat_a = lr_test(full_a.log_likelihood, reduced_a.log_likelihood, 1).statistic
    stat_b = lr_test(full_b.log_likelihood, reduced_b.log_likelihood, 1).statistic
    assert stat_a == pytest.approx(stat_b, abs=1e-9)


# Every covariate pattern of the three final-analysis designs.
_DESIGNS = (
    np.array([[1, a1, a2, b] for a1, a2 in ((0, 0), (1, 0), (0, 1)) for b in (0, 1)], dtype=float),
    np.array([[1, f, b] for f in (0, 1) for b in (0, 1)], dtype=float),
    np.array([[1, b] for b in (0, 1)], dtype=float),
)


# fit_logistic's designs: each branch's full model, an intercept alone and
# the 2 x 2 factorial with interaction, rows in np.unique's order, so that
# the grouped table's rows are the design's; whether each is saturated.
_FIT_DESIGNS = {
    "both_arms": (np.unique(_DESIGNS[0], axis=0), False),
    "one_arm": (_DESIGNS[1], False),
    "terminated": (_DESIGNS[2], True),
    "intercept": (np.ones((1, 1)), True),
    "interaction": (np.array([[1, a, b, a * b] for a in (0, 1) for b in (0, 1)], dtype=float), True),
}


def _subjects(rows, events, trials):
    """One design row and 0/1 outcome per subject of a count table, the
    rows shuffled."""
    x = np.repeat(rows, trials.astype(int), axis=0)
    y = np.concatenate([np.r_[np.ones(int(e)), np.zeros(int(n - e))] for e, n in zip(events, trials)])
    order = np.random.default_rng(int(trials.sum())).permutation(len(y))
    return x[order], y[order]


def _grouped_fit(rows, saturated, events, trials):
    """The engine's fit of a grouped table on distinct design rows: the
    closed form, coefficients solving the rows against the logits, or the
    profile fit on the rows' stratum map."""
    events, trials = events.tolist(), trials.tolist()
    if not saturated:
        return fit_logistic_counts(stratify(rows, reference_kernels.row_strata(rows)), events, trials)
    (log_likelihood,) = _saturated_pass((tuple((r,) for r in range(len(rows))),), events, trials)
    if math.isnan(log_likelihood):
        return LogisticFit(np.full(rows.shape[1], np.nan), math.nan, False, 0, True)
    logits = [math.log(e / (n - e)) for e, n in zip(events, trials)]
    return LogisticFit(np.linalg.solve(rows, logits), log_likelihood, True, 0, False)


def _random_table(rng, rows, kind="interior"):
    """Events and trials on ``rows``: interior, with a row at 0 or at all
    events, or separated, the events following the last column exactly."""
    trials = rng.integers(2, 120, size=len(rows)).astype(float)
    events = rng.binomial(trials.astype(int), rng.uniform(0.05, 0.95, size=len(rows))).astype(float)
    events = np.clip(events, 1.0, trials - 1.0)
    if kind == "boundary":
        row = int(rng.integers(len(rows)))
        events[row] = 0.0 if rng.random() < 0.5 else trials[row]
    elif kind == "separated":
        events = np.where(rows[:, -1] == 1.0, trials, 0.0)
    return events, trials


@pytest.mark.parametrize("name", list(_FIT_DESIGNS))
def test_fit_logistic_is_the_engine_fit_of_the_grouped_table(name):
    """On subject rows, ``fit_logistic`` is the closed form of a saturated
    design and the profile fit of a main-effects one on the grouped table,
    bit for bit, with or without an MLE."""
    rows, saturated = _FIT_DESIGNS[name]
    rng = np.random.default_rng(404)
    seen = set()
    for i in range(60):
        events, trials = _random_table(rng, rows, ("interior", "boundary", "separated")[i % 3])
        fit = fit_logistic(*_subjects(rows, events, trials))
        _assert_same_fit(fit, _grouped_fit(rows, saturated, events, trials))
        seen.add((fit.converged, fit.n_iterations == 0))
    # a closed form takes no Newton step; a separated table has no MLE
    assert seen == {(True, saturated), (False, True)}


@pytest.mark.parametrize("name", list(_FIT_DESIGNS))
def test_fit_logistic_agrees_with_irls_on_interior_tables(name):
    rows, _ = _FIT_DESIGNS[name]
    rng = np.random.default_rng(405)
    for _ in range(40):
        events, trials = _random_table(rng, rows)
        fit = fit_logistic(*_subjects(rows, events, trials))
        irls = reference_kernels.irls(check_design(rows), events, trials)
        assert fit.converged and irls.converged
        np.testing.assert_allclose(fit.coefficients, irls.coefficients, rtol=0, atol=1e-8)
        assert fit.log_likelihood == pytest.approx(irls.log_likelihood, rel=0, abs=1e-8)


def test_fit_logistic_rejects_a_design_of_neither_form():
    # three binary main effects over their 8 patterns: not saturated, and
    # the columns but the last make 4 strata for 3 intercepts
    rows = np.array([[1.0, a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    with pytest.raises(InputError, match="needs 3 strata, got 4"):
        fit_logistic(*_subjects(rows, np.full(8, 5.0), np.full(8, 10.0)))
    rows = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])  # a last column that is not 0/1
    with pytest.raises(InputError, match="0/1 indicator"):
        fit_logistic(*_subjects(rows, np.full(3, 5.0), np.full(3, 10.0)))


def test_fits_leave_the_error_state_as_they_found_it():
    # a closed form with a group at 0 events takes log(0); neither a fit
    # with an MLE nor one without may warn or leave the error state changed
    two, four = np.array([120.0, 80.0]), np.array([120.0, 80.0, 90.0, 100.0])
    cases = (
        ("terminated", [30.0, 50.0], two, True),
        ("terminated", [0.0, 50.0], two, False),
        ("one_arm", [30.0, 50.0, 20.0, 40.0], four, True),
        ("one_arm", [0.0, 0.0, 20.0, 40.0], four, False),  # a stratum at 0 events
    )
    before = np.geterr()
    for name, events, trials, has_mle in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_logistic(*_subjects(_FIT_DESIGNS[name][0], np.array(events), trials))
        assert fit.converged == has_mle, (name, events)
        assert np.geterr() == before
        assert np.geterrcall() is None


def test_fit_bits_do_not_depend_on_the_callers_memory_order():
    rng = np.random.default_rng(1313)
    for name in ("terminated", "one_arm", "interaction"):
        rows, _ = _FIT_DESIGNS[name]
        for _ in range(100):
            x, y = _subjects(rows, *_random_table(rng, rows))
            c_fit, f_fit = (fit_logistic(order(x), y) for order in (np.ascontiguousarray, np.asfortranarray))
            _assert_same_fit(c_fit, f_fit)


@pytest.mark.parametrize(
    "events, trials",
    [
        ([np.nan, 5.0], [10.0, 10.0]),
        ([3.0, 5.0], [np.inf, 10.0]),
        ([np.inf, 5.0], [np.inf, 10.0]),
        ([3.0, 5.0], [np.nan, 10.0]),
        ([3.0, 5.0], [-np.inf, 10.0]),
    ],
)
def test_non_finite_counts_are_rejected(events, trials):
    rows = check_design([[1.0, 0.0], [1.0, 1.0]])
    strata = stratify(rows, (0, 0))
    with pytest.raises(InputError):  # the check fit_logistic and the final analysis make
        _check_table(events, trials, 2)
    with pytest.raises(InputError):  # the profile pass's
        fit_logistic_counts(strata, events, trials)
    # the both-arms pattern table: its first two patterns carry the counts
    table = np.full((2, 6), 10.0)
    table[0] = 5.0
    table[:, :2] = [events, trials]
    with pytest.raises(InputError):
        gatekeep_both_retained(table, 0.05)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_outcomes_are_rejected(bad):
    x, y = _two_group_design(20, 5, 20, 10)
    y[3] = bad
    with pytest.raises(InputError):
        fit_logistic(x, y)


def test_loglik_softplus_bit_identical_to_sign_branches():
    rng = np.random.default_rng(11)
    specials = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, 36.0, -36.0, 709.0, -745.0, 1e300, -1e300])
    for _ in range(200):
        n = int(rng.integers(1, 9))
        eta = np.concatenate([rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 3), rng.choice(specials, 2)])
        trials = rng.integers(1, 300, size=eta.size).astype(float)
        events = np.floor(trials * rng.random(eta.size))
        with np.errstate(over="ignore"):  # the branch np.where discards overflows
            softplus = np.where(eta > 0, eta + np.log1p(np.exp(-np.abs(eta))), np.log1p(np.exp(eta)))
        assert reference_kernels.bernoulli_loglik(eta, events, trials) == float(np.sum(events * eta - trials * softplus))


# -- the profile path: one intercept per stratum and a common log odds ratio --

# Each row's stratum in the _DESIGNS layouts (its value of every column but
# the last, b1), and the both-arms layout's H05 and H06 models, whose strata
# pool two arms.
_STRATA = ((0, 0, 1, 1, 2, 2), (0, 0, 1, 1), (0, 0))
_POOLED = (((0, 2, 3), (0, 0, 0, 0, 1, 1)), ((0, 1, 3), (0, 0, 1, 1, 0, 0)))
_LAYOUTS = tuple(zip(_DESIGNS, _STRATA)) + tuple((_DESIGNS[0][:, list(cols)], s) for cols, s in _POOLED)


def _root_branches(strata, x, events, trials, theta):
    """The sign of each stratum's linear coefficient (n0 - E) + psi (n1 - E)
    at the fitted odds ratio psi: which form of the stable root it takes."""
    signs = set()
    for s in set(strata):
        rows = [i for i, r in enumerate(strata) if r == s]
        n0, n1 = (sum(trials[i] for i in rows if x[i, -1] == b) for b in (0.0, 1.0))
        total_events = sum(events[i] for i in rows)
        signs.add((n0 - total_events) + math.exp(theta) * (n1 - total_events) > 0.0)
    return signs


def _assert_same_fit(fit, other):
    np.testing.assert_array_equal(fit.coefficients, other.coefficients, strict=True)  # nan where nan
    both_nan = math.isnan(fit.log_likelihood) and math.isnan(other.log_likelihood)
    assert fit.log_likelihood == other.log_likelihood or both_nan
    assert fit[2:] == other[2:]


def _assert_no_mle(fit, k):
    """The failed fit of a table without a finite MLE."""
    assert fit.coefficients.shape == (k,) and np.isnan(fit.coefficients).all()
    assert math.isnan(fit.log_likelihood)
    assert (fit.converged, fit.diverged) == (False, True)


def _profile_fit(rows, events, trials, strata):
    """``stats._profile_fit`` on design rows, counts and row labels."""
    return stats._profile_fit(stratify(rows, strata), events.tolist(), trials.tolist(), rows.shape[1])


def _check_profile_against_irls(x, strata, events, trials) -> tuple[bool, set]:
    """Assert that the fit given the strata has an MLE exactly where IRLS
    converges, and agrees with IRLS there; elsewhere it is the failed fit.
    On every table the fit is ``_profile_fit``'s and its numpy form's, bit
    for bit. Return whether the table has an MLE and the root forms its
    fit took."""
    rows = check_design(x)
    stratum_map = stratify(rows, strata)
    irls = reference_kernels.irls(rows, events, trials)
    fit = fit_logistic_counts(stratum_map, events.tolist(), trials.tolist())
    _assert_same_fit(fit, reference_kernels.fit(rows, events, trials, strata))
    _assert_same_fit(fit, stats._profile_fit(stratum_map, events.tolist(), trials.tolist(), rows.shape[1]))
    assert (fit.converged, fit.diverged) == (irls.converged, irls.diverged)
    if not fit.converged:
        _assert_no_mle(fit, rows.shape[1])
        return False, set()
    assert fit.log_likelihood == pytest.approx(irls.log_likelihood, rel=1e-12, abs=0)
    np.testing.assert_allclose(fit.coefficients, irls.coefficients, rtol=0, atol=1e-8)
    return True, _root_branches(strata, rows, events, trials, fit.coefficients[-1])


@pytest.mark.parametrize("layout", range(len(_LAYOUTS)))
def test_profile_fit_matches_irls_on_every_small_table(layout):
    """Every table of the layout with 1 to 3 trials per row (1 or 2 for the
    six-row layouts): the rule finds an MLE exactly where IRLS converges,
    and the fit has its log-likelihood and coefficients. Every interior
    table has an MLE; boundary tables, with a row at 0 or at all events,
    are reached both with and without one wherever the layout has two
    strata or more. With one stratum, a 2 x 2 table with a cell at 0 has
    none."""
    x, strata = _LAYOUTS[layout]
    sizes = (1, 2) if len(x) == 6 else (1, 2, 3)
    cells = [(n, e) for n in sizes for e in range(n + 1)]
    seen = collections.Counter()
    for table in itertools.product(cells, repeat=len(x)):
        trials, events = (np.array(column, dtype=float) for column in zip(*table))
        has_mle, _ = _check_profile_against_irls(x, strata, events, trials)
        seen[bool(((events > 0.0) & (events < trials)).all()), has_mle] += 1
    assert seen[True, False] == 0
    assert seen[True, True] == {6: 1, 4: 3**4, 2: 3**2}[len(x)]
    assert seen[False, False] > 0
    assert (seen[False, True] > 0) == (len(set(strata)) > 1)
    assert sum(seen.values()) == len(cells) ** len(x)


def test_profile_fit_matches_irls_on_large_interior_tables():
    """Random interior tables with up to 1e9 trials per row, on every
    layout the final analysis fits with strata: both forms of the stable
    root are reached."""
    rng = np.random.default_rng(2026)
    branches = set()
    for x, strata in _LAYOUTS:
        for _ in range(150):
            trials = np.floor(10.0 ** rng.uniform(0.5, 9.0, size=len(x))).clip(2.0)
            events = np.floor(trials * rng.uniform(0.05, 0.95, size=len(x))).clip(1.0, trials - 1.0)
            branches |= _check_profile_against_irls(x, strata, events, trials)[1]
    assert branches == {True, False}


def test_profile_fit_is_the_mle_where_irls_runs_away():
    """Event rates down to 1e-9 with up to 1e9 trials. Every interior table
    here has a profile fit or IRLS's divergence. Where the two verdicts
    differ, IRLS's Newton steps overshot past the divergence bound from
    zero on a table whose maximum is finite: the profile fit's score
    vanishes there and its coefficients lie within the bound."""
    rng = np.random.default_rng(77)
    verdicts = collections.Counter()
    for x, strata in _LAYOUTS:
        rows = check_design(x)
        stratum_map = stratify(rows, strata)
        for _ in range(300):
            trials = np.floor(10.0 ** rng.uniform(0.5, 9.0, size=len(x))).clip(2.0)
            events = np.floor(trials * 10.0 ** rng.uniform(-9.0, 0.0, size=len(x))).clip(1.0, trials - 1.0)
            irls = reference_kernels.irls(rows, events, trials)
            fit = fit_logistic_counts(stratum_map, events.tolist(), trials.tolist())
            _assert_same_fit(fit, reference_kernels.fit(rows, events, trials, strata))
            verdicts[irls.converged, fit.converged] += 1
            if not fit.converged:  # no finite maximum within the bound
                assert irls.diverged
                _assert_no_mle(fit, x.shape[1])
                continue
            mu = 1.0 / (1.0 + np.exp(-(rows @ fit.coefficients)))
            assert np.abs(rows.T @ (events - trials * mu)).max() <= 1e-9 * trials.sum()
            assert np.abs(fit.coefficients).max() <= _DIVERGE_BOUND
            if irls.converged:
                assert fit.log_likelihood == pytest.approx(irls.log_likelihood, rel=1e-12, abs=0)
    assert verdicts[True, True] > 0 and verdicts[False, False] > 0
    assert verdicts[True, False] == 0


def test_profile_newton_that_does_not_converge_is_a_failed_fit(monkeypatch):
    rows = check_design(_DESIGNS[0])
    events = np.array([12.0, 30.0, 25.0, 41.0, 9.0, 33.0])
    trials = np.array([80.0, 95.0, 70.0, 90.0, 60.0, 88.0])
    assert _profile_fit(rows, events, trials, _STRATA[0]).n_iterations > 1
    monkeypatch.setattr(stats, "NEWTON_MAX_ITER", 1)
    fit = fit_logistic_counts(stratify(rows, _STRATA[0]), events.tolist(), trials.tolist())
    _assert_no_mle(fit, 4)
    assert fit.n_iterations == 1
    _assert_same_fit(fit, _profile_fit(rows, events, trials, _STRATA[0]))
