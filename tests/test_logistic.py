"""Logistic-regression fitting: closed-form checks on contingency tables,
degenerate/separated data handling, likelihood-ratio test behavior, and bit
identity of the IRLS loop with the textbook Newton step it replaced."""

import numpy as np
import pytest

from fast_trials.stats import (
    _DIVERGE_BOUND,
    IRLS_MAX_ITER,
    IRLS_TOL,
    FittingError,
    InputError,
    _bernoulli_loglik,
    _solve,
    chi_square_sf,
    fit_logistic,
    fit_logistic_counts,
    lr_test,
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
    grouped = fit_logistic_counts(
        np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([30.0, 50.0]), np.array([120.0, 80.0])
    )
    np.testing.assert_allclose(row_fit.coefficients, grouped.coefficients, atol=1e-12)
    assert row_fit.log_likelihood == pytest.approx(grouped.log_likelihood, abs=1e-9)


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


# -- bit identity of the Newton loop ------------------------------------------

def _reference_irls(x, events, trials):
    """The IRLS loop before its lean rewrite: (coefficients, log-likelihood,
    n_iterations, converged, diverged)."""
    k = x.shape[1]
    beta = np.zeros(k)
    converged = False
    diverged = False
    n_iter = 0
    for n_iter in range(1, IRLS_MAX_ITER + 1):
        eta = x @ beta
        mu = 1.0 / (1.0 + np.exp(-eta))
        w = trials * mu * (1.0 - mu)
        grad = x.T @ (events - trials * mu)
        hess = (x * w[:, None]).T @ x
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            diverged = True
            break
        beta = beta + step
        if np.max(np.abs(beta)) > _DIVERGE_BOUND:
            diverged = True
            break
        if np.max(np.abs(step)) < IRLS_TOL:
            converged = True
            break
    loglik = _bernoulli_loglik(x @ beta, events, trials)
    return beta, loglik, n_iter, converged and not diverged, diverged


# Every covariate pattern of the three final-analysis designs.
_DESIGNS = (
    np.array([[1, a1, a2, b] for a1, a2 in ((0, 0), (1, 0), (0, 1)) for b in (0, 1)], dtype=float),
    np.array([[1, f, b] for f in (0, 1) for b in (0, 1)], dtype=float),
    np.array([[1, b] for b in (0, 1)], dtype=float),
)


def _irls_tables(kind, rng):
    for x in _DESIGNS:
        for _ in range(40):
            trials = rng.integers(1, 200, size=len(x)).astype(float)
            events = rng.binomial(trials.astype(int), rng.uniform(0.05, 0.95, size=len(x))).astype(float)
            if kind == "interior":
                trials = np.maximum(trials, 2.0)
                events = np.clip(events, 1.0, trials - 1.0)
            elif kind == "boundary":
                row = int(rng.integers(len(x)))
                events[row] = 0.0 if rng.random() < 0.5 else trials[row]
            else:  # separated: the events follow the last covariate exactly
                events = np.where(x[:, -1] == 1.0, trials, 0.0)
            yield x, events, trials


@pytest.mark.parametrize("kind", ["interior", "boundary", "separated"])
def test_irls_bit_identical_to_reference_loop(kind):
    seen = set()
    for x, events, trials in _irls_tables(kind, np.random.default_rng(5)):
        fit = fit_logistic_counts(x, events, trials)
        beta, loglik, n_iter, converged, diverged = _reference_irls(x, events, trials)
        np.testing.assert_array_equal(fit.coefficients, beta, strict=True)
        assert fit.log_likelihood == loglik
        assert (fit.n_iterations, fit.converged, fit.diverged) == (n_iter, converged, diverged)
        seen.add((converged, diverged))
    # Interior tables converge; separated ones diverge; boundary ones reach both.
    expected = {"interior": {(True, False)}, "separated": {(False, True)}, "boundary": {(True, False), (False, True)}}
    assert seen == expected[kind]


def test_solve_matches_numpy_and_raises_on_singular():
    rng = np.random.default_rng(17)
    for k in (1, 2, 3, 4):
        for _ in range(50):
            m = rng.standard_normal((k, k))
            a, b = m @ m.T + 1e-3 * np.eye(k), rng.standard_normal(k)
            np.testing.assert_array_equal(_solve(a, b), np.linalg.solve(a, b), strict=True)
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(np.linalg.LinAlgError):
        _solve(singular, np.ones(2))
    assert np.geterrcall() is None  # the error state is restored


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
        assert _bernoulli_loglik(eta, events, trials) == float(np.sum(events * eta - trials * softplus))
