#!/usr/bin/env python3
"""Tour of the statistical kernel: distribution tails, Welch t-tests,
logistic fits, and likelihood-ratio tests.

Run:  python demos/01_statistical_kernel.py
"""

import numpy as np

from fast_trials.stats import (
    Tail,
    chi_square_sf,
    fit_logistic,
    fit_logistic_counts,
    lr_test,
    normal_cdf,
    stratify,
    t_sf,
    welch_t_test,
)

print("== distribution tails (computed from scratch, no stats library) ==")
print(f"normal_cdf(1.959964)     = {normal_cdf(1.959964):.6f}   (the 97.5% point)")
print(f"t_sf(2.306, df=8)        = {t_sf(2.306, 8):.6f}   (t table: 0.025)")
print(f"chi_square_sf(3.841, 1)  = {chi_square_sf(3.841, 1):.6f}   (chi-square table: 0.05)")

print("\n== Welch two-sample t-test ==")
rng = np.random.default_rng(1)
treated = rng.normal(8.0, 10.0, 60)
control = rng.normal(0.0, 12.0, 55)
r = welch_t_test(treated, control, Tail.TWO_SIDED)
print(f"t = {r.statistic:.3f}, df = {r.df:.1f} (fractional: unequal variances), p = {r.p_value:.5f}")
one_sided = welch_t_test(treated, control, Tail.UPPER)
print(f"one-sided (treated > control): p = {one_sided.p_value:.5f}")

print("\n== logistic regression (fit_logistic) ==")
# two groups: 20/100 vs 30/100 events. The design has as many distinct rows
# as columns, so it is saturated: fit_logistic takes its closed form, each
# group's event proportion, and solves the rows against the groups' logits.
x = np.ones((200, 2))
x[:, 1] = np.r_[np.zeros(100), np.ones(100)]
y = np.r_[np.ones(20), np.zeros(80), np.ones(30), np.zeros(70)]
fit = fit_logistic(x, y)
print(f"beta = {fit.coefficients.round(6)}  (closed form: [ln(20/80), ln(12/7)] = [-1.386294, 0.538997])")
print(f"{fit.n_iterations} Newton steps, log-likelihood {fit.log_likelihood:.3f}")

print("\n== the final analysis's main-effects fit: a common odds ratio over strata ==")
# logit p = alpha_s + theta * b1, one intercept per domain-A stratum: the
# one-arm full model, on grouped counts. stratify checks the design and maps
# each row to its stratum once; the fit takes that map: a rule decides
# whether the MLE exists (every stratum strictly between 0 and all events,
# and a positive Mantel-Haenszel numerator and denominator), and profile
# Newton on theta from the Mantel-Haenszel estimate finds it, on rows at 0
# or at all events too. The counts are float lists, one entry per design
# row. Given the same 385 subjects, one row each, fit_logistic groups them
# by covariate pattern and runs the same profile fit on their stratum map.
rows = [[1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]]  # intercept, fluid_pooled, b1
strata = stratify(rows, (0, 0, 1, 1))
events = [40.0, 52.0, 35.0, 50.0]
trials = [100.0, 100.0, 90.0, 95.0]
profile = fit_logistic_counts(strata, events, trials)
subjects = np.repeat(rows, [int(n) for n in trials], axis=0)
outcomes = np.concatenate([np.r_[np.ones(int(e)), np.zeros(int(n - e))] for e, n in zip(events, trials)])
grouped = fit_logistic(subjects, outcomes)
print(f"profile Newton: theta = {profile.coefficients[-1]:.6f} in {profile.n_iterations} steps")
same = grouped.log_likelihood == profile.log_likelihood and np.array_equal(grouped.coefficients, profile.coefficients)
print(f"fit_logistic on {len(outcomes)} subjects: theta = {grouped.coefficients[-1]:.6f}, bit for bit the same: {same}")
zero_row = fit_logistic_counts(strata, [0.0, 52.0, 35.0, 50.0], trials)
print(f"a row at 0 events: converged={zero_row.converged}, theta = {zero_row.coefficients[-1]:.6f}")
no_mle = fit_logistic_counts(strata, [0.0, 0.0, 35.0, 50.0], trials)
print(f"a stratum at 0 events: converged={no_mle.converged}, log-likelihood {no_mle.log_likelihood}")

print("\n== nested-model likelihood-ratio test ==")
reduced = fit_logistic(x[:, :1], y)
test = lr_test(fit.log_likelihood, reduced.log_likelihood, 1)
print(f"LR statistic = {test.statistic:.4f} on {test.df:.0f} df, p = {test.p_value:.5f}")

print("\n== degenerate data never crash the kernel ==")
flat = welch_t_test([5.0, 5.0, 5.0], [5.0, 5.0])
print(f"zero-variance samples: p = {flat.p_value}, degenerate flag = {flat.degenerate}")
separated = fit_logistic(np.ones((30, 1)), np.zeros(30))
print(f"all-zero outcomes: converged={separated.converged}, diverged={separated.diverged}")
