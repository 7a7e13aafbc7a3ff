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
    lr_test,
    normal_cdf,
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

print("\n== logistic regression by IRLS ==")
# two groups: 20/100 vs 30/100 events; coefficients have a closed form
x = np.ones((200, 2))
x[:, 1] = np.r_[np.zeros(100), np.ones(100)]
y = np.r_[np.ones(20), np.zeros(80), np.ones(30), np.zeros(70)]
fit = fit_logistic(x, y)
print(f"beta = {fit.coefficients.round(6)}  (closed form: [ln(20/80), ln(12/7)] = [-1.386294, 0.538997])")
print(f"converged in {fit.n_iterations} iterations, log-likelihood {fit.log_likelihood:.3f}")

print("\n== nested-model likelihood-ratio test ==")
reduced = fit_logistic(x[:, :1], y)
test = lr_test(fit.log_likelihood, reduced.log_likelihood, 1)
print(f"LR statistic = {test.statistic:.4f} on {test.df:.0f} df, p = {test.p_value:.5f}")

print("\n== degenerate data never crash the kernel ==")
flat = welch_t_test([5.0, 5.0, 5.0], [5.0, 5.0])
print(f"zero-variance samples: p = {flat.p_value}, degenerate flag = {flat.degenerate}")
separated = fit_logistic(np.ones((30, 1)), np.zeros(30))
print(f"all-zero outcomes: converged={separated.converged}, diverged={separated.diverged}")
