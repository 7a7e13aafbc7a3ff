"""The final analysis's fit arithmetic in its numpy form, kept as the oracle
that the engine's Python-float form must match bit for bit:

* ``profile_fit``: the profile Newton fit of one intercept per stratum and
  a common log odds ratio, on arrays, with the rule that decides whether
  its MLE exists written apart, each stratum's odds from a function of its
  own and the intercepts mapped back to the design's columns by a LAPACK
  solve on every fit;
* ``saturated_pass``: every saturated model's closed-form log-likelihood by
  ``np.bincount`` over the table's rows tiled once per model, with the
  groupings stacked per branch (``saturated_groups``);
* ``fit_plan``: the plan of a model's rows by ``np.unique``.

``irls`` is the textbook IRLS Newton loop on a grouped table, which the
package does not run: the independent reference that the profile fit and
the closed forms are checked against.

Not a test module: the test files import it.
"""

import math

import numpy as np

from fast_trials.stats import NEWTON_MAX_ITER, NEWTON_TOL, LogisticFit, _DIVERGE_BOUND, _check_table, stratify


def stratum_odds(psi, events_s, non_events, lin0, lin1):
    lin = lin0 + psi * lin1
    root = math.sqrt(lin * lin + 4.0 * psi * non_events * events_s)
    return (root - lin) / (2.0 * psi * non_events) if lin <= 0.0 else 2.0 * events_s / (lin + root)


def profile_fit(x, events, trials, strata):
    """The profile fit on design rows ``x`` with each row's stratum label:
    the MLE where the existence rule holds, else the failed fit; None where
    the table fails its check."""
    events = np.asarray(events, dtype=float)
    trials = np.asarray(trials, dtype=float)
    cells = {}  # stratum -> [e0, f0, e1, f1]
    first = []  # each stratum's first row
    for row, (s, b, e, n) in enumerate(zip(strata, x[:, -1].tolist(), events.tolist(), trials.tolist())):
        if not 0.0 <= e <= n:
            return None
        if s not in cells:
            cells[s] = [0.0, 0.0, 0.0, 0.0]
            first.append(row)
        cell = cells[s]
        j = 2 if b else 0
        cell[j] += e
        cell[j + 1] += n - e
    if not x.shape[1] <= trials.sum() < math.inf:
        return None
    failed = LogisticFit(np.full(x.shape[1], np.nan), math.nan, False, 0, True)
    num = den = 0.0
    terms = []
    for e0, f0, e1, f1 in cells.values():
        n0, n1 = e0 + f0, e1 + f1
        events_s = e0 + e1
        if events_s == 0.0 or events_s == n0 + n1:  # a stratum at 0 or at all events
            return failed
        num += e1 * f0 / (n0 + n1)
        den += e0 * f1 / (n0 + n1)
        terms.append((events_s, f0 + f1, n0 - events_s, n1 - events_s, e0, f0, e1, f1))
    if num == 0.0 or den == 0.0:  # theta runs off to +-inf
        return failed
    low, high = -_DIVERGE_BOUND, _DIVERGE_BOUND
    theta = min(max(math.log(num / den), low), high)
    for n_iter in range(1, NEWTON_MAX_ITER + 1):
        psi = math.exp(theta)
        score = info = 0.0
        for events_s, non_events, lin0, lin1, e0, f0, e1, f1 in terms:
            odds0 = stratum_odds(psi, events_s, non_events, lin0, lin1)
            odds1 = odds0 * psi
            q0, q1 = 1.0 / (1.0 + odds0), 1.0 / (1.0 + odds1)
            p0, p1 = odds0 * q0, odds1 * q1
            v0, v1 = (e0 + f0) * p0 * q0, (e1 + f1) * p1 * q1
            w = 1.0 / (v0 + v1)
            score += (v0 * (e1 * q1 - f1 * p1) - v1 * (e0 * q0 - f0 * p0)) * w
            info += v0 * v1 * w
        if score > 0.0:
            low = theta
        elif score < 0.0:
            high = theta
        step = score / info
        if not low <= theta + step <= high:
            theta = 0.5 * (low + high)
        elif -NEWTON_TOL < step < NEWTON_TOL:
            theta += step
            break
        else:
            theta += step
    else:
        return failed._replace(n_iterations=n_iter)
    psi = math.exp(theta)
    alpha = []
    log_likelihood = 0.0
    for events_s, non_events, lin0, lin1, e0, f0, e1, f1 in terms:
        odds0 = stratum_odds(psi, events_s, non_events, lin0, lin1)
        alpha.append(math.log(odds0))
        log_likelihood += (
            events_s * alpha[-1] + e1 * theta - (e0 + f0) * math.log1p(odds0) - (e1 + f1) * math.log1p(odds0 * psi)
        )
    beta = np.empty(x.shape[1])
    beta[:-1] = np.linalg.solve(x[:, :-1].take(first, axis=0), np.array(alpha))
    beta[-1] = theta
    coefficients = beta.tolist()
    if max(coefficients) > _DIVERGE_BOUND or min(coefficients) < -_DIVERGE_BOUND:
        return failed._replace(n_iterations=n_iter)
    return LogisticFit(beta, log_likelihood, True, n_iter, False)


def bernoulli_loglik(eta, events, trials):
    """sum_i [y_i eta_i - log(1 + exp(eta_i))], grouped; softplus kept
    stable as max(eta, 0) + log1p(exp(-|eta|)), the same bits as branching
    on the sign of eta (log1p(exp(eta)) below zero)."""
    softplus = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
    return float((events * eta - trials * softplus).sum())


def irls(rows, events, trials):
    """The textbook IRLS loop from beta = 0 on checked design rows
    (``check_design``) and a count table, after the table check: a step
    below ``NEWTON_TOL`` converges; a singular step, or a coefficient past
    the divergence bound, diverges. On some tables with rates near 1e-9 and
    1e9 trials it overshoots a bound the MLE is within."""
    events = np.asarray(events, dtype=float)
    trials = np.asarray(trials, dtype=float)
    _check_table(events.tolist(), trials.tolist(), rows.shape[1])
    beta = np.zeros(rows.shape[1])
    converged = False
    diverged = False
    n_iter = 0
    for n_iter in range(1, NEWTON_MAX_ITER + 1):
        eta = rows @ beta
        mu = 1.0 / (1.0 + np.exp(-eta))
        w = trials * mu * (1.0 - mu)
        grad = rows.T @ (events - trials * mu)
        hess = (rows * w[:, None]).T @ rows
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            diverged = True
            break
        beta = beta + step
        if np.max(np.abs(beta)) > _DIVERGE_BOUND:
            diverged = True
            break
        if np.max(np.abs(step)) < NEWTON_TOL:
            converged = True
            break
    loglik = bernoulli_loglik(rows @ beta, events, trials)
    return LogisticFit(beta, loglik, converged and not diverged, n_iter, diverged)


def fit(rows, events, trials, strata):
    """``fit_logistic_counts`` on the stratum map of checked design rows and
    their labels: the profile fit above, or the table check's error on a
    table that fails it."""
    return profile_fit(rows, events, trials, strata) or irls(rows, events, trials)


def row_strata(rows):
    """Each row's stratum label, its values of every column but the last."""
    _, inverse = np.unique(rows[:, :-1], axis=0, return_inverse=True)
    return tuple(inverse.reshape(-1).tolist())


def fit_plan(rows):
    """``stats._fit_plan`` by ``np.unique``: a saturated design's groups of
    equal rows, in the sorted order of the distinct rows, else the stratum
    map of ``row_strata``'s labels."""
    distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
    if len(distinct) == rows.shape[1]:
        of_row = inverse.reshape(-1).tolist()
        return tuple(tuple(r for r, g in enumerate(of_row) if g == group) for group in range(len(distinct)))
    return stratify(rows, row_strata(rows))


def saturated_groups(designs):
    """The stacked groupings of the saturated designs' rows, in order: tiled
    row j falls in stacked group ``groups[j]``, which belongs to model
    ``owner[g]``."""
    groups, owner = [], []
    for rows in designs:
        distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
        groups.append(inverse.reshape(-1) + len(owner))
        owner += [len(groups) - 1] * len(distinct)
    return np.concatenate(groups), np.array(owner, dtype=np.intp)


def saturated_pass(groups, owner, events, trials):
    """Each saturated model's closed-form log-likelihood, nan at a boundary
    group."""
    size = len(owner)
    tiles = len(groups) // len(events)
    e = np.bincount(groups, weights=np.concatenate((events,) * tiles), minlength=size)
    n = np.bincount(groups, weights=np.concatenate((trials,) * tiles), minlength=size)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = e / n
        return np.bincount(owner, weights=e * np.log(p) + (n - e) * np.log1p(-p))
