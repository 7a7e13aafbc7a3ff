"""Statistical kernel: distribution functions, two-sample t-tests, logistic
regression, and nested-model likelihood-ratio tests.

Distribution tails are computed from scratch, so the kernel has no runtime
dependency on a stats library: the normal CDF and the chi-square tail (at
integer df) in closed form, as erfc plus a finite sum of exp terms, and the
t tail from the regularized incomplete beta (Lentz continued fraction).
Everything here is a pure function of its inputs; random draws go through an
explicit ``numpy.random.Generator`` owned by the caller.

The Welch test computes each sample's mean and ddof=1 variance in one
helper with numpy's own two-pass arithmetic (pairwise sum / n, then the
pairwise sum of squared deviations / (n - 1)), so the moments equal
``mean()`` and ``var(ddof=1)`` bit for bit at a fraction of their per-call
cost; the result carries the two means. ``check_design`` checks a logistic
design (2-d, intercept, full rank) into a read-only ``Design`` with its row
grouping and whether it is saturated; ``fit_logistic_counts`` takes only a
``Design``, which it trusts, and the final analysis fits saturated models
from it in closed form. The IRLS Newton
loop forms the same products in the same memory order as the textbook
step, so its iterates and iteration count are unchanged. On arrays of a
few rows numpy's per-call cost outweighs the arithmetic, so the loop pays
it once where it can: one error state per fit around every iteration, mu
from in-place unary ufuncs with the same IEEE results, and the divergence
and convergence tests on Python floats. A fit carries its coefficients,
log-likelihood and convergence flags; the final analysis reads only the
last two. A count table must be finite, with events in [0, trials].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "Tail",
    "TestResult",
    "LogisticFit",
    "InputError",
    "FittingError",
    "normal_cdf",
    "t_sf",
    "chi_square_sf",
    "welch_t_test",
    "fit_logistic",
    "Design",
    "check_design",
    "fit_logistic_counts",
    "lr_test",
]

_EPS = 1e-14
_FPMIN = 1e-300
_MAX_CF_ITER = 500
_SQRT2 = math.sqrt(2.0)
_HALF_SQRT_PI = 0.5 * math.sqrt(math.pi)  # Gamma(3/2)

IRLS_TOL = 1e-10
IRLS_MAX_ITER = 50
_DIVERGE_BOUND = 30.0  # |coef| beyond this is numerically certain separation


class InputError(ValueError):
    """Raised when an argument violates an operation's preconditions."""


class FittingError(RuntimeError):
    """Raised when model fits are inconsistent (e.g. a 'full' model with a
    lower log-likelihood than its nested reduction)."""


class Tail(str, Enum):
    TWO_SIDED = "two_sided"
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class TestResult:
    """Outcome of a single hypothesis test."""

    statistic: float
    df: float
    p_value: float
    tail: Tail
    degenerate: bool = False  # both samples had zero variance
    means: Optional[tuple] = None  # a two-sample test's (mean of a, mean of b)


class LogisticFit(NamedTuple):
    """Maximum-likelihood fit of a binary-outcome logistic model."""

    coefficients: np.ndarray
    log_likelihood: float
    converged: bool
    n_iterations: int
    diverged: bool  # coefficient escaped toward +-inf (separation)


# ---------------------------------------------------------------------------
# regularized incomplete beta
# ---------------------------------------------------------------------------

def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz). Term m
    takes two half-steps, even then odd, written out in turn; a partial
    value within _FPMIN of zero is moved to _FPMIN (never for a NaN)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if -_FPMIN < d < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if -_FPMIN < d < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if -_FPMIN < c < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if -_FPMIN < d < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if -_FPMIN < c < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise FittingError(f"incomplete beta CF did not converge (a={a}, b={b}, x={x})")


def _beta_inc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise InputError(f"invalid incomplete beta shape a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The CF converges fast on the side of the mean; mirror otherwise.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------

def normal_cdf(z: float) -> float:
    """Standard normal CDF."""
    z = float(z)
    if not math.isfinite(z):
        raise InputError(f"normal_cdf requires a finite argument, got {z}")
    return 0.5 * math.erfc(-z / _SQRT2)


def t_sf(x: float, df: float) -> float:
    """Upper-tail survival function of Student's t with ``df`` degrees of
    freedom (non-integer df allowed)."""
    x = float(x)
    df = float(df)
    if not df > 0.0:
        raise InputError(f"t_sf requires df > 0, got {df}")
    if not math.isfinite(x):
        if math.isnan(x):
            raise InputError("t_sf requires a finite statistic")
        return 0.0 if x > 0 else 1.0
    if x == 0.0:
        return 0.5
    tail = 0.5 * _beta_inc(0.5 * df, 0.5, df / (df + x * x))
    return tail if x > 0.0 else 1.0 - tail


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail survival function of the chi-square distribution.

    For integer df the tail Q(df/2, x/2) is a finite sum, with y = x/2:
    exp(-y) * sum_{j<df/2} y^j / j! for even df, and
    erfc(sqrt(y)) + exp(-y) * sum_{j<(df-1)/2} y^(j+1/2) / Gamma(j+3/2)
    for odd df. Every term is positive, so the sum loses no precision.
    """
    x = float(x)
    if x < 0.0:
        raise InputError(f"chi_square_sf requires x >= 0, got {x}")
    if not (isinstance(df, (int, np.integer)) and df >= 1):
        raise InputError(f"chi_square_sf requires a positive integer df, got {df!r}")
    if not math.isfinite(x):
        return 0.0
    y = 0.5 * x
    if df % 2:
        root = math.sqrt(y)
        term = math.exp(-y) * root / _HALF_SQRT_PI  # y^(1/2) e^-y / Gamma(3/2)
        # erfc(sqrt(y)) ~ exp(-y) turns the rounding of sqrt(y) into a
        # relative error of y ulps; one Newton term on the exact residual
        # y - root^2 (Dekker's split product) takes it back out.
        hi = root * 134217729.0  # 2^27 + 1
        hi -= hi - root
        lo = root - hi
        residual = ((y - hi * hi) - 2.0 * hi * lo) - lo * lo
        tail = math.erfc(root) - (term * residual / (2.0 * y) if residual else 0.0)
        half = 1.5
    else:
        tail = 0.0
        term = math.exp(-y)  # y^0 e^-y / Gamma(1)
        half = 1.0
    for _ in range(df // 2):
        tail += term
        term *= y / half
        half += 1.0
    return tail


# ---------------------------------------------------------------------------
# two-sample t-test (unequal variances)
# ---------------------------------------------------------------------------

def _moments(a: np.ndarray) -> tuple[float, float]:
    """Mean and ddof=1 variance of a float sample, with numpy's own two-pass
    arithmetic (pairwise sum / n, then the pairwise sum of squared
    deviations / (n - 1)), so both equal ``a.mean()`` and ``a.var(ddof=1)``
    bit for bit without their per-call dispatch."""
    n = a.size
    mean = a.sum() / n
    dev = a - mean
    return float(mean), float((dev * dev).sum() / (n - 1))


def welch_t_test(sample_a, sample_b, tail: Tail = Tail.TWO_SIDED) -> TestResult:
    """Two-sample t-test without the equal-variance assumption.

    ``tail=UPPER`` tests the alternative mean(a) > mean(b), ``LOWER`` the
    reverse. The result carries the two sample means. If both samples have
    zero variance the result is degenerate, flagged so simulation loops can
    proceed without aborting: p = 1.0 for equal means (no evidence either
    way); otherwise the statistic is +-inf on n_a + n_b - 2 df, so p is 0.0
    unless a one-sided tail points against the difference.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    tail = Tail(tail)
    if a.size < 2 or b.size < 2:
        raise InputError(
            f"welch_t_test needs >= 2 observations per sample, got {a.size} and {b.size}"
        )
    n_a, n_b = a.size, b.size
    mean_a, var_a = _moments(a)
    mean_b, var_b = _moments(b)
    means = (mean_a, mean_b)
    degenerate = var_a == 0.0 and var_b == 0.0
    if degenerate:
        df = float(n_a + n_b - 2)
        if mean_a == mean_b:
            return TestResult(0.0, df, 1.0, tail, degenerate, means)
        stat = math.inf if mean_a > mean_b else -math.inf  # t_sf(+-inf) is 0 or 1
    else:
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
    return TestResult(stat, df, p, tail, degenerate, means)


# ---------------------------------------------------------------------------
# logistic regression by iteratively reweighted least squares
# ---------------------------------------------------------------------------

def _bernoulli_loglik(eta: np.ndarray, events: np.ndarray, trials: np.ndarray) -> float:
    # sum_i [y_i*eta_i - log(1 + exp(eta_i))], grouped; softplus kept stable
    # as max(eta, 0) + log1p(exp(-|eta|)), the same bits as branching on the
    # sign of eta (log1p(exp(eta)) below zero).
    softplus = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
    return float((events * eta - trials * softplus).sum())


class Design(NamedTuple):
    """A logistic design checked once (``check_design``) and trusted by
    every fit given it: read-only float rows with an all-ones intercept
    column and full column rank."""

    rows: np.ndarray
    groups: np.ndarray  # row -> index of its distinct covariate row
    saturated: bool  # as many distinct rows as columns


def check_design(rows) -> Design:
    """The ``Design`` of a 2-d float design with an intercept and full
    column rank. The rows are copied before they are frozen, so the
    caller's array stays writeable."""
    x = np.array(rows, dtype=float)
    if x.ndim != 2:
        raise InputError("design must be a 2-d matrix")
    if not (x[:, 0] == 1.0).all():
        raise InputError("design must carry an all-ones intercept in column 0")
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise InputError("design columns are collinear")
    distinct, groups = np.unique(x, axis=0, return_inverse=True)
    groups = groups.reshape(-1)
    x.setflags(write=False)
    groups.setflags(write=False)
    return Design(x, groups, distinct.shape[0] == x.shape[1])


def _check_table(events: np.ndarray, trials: np.ndarray, k: int) -> None:
    """Preconditions of a fit on the counts of a k-column model: finite
    events in [0, trials] per row (a NaN lies in no range) and a finite
    total of at least k trials."""
    if not ((events >= 0) & (events <= trials)).all():
        raise InputError("event counts must lie in [0, trials] per row")
    n_subjects = float(trials.sum())
    if not math.isfinite(n_subjects):
        raise InputError(f"trial counts must be finite, got a total of {n_subjects:g}")
    if n_subjects < k:
        raise InputError(f"need at least k={k} subjects, got {n_subjects:g}")


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


# The error state np.linalg.solve sets. A fit's Newton loop runs under it,
# so the invalid flag the LAPACK gufunc raises on a singular system becomes
# the same LinAlgError.
_FIT_ERRSTATE = dict(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")


def fit_logistic_counts(design, events: np.ndarray, trials: np.ndarray) -> LogisticFit:
    """IRLS logistic fit on grouped data (one design row per covariate
    pattern, with event/trial counts).

    ``design`` is a ``Design`` from ``check_design``, which the fit trusts.
    The log-likelihood matches the equivalent subject-level Bernoulli model
    exactly, so likelihood-ratio statistics can mix grouped and ungrouped
    fits, and closed-form log-likelihoods. The Newton step reuses
    trials * mu for the weights and the score and builds the information as
    (X' * w) @ X, the same products in the same memory order as
    (X * w[:, None])' @ X, so every iterate is bit-identical to the
    textbook form. It solves through the LAPACK gufunc behind
    ``np.linalg.solve``, under that function's error state (``_FIT_ERRSTATE``,
    entered once per fit), so the step has the same bits and a singular
    information matrix the same ``LinAlgError``, without the wrapper's
    per-call argument handling.
    """
    if not isinstance(design, Design):
        raise InputError("fit_logistic_counts needs a Design: pass the rows through check_design")
    x = design.rows
    events = np.asarray(events, dtype=float)
    trials = np.asarray(trials, dtype=float)
    n_rows, k = x.shape
    if events.shape != (n_rows,) or trials.shape != (n_rows,):
        raise InputError("events/trials must align with design rows")
    _check_table(events, trials, k)
    xt = x.T

    beta = np.zeros(k)
    converged = False
    diverged = False
    n_iter = 0
    with np.errstate(**_FIT_ERRSTATE):
        for n_iter in range(1, IRLS_MAX_ITER + 1):
            mu = np.negative(x @ beta)
            np.exp(mu, out=mu)
            mu += 1.0
            np.reciprocal(mu, out=mu)
            expected = trials * mu
            try:
                step = _umath_linalg.solve1(
                    (xt * (expected * (1.0 - mu))) @ x, xt @ (events - expected), signature="dd->d"
                )
            except np.linalg.LinAlgError:
                diverged = True
                break
            beta += step
            # The same comparisons as np.abs(v).max() on the same doubles:
            # the table is finite and the bound stops the loop, so no NaN
            # reaches them.
            coefficients = beta.tolist()
            if max(coefficients) > _DIVERGE_BOUND or min(coefficients) < -_DIVERGE_BOUND:
                diverged = True
                break
            steps = step.tolist()
            if max(steps) < IRLS_TOL and min(steps) > -IRLS_TOL:
                converged = True
                break

    return LogisticFit(
        coefficients=beta,
        log_likelihood=_bernoulli_loglik(x @ beta, events, trials),
        converged=converged and not diverged,
        n_iterations=n_iter,
        diverged=diverged,
    )


def fit_logistic(design, outcome) -> LogisticFit:
    """IRLS logistic fit of a binary outcome on an indicator design matrix
    (n x k, first column all ones)."""
    x = np.asarray(design, dtype=float)
    y = np.asarray(outcome, dtype=float)
    if x.ndim != 2:
        raise InputError("design must be a 2-d matrix")
    if y.shape != (x.shape[0],):
        raise InputError("outcome length must match design rows")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise InputError("outcome must be binary 0/1")
    # Collapse identical covariate patterns; indicator designs have only a
    # handful, which makes repeated fits in a simulation loop cheap.
    rows, inverse = np.unique(x, axis=0, return_inverse=True)
    trials = np.bincount(inverse, minlength=rows.shape[0]).astype(float)
    events = np.bincount(inverse, weights=y, minlength=rows.shape[0])
    return fit_logistic_counts(check_design(rows), events, trials)


def lr_test(full: float, reduced: float, df_diff: int) -> TestResult:
    """Likelihood-ratio chi-square test of a reduced model nested in a full
    model, from the two maximised log-likelihoods; ``df_diff`` = difference
    in parameter count."""
    if not (isinstance(df_diff, (int, np.integer)) and df_diff >= 1):
        raise InputError(f"df_diff must be a positive integer, got {df_diff!r}")
    stat = 2.0 * (full - reduced)
    if stat < -1e-6:
        raise FittingError(
            f"full-model log-likelihood below reduced model ({full} < {reduced}); fit failed"
        )
    stat = max(stat, 0.0)
    return TestResult(stat, float(df_diff), chi_square_sf(stat, int(df_diff)), Tail.UPPER)
