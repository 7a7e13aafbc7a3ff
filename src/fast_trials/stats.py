"""Statistical kernel: distribution functions, two-sample t-tests, logistic
regression, and nested-model likelihood-ratio tests.

Distribution tails are computed from scratch, so the kernel has no runtime
dependency on a stats library: the normal CDF and the chi-square tail (at
integer df) in closed form, as erfc plus a finite sum of exp terms, and the
t tail from the regularized incomplete beta (Lentz continued fraction), or
at df of 1e5 and more from the normal tail and its 1/df term.
Everything here is a pure function of its inputs; random draws go through an
explicit ``numpy.random.Generator`` owned by the caller.

Each entry point runs one algorithm and returns a NamedTuple (``TestResult``
or ``LogisticFit``). ``welch_t_test`` takes numpy's own two-pass moments
(``_moments``) and the t tail; ``lr_test`` takes two maximised
log-likelihoods. One rule (``_fit_plan``) tells from a logistic model's rows
which of two fits it takes. It groups the checked rows as Python float
tuples, in the sorted order of the distinct rows, which is
``np.unique(axis=0)``'s, with -0.0 merged into 0.0 as there, and hands a
main-effects model's strata to a trusted form of ``stratify`` that does not
check the rows again. A saturated design, as many distinct rows as
columns, has a closed form (``_saturated_pass``). Any other design must be
main-effects: ``fit_logistic_counts`` takes a table's events and trials as
float lists and fits one intercept per stratum and a common log odds ratio
on a stratum map (``Strata``) that ``stratify`` made once from design rows
and row labels, and that the fit trusts: a rule decides whether the MLE
exists (the separation conditions of Albert & Anderson 1984 and Santner &
Duffy 1986: every stratum strictly between 0 and all events, and the
Mantel-Haenszel numerator and denominator both positive); where it does, the
fit is the unconditional MLE of a common odds ratio (Mantel & Haenszel 1959;
Breslow & Day 1980, ch. 4) by profile Newton on Python floats, rows at 0 or
at all events included, and elsewhere a failed fit with NaN coefficients and
log-likelihood. The stratum map carries the inverse from the strata's
intercepts to the design's columns, so the fit solves no linear system.
``fit_logistic`` groups subject rows by covariate pattern and plans and fits
them alike. ``check_design`` returns a design's checked read-only rows. A
count table must be finite, with events in [0, trials]: a profile fit's one
pass over the rows checks that, and the other callers call ``_check_table``
on lists.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

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
    "check_design",
    "Strata",
    "stratify",
    "fit_logistic_counts",
    "lr_test",
]

_EPS = 1e-14
_FPMIN = 1e-300
_MAX_CF_ITER = 500
_SQRT2 = math.sqrt(2.0)
_HALF_SQRT_PI = 0.5 * math.sqrt(math.pi)  # Gamma(3/2)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# From this df on, t_sf takes the normal tail and its 1/df term: each errs
# by at most about 2e-11 on either side of it (x in [-10, 10]).
_T_NORMAL_DF = 1e5

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
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


_UPPER = Tail.UPPER  # read once: reading an enum member off its class is a descriptor call


class TestResult(NamedTuple):
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
    fpmin, eps = _FPMIN, _EPS
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if -fpmin < d < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if -fpmin < d < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if -fpmin < c < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if -fpmin < d < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if -fpmin < c < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -eps < delta - 1.0 < eps:
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
    freedom (non-integer df allowed).

    Below ``_T_NORMAL_DF`` it is half the regularized incomplete beta at
    df / (df + x^2). At large df that ratio rounds toward 1 and the beta's
    lgamma terms cancel (at df = 1e15 the beta gave 0.364 for the 0.159 of
    x = 1), so from ``_T_NORMAL_DF`` on the tail is the normal one plus its
    first-order term in 1/df: erfc(x / sqrt 2) / 2 + phi(x) (x^3 + x) / (4 df).
    """
    x = float(x)
    df = float(df)
    if not 0.0 < df < math.inf:
        raise InputError(f"t_sf requires a finite df > 0, got {df}")
    if not math.isfinite(x):
        if math.isnan(x):
            raise InputError("t_sf requires a finite statistic")
        return 0.0 if x > 0 else 1.0
    if x == 0.0:
        return 0.5
    if df >= _T_NORMAL_DF:
        phi = math.exp(-0.5 * x * x) / _SQRT_2PI
        # phi times x first: where phi underflows the term is 0, not 0 * inf
        return 0.5 * math.erfc(x / _SQRT2) + (phi * x * x * x + phi * x) / (4.0 * df)
    tail = 0.5 * _beta_inc(0.5 * df, 0.5, df / (df + x * x))
    return tail if x > 0.0 else 1.0 - tail


def _positive_int(v) -> bool:
    """A positive integer; a bool is not one here."""
    if v.__class__ is int:
        return v >= 1
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail survival function of the chi-square distribution.

    For integer df the tail Q(df/2, x/2) is a finite sum, with y = x/2:
    exp(-y) * sum_{j<df/2} y^j / j! for even df, and
    erfc(sqrt(y)) + exp(-y) * sum_{j<(df-1)/2} y^(j+1/2) / Gamma(j+3/2)
    for odd df. Every term is positive, so the sum loses no precision.
    Where exp(-y) falls below the smallest normal double (y > 708.39) it
    would take the terms' digits with it, so there each term is formed
    from its logarithm instead. The terms grow while half <= y, so where
    every half but the last is at most y the last term is the largest, and
    if it underflows the sum is the erfc part alone.
    """
    x = float(x)
    if not x >= 0.0:  # a NaN would return 0.0, a rejection
        raise InputError(f"chi_square_sf requires x >= 0, got {x}")
    if not _positive_int(df):
        raise InputError(f"chi_square_sf requires a positive integer df, got {df!r}")
    df = int(df)  # a numpy df's arithmetic below would wrap (uint8: 0 - 1 is 255)
    if not math.isfinite(x):
        return 0.0
    y = 0.5 * x
    scale = math.exp(-y)
    if scale < sys.float_info.min:
        log_y = math.log(y)
        tail = math.erfc(math.sqrt(y)) if df % 2 else 0.0
        half = 1.5 if df % 2 else 1.0
        last = half + (df // 2 - 1)
        if last - 1.0 <= y and math.exp((last - 1.0) * log_y - y - math.lgamma(last)) == 0.0:
            return min(tail, 1.0)
        for _ in range(df // 2):
            term = math.exp((half - 1.0) * log_y - y - math.lgamma(half))  # y^(half-1) e^-y / Gamma(half)
            if term == 0.0 and half - 1.0 > y:
                break  # past the peak the terms only shrink; before it an underflowed term can recover
            tail += term
            half += 1.0
        return min(tail, 1.0)  # the rounded terms of a tail near 1 can sum past it
    if df % 2:
        root = math.sqrt(y)
        term = scale * root / _HALF_SQRT_PI  # y^(1/2) e^-y / Gamma(3/2)
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
        term = scale  # y^0 e^-y / Gamma(1)
        half = 1.0
    for _ in range(df // 2):
        if term == 0.0:
            break  # a product of 0.0 stays 0.0: every later term adds nothing
        tail += term
        term *= y / half
        half += 1.0
    return min(tail, 1.0)


# ---------------------------------------------------------------------------
# two-sample t-test (unequal variances)
# ---------------------------------------------------------------------------

def _moments(a: np.ndarray, name: str) -> tuple[float, float]:
    """Mean and ddof=1 variance of a float sample, with numpy's own two-pass
    arithmetic (pairwise sum / n, then the pairwise sum of squared
    deviations / (n - 1)), so both equal ``a.mean()`` and ``a.var(ddof=1)``
    bit for bit without their per-call dispatch: ``np.add.reduce`` is the
    pairwise sum ``ndarray.sum`` calls, and a float quotient rounds alike
    in Python and numpy. A mean or variance that is not finite raises an
    ``InputError`` that names the sample (``name``): one scalar check each,
    the mean's before the deviations are formed."""
    n = a.size
    mean = float(np.add.reduce(a, axis=None)) / n
    if not math.isfinite(mean):  # a NaN or infinite entry, or a sum past the float range
        raise InputError(f"welch_t_test needs finite samples, but {name} has mean {mean}")
    dev = a - mean
    var = float(np.add.reduce(dev * dev, axis=None)) / (n - 1)
    if not math.isfinite(var):
        raise InputError(f"welch_t_test needs finite samples, but {name} has variance {var}")
    return mean, var


def welch_t_test(sample_a, sample_b, tail: Tail = Tail.TWO_SIDED) -> TestResult:
    """Two-sample t-test without the equal-variance assumption.

    ``tail=UPPER`` tests the alternative mean(a) > mean(b), ``LOWER`` the
    reverse. The result carries the two sample means. If both samples have
    zero variance the result is degenerate, flagged so simulation loops can
    proceed without aborting: p = 1.0 for equal means (no evidence either
    way); otherwise the statistic is +-inf on n_a + n_b - 2 df, so p is 0.0
    unless a one-sided tail points against the difference. A sample with a
    mean or variance that is not finite is an ``InputError``.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if tail.__class__ is not Tail:
        tail = Tail(tail)
    if a.size < 2 or b.size < 2:
        raise InputError(
            f"welch_t_test needs >= 2 observations per sample, got {a.size} and {b.size}"
        )
    n_a, n_b = a.size, b.size
    mean_a, var_a = _moments(a, "sample_a")
    mean_b, var_b = _moments(b, "sample_b")
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
# logistic regression: closed forms and the profile fit
# ---------------------------------------------------------------------------

def check_design(rows) -> np.ndarray:
    """The checked rows of a 2-d finite float design with at least one row
    and one column, an intercept and full column rank, read-only. The rows
    are copied before they are frozen, so the caller's array stays
    writeable."""
    x = np.array(rows, dtype=float)
    if x.ndim != 2 or x.shape[1] == 0:
        raise InputError("design must be a 2-d matrix with at least one column")
    if x.shape[0] == 0:
        raise InputError("design has no rows")
    if not np.isfinite(x).all():
        raise InputError("design entries must be finite")
    if not (x[:, 0] == 1.0).all():
        raise InputError("design must carry an all-ones intercept in column 0")
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise InputError("design columns are collinear")
    x.setflags(write=False)
    return x


def _check_table(events: list, trials: list, k: int) -> None:
    """Preconditions of a fit on the counts of a k-column model, given as
    lists (``ndarray.tolist()``): finite events in [0, trials] per row (a
    NaN lies in no range) and a finite total of at least k trials."""
    n_subjects = 0.0
    for e, n in zip(events, trials):
        if not 0.0 <= e <= n:
            raise InputError("event counts must lie in [0, trials] per row")
        n_subjects += n
    if not math.isfinite(n_subjects):
        raise InputError(f"trial counts must be finite, got a total of {n_subjects:g}")
    if n_subjects < k:
        raise InputError(f"need at least k={k} subjects, got {n_subjects:g}")


class Strata(NamedTuple):
    """The stratum map of a main-effects design, made once by ``stratify``
    and trusted by every fit given it."""

    of_row: tuple  # each row's stratum, numbered in the order the strata first appear
    treated: tuple  # each row's 0/1 last column
    inverse: tuple  # rows of the inverse of the strata's first rows, last column left out


def stratify(rows, labels) -> Strata:
    """The ``Strata`` of a design, from each row's stratum label: the rows
    pass ``check_design``, and then there must be one label per row, one
    stratum per column but the last, the rows of a stratum equal on every
    column but the last, and a 0/1 last column. The strata's rows are then
    nonsingular, as the design has full rank, and the intercepts alpha_s
    of the strata give the coefficients of every column but the last as
    ``inverse`` times alpha."""
    return _stratify(check_design(rows), labels)


def _stratify(x: np.ndarray, labels) -> Strata:
    """``stratify`` on rows that already passed ``check_design``."""
    labels = list(labels)
    n_rows, k = x.shape
    if len(labels) != n_rows:
        raise InputError(f"strata must label each of the {n_rows} design rows, got {len(labels)} labels")
    number = {}
    of_row = tuple([number.setdefault(s, len(number)) for s in labels])
    if len(number) != k - 1:
        raise InputError(f"a design of {k} columns needs {k - 1} strata, got {len(number)}")
    first = [of_row.index(s) for s in range(len(number))]
    if not (x[:, :-1] == x[[first[s] for s in of_row], :-1]).all():
        raise InputError("the rows of a stratum must agree on every design column but the last")
    treated = x[:, -1].tolist()
    if not all(b == 0.0 or b == 1.0 for b in treated):
        raise InputError("the last design column must be a 0/1 indicator")
    inverse = np.linalg.inv(x[first, :-1])
    return Strata(of_row, tuple(treated), tuple(map(tuple, inverse.tolist())))


def _fit_plan(x: np.ndarray):
    """The plan of the model on checked design rows ``x``: a saturated
    design's (as many distinct rows as columns) groups of equal rows, each
    the tuple of its row indices, for ``_saturated_pass``; else the stratum
    map of the rows labelled by their values of every column but the last,
    which raises ``InputError`` for a design of neither form.

    The rows are grouped as Python float tuples: the groups come in the
    sorted order of their distinct rows, which is ``np.unique(x, axis=0)``'s,
    and a tuple compares and hashes -0.0 as 0.0, so the two merge as there.
    The stratum map's strata are numbered in the order they first appear,
    so its labels need no sorting."""
    rows = [tuple(row) for row in x.tolist()]
    members = {}
    for r, row in enumerate(rows):
        members.setdefault(row, []).append(r)
    if len(members) == x.shape[1]:
        return tuple(tuple(members[row]) for row in sorted(members))
    return _stratify(x, [row[:-1] for row in rows])


def _saturated_pass(groups: tuple, events: list, trials: list) -> list:
    """The maximised log-likelihood of each saturated model in ``groups``
    on a checked table's rows: ``groups`` holds, per model, each of its
    groups as the tuple of its rows (``_fit_plan``).

    A saturated model gives each group g its own free logit, so its MLE is
    the group's event proportion p_g = E_g / N_g and its log-likelihood is
    sum_g [E_g log p_g + (N_g - E_g) log(1 - p_g)]. Each group's counts are
    added row by row and each model's terms group by group, in order from
    0.0, which is how ``np.bincount`` adds weights, so each value equals
    the model's closed form computed alone bit for bit; the two logarithms
    are numpy's, one call each over every group. The MLE exists exactly
    when every group is strictly between 0 and all events; elsewhere, a
    group with no events, only events or no subjects, the value is nan.
    """
    sums = []  # (E_g, N_g) of every group of every model, in order
    boundary = False
    for model in groups:
        for rows in model:
            e = n = 0.0
            for row in rows:
                e += events[row]
                n += trials[row]
            sums.append((e, n))
            boundary = boundary or e == 0.0 or e == n
    p = np.array([e / n if n else math.nan for e, n in sums])
    with np.errstate(divide="ignore") if boundary else nullcontext():  # log(0) is -inf, so the term nan
        log_p, log_q = np.log(p).tolist(), np.log1p(-p).tolist()
    terms = iter([e * lp + (n - e) * lq for (e, n), lp, lq in zip(sums, log_p, log_q)])
    closed = []
    for model in groups:
        total = 0.0
        for _ in model:
            total += next(terms)
        closed.append(total)
    return closed


def _no_mle(k: int, n_iter: int) -> LogisticFit:
    """The failed fit of a table whose model has no finite MLE."""
    return LogisticFit(np.full(k, math.nan), math.nan, False, n_iter, True)


def _profile_fit(strata: Strata, events: list, trials: list, k: int) -> Optional[LogisticFit]:
    """The MLE of logit p = alpha_s + theta * b, one intercept per stratum s
    and a common log odds ratio theta on the 0/1 last column b, or the
    failed fit (``_no_mle``) where there is none; None where the table
    fails the check that its one pass over the rows makes, events in
    [0, trials] per row and a finite total of at least k, so that the
    caller's ``_check_table`` says why.

    Stratum s has E events in N trials, e0 of n0 at b = 0 and e1 of n1 at
    b = 1, f0 = n0 - e0 and f1 = n1 - e1 non-events. The MLE exists, by
    the separation conditions of Albert & Anderson (1984) and Santner &
    Duffy (1986) for this model, exactly when every stratum has
    0 < E < N, which bounds its intercept for any theta, and some stratum
    has e1 f0 > 0 and some e0 f1 > 0, which bound theta above and below:
    the Mantel-Haenszel numerator sum_s e1 f0 / N and denominator
    sum_s e0 f1 / N are then both positive. A row at 0 or at all events
    breaks none of this on its own, and Newton runs on such a table as on
    an interior one. Where Newton does not converge within
    ``NEWTON_MAX_ITER`` steps, or a coefficient lies beyond the divergence
    bound, the fit is also the failed one.

    For a fixed theta, psi = e^theta, each stratum's odds
    phi = e^alpha is the positive root of psi (N - E) phi^2 + b phi - E = 0,
    b = (n0 - E) + psi (n1 - E), which sets its intercept score to zero; the
    root is taken in the form that subtracts no like-signed terms. The
    profile score sum_s (e1 - n1 p1) falls monotonely in theta, with
    derivative -sum_s v0 v1 / (v0 + v1), v = n p (1 - p), so Newton on it
    starts from the Mantel-Haenszel log odds ratio and stops on a step
    below ``NEWTON_TOL``. The log-likelihood is the sum of
    e eta - n log(1 + e^eta), taken over each stratum's two cells. The
    intercepts map back to the design's columns through ``strata.inverse``.
    """
    sqrt = math.sqrt
    cells = [[0.0, 0.0, 0.0, 0.0] for _ in strata.inverse]  # e0, f0, e1, f1: events and non-events at b = 0, then b = 1
    n_subjects = 0.0
    for s, b, e, n in zip(strata.of_row, strata.treated, events, trials):
        if not 0.0 <= e <= n:
            return None
        cell = cells[s]
        j = 2 if b else 0
        cell[j] += e
        cell[j + 1] += n - e
        n_subjects += n
    if not k <= n_subjects < math.inf:
        return None  # the caller's check of the table says why
    num = den = 0.0
    terms = []  # per stratum: E, N - E, the two parts of b, then e0, f0, e1, f1, n0, n1
    for e0, f0, e1, f1 in cells:
        n0, n1 = e0 + f0, e1 + f1
        events_s, non_events = e0 + e1, f0 + f1
        if not (events_s > 0.0 and non_events > 0.0):
            return _no_mle(k, 0)
        num += e1 * f0 / (n0 + n1)
        den += e0 * f1 / (n0 + n1)
        terms.append((events_s, non_events, n0 - events_s, n1 - events_s, e0, f0, e1, f1, n0, n1))
    if not (num > 0.0 and den > 0.0):
        return _no_mle(k, 0)

    # The score is positive below the root and negative above it, so every
    # score narrows a bracket on theta; a Newton step that leaves the
    # bracket bisects it instead.
    low, high = -_DIVERGE_BOUND, _DIVERGE_BOUND
    theta = min(max(math.log(num / den), low), high)
    for n_iter in range(1, NEWTON_MAX_ITER + 1):
        psi = math.exp(theta)
        psi2, psi4 = 2.0 * psi, 4.0 * psi
        score = info = 0.0
        for events_s, non_events, lin0, lin1, e0, f0, e1, f1, n0, n1 in terms:
            lin = lin0 + psi * lin1
            root = sqrt(lin * lin + psi4 * non_events * events_s)
            odds0 = (root - lin) / (psi2 * non_events) if lin <= 0.0 else 2.0 * events_s / (lin + root)
            odds1 = odds0 * psi
            q0, q1 = 1.0 / (1.0 + odds0), 1.0 / (1.0 + odds1)
            p0, p1 = odds0 * q0, odds1 * q1
            v0, v1 = n0 * p0 * q0, n1 * p1 * q1
            w = 1.0 / (v0 + v1)
            # The b = 1 residual less the b = 0 one, weighted: equal to
            # e1 - n1 p1 at the stratum's root, without the error of the
            # computed root to first order, and each residual in the form
            # e q - f p, whose rounding scales with v, not with e.
            score += (v0 * (e1 * q1 - f1 * p1) - v1 * (e0 * q0 - f0 * p0)) * w
            info += v0 * v1 * w
        if score > 0.0:
            low = theta
        elif score < 0.0:
            high = theta
        step = score / info
        if not low <= theta + step <= high:  # also a NaN
            theta = 0.5 * (low + high)
        elif -NEWTON_TOL < step < NEWTON_TOL:
            theta += step
            break
        else:
            theta += step
    else:
        return _no_mle(k, n_iter)
    psi = math.exp(theta)
    psi2, psi4 = 2.0 * psi, 4.0 * psi
    alpha = []
    log_likelihood = 0.0
    for events_s, non_events, lin0, lin1, e0, f0, e1, f1, n0, n1 in terms:
        lin = lin0 + psi * lin1
        root = sqrt(lin * lin + psi4 * non_events * events_s)
        odds0 = (root - lin) / (psi2 * non_events) if lin <= 0.0 else 2.0 * events_s / (lin + root)
        alpha.append(math.log(odds0))
        log_likelihood += events_s * alpha[-1] + e1 * theta - n0 * math.log1p(odds0) - n1 * math.log1p(odds0 * psi)
    coefficients = [sum([c * a for c, a in zip(row, alpha)]) for row in strata.inverse]
    coefficients.append(theta)
    if max(coefficients) > _DIVERGE_BOUND or min(coefficients) < -_DIVERGE_BOUND:
        return _no_mle(k, n_iter)
    # float(): numpy scalars in the table would make it a numpy.float64
    return LogisticFit(np.array(coefficients), float(log_likelihood), True, n_iter, False)


def fit_logistic_counts(strata: Strata, events: list, trials: list) -> LogisticFit:
    """Logistic fit on grouped data (event/trial counts per design row) of
    one intercept per stratum and a common log odds ratio: ``_profile_fit``'s.

    ``strata`` is the design's stratum map from ``stratify``, which the fit
    trusts; ``events`` and ``trials`` are lists of floats, one per design
    row, as ``ndarray.tolist()`` gives them; anything else raises
    ``InputError``. The fit is the MLE where the existence rule holds, rows
    at 0 or at all events included, and else the failed fit, NaN
    coefficients and log-likelihood with ``diverged`` set; a table that
    fails its check raises ``InputError``.

    The log-likelihood matches the equivalent subject-level Bernoulli model
    exactly, so likelihood-ratio statistics can mix it with closed-form
    log-likelihoods.
    """
    n_rows, k = len(strata.of_row), len(strata.inverse) + 1
    if events.__class__ is not list or trials.__class__ is not list or len(events) != n_rows or len(trials) != n_rows:
        raise InputError("events/trials must be float lists (ndarray.tolist()) that align with design rows")
    try:
        fit = _profile_fit(strata, events, trials, k)
    except TypeError:  # an entry that does not compare with a float
        raise InputError("events/trials must hold one number per design row") from None
    if fit is None:
        _check_table(events, trials, k)  # the check the profile pass failed: this raises
    return fit


def fit_logistic(design, outcome) -> LogisticFit:
    """Logistic fit of a binary outcome on an indicator design (n x k, first
    column all ones) by the final analysis's own fits: the subjects are
    grouped by covariate pattern and the checked pattern rows planned by
    ``_fit_plan``. A saturated design's log-likelihood is its closed form and
    its coefficients solve the rows against the groups' logits, with no
    Newton step; a group at 0 or at all events gives the failed fit. Any
    other design is ``fit_logistic_counts``'s on its stratum map."""
    x = np.asarray(design, dtype=float)
    y = np.asarray(outcome, dtype=float)
    if x.ndim != 2:
        raise InputError("design must be a 2-d matrix")
    if y.shape != (x.shape[0],):
        raise InputError("outcome length must match design rows")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise InputError("outcome must be binary 0/1")
    rows, inverse = np.unique(x, axis=0, return_inverse=True)
    trials = np.bincount(inverse, minlength=rows.shape[0]).astype(float).tolist()
    events = np.bincount(inverse, weights=y, minlength=rows.shape[0]).tolist()
    rows = check_design(rows)
    _check_table(events, trials, rows.shape[1])
    plan = _fit_plan(rows)
    if isinstance(plan, Strata):
        return fit_logistic_counts(plan, events, trials)
    (log_likelihood,) = _saturated_pass((plan,), events, trials)
    if math.isnan(log_likelihood):
        return _no_mle(rows.shape[1], 0)
    # the rows are distinct, so each group is one row, in the rows' order
    logits = [math.log(e / (n - e)) for e, n in zip(events, trials)]
    return LogisticFit(np.linalg.solve(rows, logits), log_likelihood, True, 0, False)


def lr_test(full: float, reduced: float, df_diff: int) -> TestResult:
    """Likelihood-ratio chi-square test of a reduced model nested in a full
    model, from the two maximised log-likelihoods; ``df_diff`` = difference
    in parameter count. A log-likelihood that no binary-outcome fit can give
    (NaN, infinite or positive) is a failed fit, not a rejection."""
    if not _positive_int(df_diff):
        raise InputError(f"df_diff must be a positive integer, got {df_diff!r}")
    if not (-math.inf < full <= 0.0 and -math.inf < reduced <= 0.0):
        raise FittingError(
            f"log-likelihoods must be finite and <= 0 (full={full}, reduced={reduced}); fit failed"
        )
    stat = 2.0 * (full - reduced)
    if not stat >= -1e-6:
        raise FittingError(f"full-model log-likelihood below reduced model ({full} < {reduced}); fit failed")
    if stat < 0.0:  # a full fit that rounds below its reduced one
        stat = 0.0
    return TestResult(stat, float(df_diff), chi_square_sf(stat, df_diff), _UPPER)
