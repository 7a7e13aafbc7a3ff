"""Distribution-function checks against frozen reference values, the
contractual shape properties (symmetry, monotonicity, limits), and bit
identity of the incomplete-beta continued fraction with its body before
its half-steps were written once."""

import math
import sys
import time
import types

import numpy as np
import pytest
from scipy.stats import chi2 as scipy_chi2
from scipy.stats import t as scipy_t

from fast_trials import stats
from fast_trials.stats import _EPS, _FPMIN, _MAX_CF_ITER, InputError, _beta_cf, chi_square_sf, normal_cdf, t_sf


def test_normal_cdf_at_zero():
    assert normal_cdf(0.0) == 0.5


def test_normal_cdf_reference_quantiles():
    # 97.5% quantile of the standard normal, cross-checked by quadrature.
    assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
    assert normal_cdf(-1.959964) == pytest.approx(0.025, abs=1e-6)


def test_normal_cdf_symmetry_identity():
    for z in np.linspace(-8.0, 8.0, 81):
        assert abs(normal_cdf(z) + normal_cdf(-z) - 1.0) < 1e-12


def test_normal_cdf_monotone():
    values = [normal_cdf(z) for z in np.linspace(-6.0, 6.0, 121)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_normal_cdf_rejects_non_finite(bad):
    with pytest.raises(InputError):
        normal_cdf(bad)


def test_t_sf_at_zero_is_half():
    assert t_sf(0.0, 8.0) == 0.5
    assert t_sf(0.0, 0.3) == 0.5


def test_t_sf_reference_values():
    # Frozen from the incomplete-beta evaluation, matching printed t tables.
    assert t_sf(1.0, 8.0) == pytest.approx(0.17331, abs=1e-4)
    assert t_sf(2.306, 8.0) == pytest.approx(0.025, abs=1e-3)


def test_t_sf_cauchy_closed_form():
    # df=1 is Cauchy: SF(1) = 1/2 - atan(1)/pi = 1/4.
    assert t_sf(1.0, 1.0) == pytest.approx(0.25, abs=1e-10)


def test_t_sf_monotone_nonincreasing():
    for df in (0.7, 3.0, 29.4):
        values = [t_sf(x, df) for x in np.linspace(-12.0, 12.0, 97)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_t_sf_large_df_approaches_normal_tail():
    for z in (-2.5, -0.3, 0.6, 1.96, 3.2):
        assert t_sf(z, 1e6) == pytest.approx(1.0 - normal_cdf(z), abs=1e-6)


def test_t_sf_matches_scipy_at_every_df():
    """x in [-10, 10] in steps of 0.25 and df from 1 to 1e300 in steps of
    10^0.25, with both sides of the df where the normal tail and its 1/df
    term take over. At large df the incomplete beta's ratio df / (df + x^2)
    rounds toward 1 and its lgamma terms cancel: t_sf(1, 1e15) read 0.364
    and, from df near 1e16 up, 0.5 for every |x| <= 1."""
    xs = np.linspace(-10.0, 10.0, 81)
    threshold = stats._T_NORMAL_DF
    dfs = np.concatenate([10.0 ** np.arange(0.0, 300.25, 0.25), [math.nextafter(threshold, 0.0), threshold]])
    worst = max(np.abs(np.array([t_sf(x, df) for x in xs.tolist()]) - scipy_t.sf(xs, df)).max() for df in dfs)
    assert worst <= 1e-10
    assert t_sf(1.0, 1e15) == pytest.approx(0.15865525393145707, abs=1e-15)
    assert t_sf(40.0, 1e300) == 0.0 and t_sf(-40.0, 1e300) == 1.0
    assert t_sf(1e200, 1e6) == 0.0 and t_sf(-1e200, 1e6) == 1.0  # far out the term is 0, not nan


def _reference_beta_cf(a, b, x):
    """_beta_cf with its two Lentz half-steps written out in turn."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise AssertionError("reference did not converge")


def test_beta_cf_bit_identical_to_reference_body():
    """The (a, b, x) that t_sf hands the continued fraction on the grids of
    the tests above, on the side of the mean where it converges."""
    seen = 0
    for df in (0.3, 0.7, 1.0, 3.0, 8.0, 29.4, 1e6):
        for t in np.linspace(-12.0, 12.0, 97).tolist() + [2.306, 1.96, 0.6, 1e-3]:
            a, b, x = 0.5 * df, 0.5, df / (df + t * t)
            if x >= 1.0:
                continue
            if x >= (a + 1.0) / (a + b + 2.0):
                a, b, x = b, a, 1.0 - x
            assert _beta_cf(a, b, x) == _reference_beta_cf(a, b, x), (df, t)
            seen += 1
    assert seen > 600


@pytest.mark.parametrize("df", [0.0, -1.0, math.inf, math.nan])
def test_t_sf_rejects_bad_df(df):
    with pytest.raises(InputError, match=f"got {df}"):
        t_sf(1.0, df)


def test_chi_square_sf_at_zero_is_one():
    assert chi_square_sf(0.0, 3) == 1.0


def test_chi_square_sf_reference_values():
    # 95% quantiles for 1 and 2 degrees of freedom.
    assert chi_square_sf(3.841, 1) == pytest.approx(0.0500, abs=5e-4)
    assert chi_square_sf(5.991, 2) == pytest.approx(0.0500, abs=5e-4)


def test_chi_square_df2_closed_form():
    # df=2 is exponential: SF(x) = exp(-x/2).
    assert chi_square_sf(6.0, 2) == pytest.approx(np.exp(-3.0), rel=1e-10)


def test_chi_square_monotone_nonincreasing():
    for df in (1, 4, 11):
        values = [chi_square_sf(x, df) for x in np.linspace(0.0, 60.0, 61)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("x, df", [(1e5, 10**6), (1500.0, 2000), (1490.0, 1500), (1500.0, 1501)])
def test_chi_square_sf_where_exp_of_minus_half_x_underflows(x, df):
    # x / 2 > 708.39: e^(-x/2) is below the smallest normal double, and the
    # plain sum of its multiples read 0.0, 0.0, 0.994 and 0.0 here.
    assert chi_square_sf(x, df) == pytest.approx(scipy_chi2.sf(x, df), rel=1e-9, abs=0.0)


def test_chi_square_sf_is_continuous_where_exp_of_minus_half_x_underflows():
    for df in (1, 2, 3, 1400, 1401, 1500, 2000, 2001):
        for x in np.linspace(1416.0, 1418.0, 41):  # across x / 2 = 708.39
            expected = scipy_chi2.sf(x, df)
            if expected > 1e-290:  # scipy's own digits thin out in the subnormals
                assert chi_square_sf(x, df) == pytest.approx(expected, rel=1e-9, abs=0.0)


def _chi_square_sf_every_term(x, df):
    """``chi_square_sf``'s body as it was before its sums stopped early:
    both sums run all df // 2 terms."""
    y = 0.5 * x
    scale = math.exp(-y)
    if scale < sys.float_info.min:
        log_y = math.log(y)
        tail = math.erfc(math.sqrt(y)) if df % 2 else 0.0
        half = 1.5 if df % 2 else 1.0
        for _ in range(df // 2):
            tail += math.exp((half - 1.0) * log_y - y - math.lgamma(half))
            half += 1.0
        return min(tail, 1.0)
    if df % 2:
        root = math.sqrt(y)
        term = scale * root / (0.5 * math.sqrt(math.pi))
        hi = root * 134217729.0
        hi -= hi - root
        lo = root - hi
        residual = ((y - hi * hi) - 2.0 * hi * lo) - lo * lo
        tail = math.erfc(root) - (term * residual / (2.0 * y) if residual else 0.0)
        half = 1.5
    else:
        tail, term, half = 0.0, scale, 1.0
    for _ in range(df // 2):
        tail += term
        term *= y / half
        half += 1.0
    return min(tail, 1.0)


def test_chi_square_sf_early_stop_keeps_every_bit():
    # Both sides of x / 2 = 708.39, and dfs whose sums end long after
    # their terms reach 0.0 (or, on the log side, pass through it).
    xs = np.concatenate([np.geomspace(1e-3, 3e4, 120), np.linspace(1400.0, 1440.0, 41)]).tolist()
    for df in [*range(1, 40), 99, 100, 1499, 1500, 2001, 4000, 4001]:
        for x in xs:
            assert chi_square_sf(x, df) == _chi_square_sf_every_term(x, df), (x, df)


def test_chi_square_sf_stops_once_its_terms_are_exhausted(monkeypatch):
    # The exp(-x/2) side: the terms reach 0.0 after a few hundred of the
    # 500000 (the full loop took about 45 ms on a 2.1 GHz Xeon vCPU).
    start = time.perf_counter()
    assert chi_square_sf(10.0, 10**6) == 1.0
    assert time.perf_counter() - start < 0.005
    # The log side forms each term with one lgamma; past the peak near
    # half = x / 2 = 50000 the terms underflow within a few thousand more.
    lgamma_calls = []
    counting_math = types.SimpleNamespace(**{n: getattr(math, n) for n in dir(math) if not n.startswith("_")})
    counting_math.lgamma = lambda a: lgamma_calls.append(a) or math.lgamma(a)
    monkeypatch.setattr(stats, "math", counting_math)
    assert chi_square_sf(1e5, 10**6) == pytest.approx(scipy_chi2.sf(1e5, 10**6), rel=1e-9, abs=0.0)
    assert 50_000 < len(lgamma_calls) < 60_000


def test_chi_square_sf_returns_the_erfc_part_when_even_its_largest_term_underflows(monkeypatch):
    # Where x >= df the log side's terms only grow, so the last is the
    # largest; once it underflows the tail is the erfc part, after one
    # lgamma instead of 500000 (each call took about 0.17 s on a 2.1 GHz
    # Xeon vCPU when it summed them all).
    lgamma_calls = []
    counting_math = types.SimpleNamespace(**{n: getattr(math, n) for n in dir(math) if not n.startswith("_")})
    counting_math.lgamma = lambda a: lgamma_calls.append(a) or math.lgamma(a)
    for x in (3e6, 1e300, 2e6 + 1.0):
        for df in (10**6, 10**6 + 1):
            expected = _chi_square_sf_every_term(x, df)
            with monkeypatch.context() as patch:
                patch.setattr(stats, "math", counting_math)
                lgamma_calls.clear()
                assert chi_square_sf(x, df) == expected == 0.0
                assert len(lgamma_calls) == 1, (x, df)
    # Bit for bit across the edge where the last term first underflows
    # (x between 1.6 df and 3.9 df here), where the sum switches between
    # every term and the shortcut.
    for df in (1001, 1500, 2001, 10**4, 10**4 + 1):
        for x in np.geomspace(df, 5.0 * df, 201).tolist():
            assert chi_square_sf(x, df) == _chi_square_sf_every_term(x, df), (x, df)


def test_chi_square_sf_never_exceeds_one():
    # The rounded terms of a tail near 1 summed to 1.0000000000000002 here.
    assert chi_square_sf(7.5, 59) == 1.0
    for df in range(1, 400):
        assert all(chi_square_sf(x, df) <= 1.0 for x in np.linspace(0.0, 100.0, 201).tolist()), df


def test_chi_square_rejects_bad_arguments():
    with pytest.raises(InputError):
        chi_square_sf(-0.1, 2)
    with pytest.raises(InputError):
        chi_square_sf(1.0, 0)
    with pytest.raises(InputError):
        chi_square_sf(1.0, 1.5)
    with pytest.raises(InputError):  # a NaN statistic used to give 0.0, a rejection
        chi_square_sf(np.nan, 1)
    with pytest.raises(InputError):  # a bool is not a df
        chi_square_sf(3.0, True)


# -- closed-form tails against the incomplete-gamma routine they replaced ----

def _reference_gamma_q(a, x):
    """Upper regularized incomplete gamma Q(a, x): series for x < a + 1,
    modified-Lentz continued fraction otherwise."""
    if x == 0.0:
        return 1.0
    prefactor = math.exp(-x + a * math.log(x) - math.lgamma(a))
    if x < a + 1.0:
        ap, term = a, 1.0 / a
        total = term
        for _ in range(1000):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-14:
                return 1.0 - total * prefactor
        raise AssertionError("series did not converge")
    b = x + 1.0 - a
    c, d = 1.0 / 1e-300, 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < 1e-300:
            d = 1e-300
        c = b + an / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            return h * prefactor
    raise AssertionError("continued fraction did not converge")


@pytest.mark.parametrize("df", range(1, 9))
def test_chi_square_sf_matches_incomplete_gamma(df):
    # Dense, because at odd df the rounding of sqrt(x/2) costs up to x/2 ulps
    # at a few isolated x unless the tail corrects for it.
    for x in np.geomspace(1e-8, 1e3, 20001).tolist():
        expected = _reference_gamma_q(0.5 * df, 0.5 * x)
        assert abs(chi_square_sf(x, df) - expected) <= 1e-13 * expected, x
    # Beyond the float range of the tail, and at infinity, it is exactly 0.
    assert chi_square_sf(1e4, df) == _reference_gamma_q(0.5 * df, 5e3) == 0.0
    assert chi_square_sf(math.inf, df) == 0.0


def test_normal_cdf_matches_incomplete_gamma():
    for z in np.linspace(-8.0, 8.0, 1601):
        if z == 0.0:
            continue
        half_tail = 0.5 * _reference_gamma_q(0.5, 0.5 * z * z)
        expected = 1.0 - half_tail if z > 0.0 else half_tail
        assert normal_cdf(z) == pytest.approx(expected, rel=1e-13, abs=0.0), z
