"""Independent verification oracles, used by the test suite only.

Each oracle recomputes a quantity the main modules produce, by a different
route: distribution tails by adaptive quadrature of the density, logistic
coefficients from the closed-form log-odds of a 2x2 table, and the
gatekeeping decisions by literal transcription of the gating sentences.
Nothing here imports from the rest of the package, so agreement between an
oracle and the main path is informative.
"""

from __future__ import annotations

import math

from scipy import integrate

__all__ = [
    "OracleError",
    "oracle_normal_cdf",
    "oracle_t_sf",
    "oracle_chi_square_sf",
    "oracle_logistic_2x2",
    "oracle_gatekeeping_enumerate",
]

_QUAD_TOL = 1e-12


class OracleError(RuntimeError):
    """Raised when an oracle cannot produce a trustworthy value."""


def _quad(fn, lo, hi) -> float:
    value, estimate = integrate.quad(fn, lo, hi, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=400)
    if estimate > 1e-10:
        raise OracleError(f"quadrature error estimate {estimate} too large on [{lo}, {hi}]")
    return value


def oracle_normal_cdf(z: float) -> float:
    """Standard normal CDF by quadrature of the density."""
    density = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    if z <= 0:
        return _quad(density, -math.inf, z)
    return 1.0 - _quad(density, z, math.inf)


def oracle_t_sf(x: float, df: float) -> float:
    """Student-t upper tail by quadrature of the density."""
    if df <= 0:
        raise OracleError(f"df must be positive, got {df}")
    log_norm = math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0) - 0.5 * math.log(df * math.pi)
    density = lambda u: math.exp(log_norm - (df + 1.0) / 2.0 * math.log1p(u * u / df))
    if x >= 0:
        return _quad(density, x, math.inf)
    return 1.0 - _quad(density, -math.inf, x)


def oracle_chi_square_sf(x: float, df: int) -> float:
    """Chi-square upper tail by quadrature of the density."""
    if x < 0 or df < 1:
        raise OracleError(f"invalid chi-square arguments x={x}, df={df}")
    half = df / 2.0
    log_norm = -half * math.log(2.0) - math.lgamma(half)
    density = lambda u: math.exp(log_norm + (half - 1.0) * math.log(u) - u / 2.0) if u > 0 else 0.0
    # Lower tail integrates a bounded interval; complement avoids the
    # integrable singularity at 0 for df = 1 meeting an infinite domain.
    return 1.0 - _quad(density, 0.0, x) if x > 0 else 1.0


def oracle_logistic_2x2(a: int, b: int, c: int, d: int) -> tuple[float, float]:
    """Closed-form logistic coefficients from a 2x2 table.

    ``a``/``b`` are events/non-events in the indicator-1 group, ``c``/``d``
    in the reference group. Returns (intercept, log odds ratio).
    """
    if min(a, b, c, d) <= 0:
        raise OracleError("zero cell: the saturated MLE does not exist (separation)")
    return math.log(c / d), math.log((a * d) / (b * c))


_ANCESTORS = {
    "H01": (),
    "H02": ("H01",),
    "H03": ("H01",),
    "H04": ("H01",),
    "H05": ("H01", "H02", "H03"),
    "H06": ("H01", "H02", "H04"),
    "H07": ("H01", "H03", "H04"),
}


def oracle_gatekeeping_enumerate(p_values: dict, alpha: float) -> set:
    """Rejected set for the seven-node hierarchy, by literal rule
    transcription: a node is rejected when its p-value is below alpha and
    every listed ancestor node is rejected."""
    missing = set(_ANCESTORS) - set(p_values)
    if missing:
        raise OracleError(f"p-values missing for nodes {sorted(missing)}")
    rejected = set()
    for node in ("H01", "H02", "H03", "H04", "H05", "H06", "H07"):
        if p_values[node] < alpha and all(anc in rejected for anc in _ANCESTORS[node]):
            rejected.add(node)
    return rejected
