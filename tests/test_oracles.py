"""Internal checks of the verification oracles plus light main-path
equivalence runs (the full-size equivalence sweeps live in the acceptance
suite)."""

import numpy as np
import pytest

from fast_trials.final_analysis import gate_three_parameter
from fast_trials.oracles import (
    OracleError,
    oracle_chi_square_sf,
    oracle_gatekeeping_enumerate,
    oracle_logistic_2x2,
    oracle_normal_cdf,
    oracle_t_sf,
)
from fast_trials.stats import chi_square_sf, fit_logistic, normal_cdf, t_sf

_NODES = ("H01", "H02", "H03", "H04", "H05", "H06", "H07")


def test_oracle_t_sf_trivial_cases():
    assert oracle_t_sf(0.0, 5.0) == pytest.approx(0.5, abs=1e-10)
    # df=1 is Cauchy with SF(1) = 1/4.
    assert oracle_t_sf(1.0, 1.0) == pytest.approx(0.25, abs=1e-10)


def test_oracle_normal_reference():
    assert oracle_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    assert oracle_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-9)


def test_oracle_chi_square_df2_closed_form():
    assert oracle_chi_square_sf(6.0, 2) == pytest.approx(np.exp(-3.0), abs=1e-10)


def test_distributions_match_oracles_on_sample_grid():
    for z in np.linspace(-4.0, 4.0, 9):
        assert abs(normal_cdf(z) - oracle_normal_cdf(z)) < 1e-8
    for df in (1.0, 4.5, 20.0):
        for x in (-3.0, -0.5, 0.8, 2.5):
            assert abs(t_sf(x, df) - oracle_t_sf(x, df)) < 1e-8
    for df in (1, 3, 9):
        for x in (0.2, 1.7, 6.0, 15.0):
            assert abs(chi_square_sf(x, df) - oracle_chi_square_sf(x, df)) < 1e-8


def test_oracle_logistic_symmetry_cases():
    assert oracle_logistic_2x2(50, 50, 50, 50) == pytest.approx((0.0, 0.0))
    assert oracle_logistic_2x2(10, 10, 10, 10) == pytest.approx((0.0, 0.0))


def test_oracle_logistic_frozen_case():
    b0, b1 = oracle_logistic_2x2(30, 70, 20, 80)
    assert b0 == pytest.approx(-1.386294, abs=1e-6)
    assert b1 == pytest.approx(0.538997, abs=1e-6)


def test_oracle_logistic_matches_fit_logistic():
    x = np.ones((60, 2))
    x[:, 1] = np.r_[np.zeros(30), np.ones(30)]
    y = np.r_[np.ones(9), np.zeros(21), np.ones(17), np.zeros(13)]
    fit = fit_logistic(x, y)
    b0, b1 = oracle_logistic_2x2(17, 13, 9, 21)
    assert fit.coefficients[0] == pytest.approx(b0, abs=1e-8)
    assert fit.coefficients[1] == pytest.approx(b1, abs=1e-8)


def test_oracle_logistic_declines_zero_cells():
    with pytest.raises(OracleError):
        oracle_logistic_2x2(0, 10, 5, 5)


def test_gatekeeping_enumerator_extremes():
    zeros = {node: 0.0 for node in _NODES}
    ones = {node: 1.0 for node in _NODES}
    assert oracle_gatekeeping_enumerate(zeros, 0.05) == set(_NODES)
    assert oracle_gatekeeping_enumerate(ones, 0.05) == set()


def test_gatekeeping_enumerator_requires_all_nodes():
    with pytest.raises(OracleError):
        oracle_gatekeeping_enumerate({"H01": 0.01}, 0.05)


def test_gatekeeping_enumerator_matches_main_gating():
    rng = np.random.default_rng(3141)
    for _ in range(200):
        # Mix coarse and fine p-values so gate boundaries are exercised.
        p = {node: float(rng.choice([0.0, 0.01, 0.04, 0.06, 0.5, rng.random()])) for node in _NODES}
        assert oracle_gatekeeping_enumerate(p, 0.05) == set(gate_three_parameter(p, 0.05))

