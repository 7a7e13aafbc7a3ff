"""Closed-form saturated fits, the node plans and the checked designs they
hold: the final analysis must give the same p-values, failure flags and
errors as fitting every node by IRLS on the patterns that have subjects,
which this file keeps as the reference."""

import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from fast_trials import final_analysis, stats
from fast_trials.design import load_scenarios
from fast_trials.final_analysis import (
    FinalBranch,
    _saturated_pass,
    _stack,
    analyze_terminated,
    build_final_model,
    gatekeep_both_retained,
    gatekeep_one_retained,
)
from fast_trials.harness import run_replicate
from fast_trials.stats import (
    FittingError,
    InputError,
    check_design,
    fit_logistic_counts,
    lr_test,
)

_ROOT = Path(__file__).resolve().parents[1]

# branch -> (analysis, arm_a values, full columns, node -> reduced columns,
#            columns of the models saturated on their own grouping)
_LAYOUTS = {
    FinalBranch.DOMAIN_A_TERMINATED: (
        analyze_terminated,
        (0,),
        (0, 1),
        {"beta1": (0,)},
        ((0, 1), (0,)),
    ),
    FinalBranch.ONE_ARM_RETAINED: (
        gatekeep_one_retained,
        (0, 1, 2),
        (0, 1, 2),
        {"global": (0,), "beta1": (0, 2), "beta2": (0, 1)},
        ((0,), (0, 2), (0, 1)),
    ),
    FinalBranch.BOTH_ARMS_RETAINED: (
        gatekeep_both_retained,
        (0, 1, 2),
        (0, 1, 2, 3),
        {
            "H01": (0,),
            "H02": (0, 3),
            "H03": (0, 2),
            "H04": (0, 1),
            "H05": (0, 2, 3),
            "H06": (0, 1, 3),
            "H07": (0, 1, 2),
        },
        ((0,), (0, 3), (0, 2), (0, 1), (0, 1, 2)),
    ),
}
_IRLS_FITS = {
    FinalBranch.DOMAIN_A_TERMINATED: 0,
    FinalBranch.ONE_ARM_RETAINED: 1,
    FinalBranch.BOTH_ARMS_RETAINED: 3,
}
_MODES = ("interior", "boundary", "no_b1", "missing_arm", "tiny", "mixed")


def _grouped(table):
    """The design rows (intercept first), events and trials of the patterns
    of a (2, 2^k) table that have subjects; pattern code c has covariate j
    equal to bit k - 1 - j of c."""
    events, trials = table
    k = len(trials).bit_length() - 1
    rows = np.array([[1.0] + [float((c >> (k - 1 - j)) & 1) for j in range(k)] for c in range(2**k)])
    present = trials > 0
    return rows[present], events[present], trials[present]


def _reference_node_tests(table, full_cols, reduced_map):
    """Every node fitted by IRLS: the final analysis before closed forms."""
    rows, events, trials = _grouped(table)
    failed = False
    try:
        full = fit_logistic_counts(rows[:, list(full_cols)], events, trials)
        failed |= not full.converged
        p_values = {}
        for node, reduced_cols in reduced_map.items():
            reduced = fit_logistic_counts(rows[:, list(reduced_cols)], events, trials)
            failed |= not reduced.converged
            p_values[node] = lr_test(
                full.log_likelihood, reduced.log_likelihood, len(full_cols) - len(reduced_cols)
            ).p_value
    except FittingError:
        return {node: 1.0 for node in reduced_map}, True
    return p_values, failed


def _table(rng, branch, mode):
    """A pattern table from random per-(arm_a, arm_b) cell counts."""
    _, arms_a, *_ = _LAYOUTS[branch]
    missing = rng.choice([a for a in arms_a if a > 0]) if mode == "missing_arm" and len(arms_a) > 1 else None
    cells = np.zeros((4, 2, 2), dtype=np.intp)
    for a in arms_a:
        for b in (0, 1):
            if (mode == "no_b1" and b == 1) or a == missing:
                continue
            if mode == "tiny":
                n = int(rng.integers(0, 3))
            elif mode == "mixed":
                n = int(rng.choice([0, 1, 2, int(rng.integers(3, 120))]))
            else:
                n = int(rng.integers(8, 150))
            q = rng.uniform(0.1, 0.9)
            events = int(rng.binomial(n, q))
            if mode == "interior":
                events = min(max(events, 1), n - 1)
            elif mode == "boundary" and rng.random() < 0.4:
                events = 0 if rng.random() < 0.5 else n
            cells[a + 1, b] = n - events, events
    return build_final_model(cells, branch)


def _outcome_or_error(analysis, table):
    try:
        return analysis(table, 0.05)
    except InputError as exc:
        return str(exc)


def _check_against_reference(branch, table, context) -> str:
    """Assert that the branch's analysis of ``table`` gives the reference's
    p-values, failure flag or InputError; return which of them it was."""
    analysis, _, full_cols, reduced_map, _ = _LAYOUTS[branch]
    try:
        expected = _reference_node_tests(table, full_cols, reduced_map)
    except InputError as exc:
        expected = str(exc)
    got = _outcome_or_error(analysis, table)
    if isinstance(expected, str):
        assert got == expected, context
        return "input_error"
    ref_p, ref_failed = expected
    assert got.fit_failed == ref_failed, context
    assert got.node_p_values.keys() == ref_p.keys()
    for node, p in ref_p.items():
        assert got.node_p_values[node] == pytest.approx(p, abs=1e-9, rel=0), (context, node)
    return "failed" if ref_failed else "ok"


@pytest.mark.parametrize("branch", list(_LAYOUTS))
def test_node_p_values_match_all_irls_reference(branch):
    rng = np.random.default_rng(20231019)
    seen = set()
    for _ in range(240):
        mode = _MODES[int(rng.integers(len(_MODES)))]
        seen.add(_check_against_reference(branch, _table(rng, branch, mode), mode))
    # The draws must reach every kind of outcome they are meant to compare.
    assert seen == {"input_error", "failed", "ok"}


@pytest.mark.parametrize("branch", list(_LAYOUTS))
def test_every_presence_mask_matches_all_irls_reference(branch):
    """Each set of patterns with subjects keys its own node plan; every one
    of the 2^(2^k) sets, with interior counts on its patterns, gives the
    reference's p-values or error, and the plans stay within the
    4 + 16 + 256 that exist."""
    n = 2 ** (len(_LAYOUTS[branch][2]) - 1)
    rng = np.random.default_rng(1009)
    seen = set()
    for mask in itertools.product((False, True), repeat=n):
        trials = [int(rng.integers(8, 150)) if m else 0 for m in mask]
        events = [int(rng.integers(1, t)) if t else 0 for t in trials]
        seen.add(_check_against_reference(branch, np.array([events, trials], dtype=float), mask))
        assert final_analysis._node_plan.cache_info().currsize <= 4 + 16 + 256
    assert {"input_error", "ok"} <= seen


def _plan(branch, table):
    return final_analysis._node_plan(branch, tuple((table[1] > 0).tolist()))


@pytest.mark.parametrize("branch", list(_LAYOUTS))
def test_closed_form_matches_irls_on_interior_tables(branch):
    _, _, full_cols, reduced_map, saturated = _LAYOUTS[branch]
    rng = np.random.default_rng(7)
    for _ in range(40):
        table = _table(rng, branch, "interior")
        plan = _plan(branch, table)
        rows, events, trials = _grouped(table)
        closed = _saturated_pass(plan.stack, events, trials)
        models = [full_cols, *reduced_map.values()]
        for cols, design, slot in zip(models, plan.designs, plan.slots):
            np.testing.assert_array_equal(design.rows, rows[:, list(cols)], strict=True)
            assert (slot is not None) == (cols in saturated)
            if slot is None:
                continue
            irls = fit_logistic_counts(design, events, trials)
            assert irls.converged
            assert closed[slot] == pytest.approx(irls.log_likelihood, rel=0, abs=1e-8)


def _closed_form(x, events, trials):
    design = check_design(x)
    assert design.saturated
    return _saturated_pass(_stack([design]), np.asarray(events), np.asarray(trials))[0]


def test_boundary_group_is_left_to_irls():
    # B1 arm with no events: the two-group model has no interior maximum.
    x = np.array([[1.0, 0.0], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(_closed_form(x, [5.0, 0.0], [20.0, 20.0]))
        assert math.isnan(_closed_form(x, [5.0, 20.0], [20.0, 20.0]))
    # Pooled into one group, the same counts are interior.
    loglik = _closed_form(x[:, :1], [5.0, 0.0], [20.0, 20.0])
    assert loglik == pytest.approx(5.0 * math.log(5.0 / 40.0) + 35.0 * math.log(35.0 / 40.0))


def test_closed_form_keeps_input_errors():
    with pytest.raises(InputError, match="trials"):
        analyze_terminated(np.array([[5.0, 21.0], [20.0, 20.0]]), 0.05)
    with pytest.raises(InputError, match="trials"):  # events where no subject is
        analyze_terminated(np.array([[5.0, 1.0], [20.0, 0.0]]), 0.05)
    with pytest.raises(InputError, match="collinear"):  # only B1 subjects
        analyze_terminated(np.array([[0.0, 6.0], [0.0, 20.0]]), 0.05)
    with pytest.raises(InputError, match="pattern table"):
        analyze_terminated(np.array([[5.0, 6.0, 0.0], [20.0, 20.0, 0.0]]), 0.05)


@pytest.mark.parametrize("branch", list(_LAYOUTS))
def test_only_main_effects_models_iterate(branch, monkeypatch):
    analysis = _LAYOUTS[branch][0]
    calls = []

    def counting(*args):
        calls.append(args)
        return fit_logistic_counts(*args)

    monkeypatch.setattr(final_analysis, "fit_logistic_counts", counting)
    table = _table(np.random.default_rng(3), branch, "interior")
    assert not analysis(table, 0.05).fit_failed
    assert len(calls) == _IRLS_FITS[branch]


# -- the checked design ------------------------------------------------------

def test_design_check_matches_matrix_rank():
    rng = np.random.default_rng(99)
    for _ in range(400):
        n, k = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        if rng.random() < 0.5:
            x = rng.integers(0, 2, (n, k)).astype(float)
            x[:, 0] = 1.0
        else:
            x = rng.standard_normal((n, k))
            x[:, 0] = 1.0
            if k > 1 and rng.random() < 0.4:
                x[:, -1] = 2.0 * x[:, 0]
        if rng.random() < 0.3:
            x = np.asfortranarray(x)
        before = x.copy()
        if np.linalg.matrix_rank(x) < k:
            with pytest.raises(InputError, match="collinear"):
                check_design(x)
        else:
            design = check_design(x)
            np.testing.assert_array_equal(design.rows, before, strict=True)
            assert not design.rows.flags.writeable and not design.groups.flags.writeable
        assert x.flags.writeable
        np.testing.assert_array_equal(x, before, strict=True)


def test_warm_replicate_fits_without_rechecking_designs(monkeypatch):
    """Once the node plans of a both-arms replicate exist, its fits use the
    plans' checked designs: a replicate run again with the rank and
    grouping routines disabled gives the same result."""
    config = load_scenarios(_ROOT / "perfbench" / "scenarios" / "both_arms.json")[0]
    cell = (config.n_drop_grid[0], config.n_feas_grid[-1])
    both_arms = FinalBranch.BOTH_ARMS_RETAINED
    seed = next(s for s in range(200) if run_replicate(config, *cell, s).branch is both_arms)
    expected = run_replicate(config, *cell, seed)

    def disabled(*args, **kwargs):
        raise AssertionError("a fit rechecked its design")

    calls = []

    def counting(*args):
        calls.append(args)
        return fit_logistic_counts(*args)

    monkeypatch.setattr(stats, "check_design", disabled)
    monkeypatch.setattr(np.linalg, "matrix_rank", disabled)
    monkeypatch.setattr(np, "unique", disabled)
    monkeypatch.setattr(final_analysis, "fit_logistic_counts", counting)
    assert run_replicate(config, *cell, seed) == expected
    assert len(calls) == _IRLS_FITS[both_arms]


# -- one pass for every saturated node ----------------------------------------

def _reference_saturated_fit(design, events, trials):
    """The per-model closed-form log-likelihood before the one-pass rewrite;
    None where the model is not saturated or has no interior maximum."""
    if not design.saturated:
        return None
    k = design.rows.shape[1]
    e = np.bincount(design.groups, weights=events, minlength=k)
    n = np.bincount(design.groups, weights=trials, minlength=k)
    non_events = n - e
    if not (e.min() > 0 and non_events.min() > 0):
        return None
    p = e / n
    log_p, log_q = np.log(p), np.log1p(-p)
    return float((e * log_p + non_events * log_q).sum())


@pytest.mark.parametrize("branch", list(_LAYOUTS))
def test_one_pass_bit_identical_to_per_node_closed_form(branch):
    rng = np.random.default_rng(4711)
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a boundary group must not warn
        for i in range(360):
            mode = ("interior", "boundary", "tiny", "missing_arm", "no_b1", "mixed")[i % 6]
            table = _table(rng, branch, mode)
            try:
                plan = _plan(branch, table)
            except InputError:
                seen.add("collinear")
                continue
            _, events, trials = _grouped(table)
            closed = _saturated_pass(plan.stack, events, trials)
            for design, slot in zip(plan.designs, plan.slots):
                expected = _reference_saturated_fit(design, events, trials)
                if slot is None:
                    assert expected is None
                    seen.add("unsaturated")
                elif expected is None:
                    assert np.isnan(closed[slot]), mode
                    seen.add("boundary")
                else:
                    assert closed[slot] == expected, mode
                    seen.add("interior")
    # Only the terminated branch has no model that needs IRLS on a full table.
    assert {"interior", "boundary"} | ({"unsaturated"} if _IRLS_FITS[branch] else set()) <= seen
