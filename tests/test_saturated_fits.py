"""Closed-form saturated fits and the branch records' models: the final
analysis, on its one record per branch, must give the same
failure flags and errors as fitting every node by IRLS on the patterns
that have subjects, which this file keeps as the reference, the same
p-values where no fit failed and every p-value 1.0 where one did, and the
same bits as the numpy form of its fits in ``reference_kernels``. A
pattern table holds only the patterns a subject can have."""

import collections
import dataclasses
import functools
import itertools
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import reference_kernels

from fast_trials import final_analysis, harness, stats
from fast_trials.design import load_scenarios, validate_scenario
from fast_trials.final_analysis import (
    _BRANCHES,
    FinalBranch,
    analyze_terminated,
    build_final_model,
    closed_test,
    gatekeep_both_retained,
    gatekeep_one_retained,
)
from fast_trials.harness import run_grid, run_replicate
from fast_trials.stats import (
    FittingError,
    InputError,
    _check_table,
    _saturated_pass,
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
_MAIN_EFFECTS_FITS = {
    FinalBranch.DOMAIN_A_TERMINATED: 0,
    FinalBranch.ONE_ARM_RETAINED: 1,
    FinalBranch.BOTH_ARMS_RETAINED: 3,
}
_MODES = ("interior", "boundary", "no_b1", "missing_arm", "tiny", "mixed")


@functools.cache
def _model_rows(branch):
    """The checked design rows of the branch's full model, then of every
    node's reduced model, on the patterns a subject can have: the models
    of the branch record, in its order."""
    _, _, full_cols, reduced_map, _ = _LAYOUTS[branch]
    rows, _, _ = _grouped(np.ones((2, _BRANCHES[branch].patterns)))
    return tuple(check_design(rows[:, list(cols)]) for cols in (full_cols, *reduced_map.values()))


def _grouped(table):
    """The design rows (intercept first), events and trials of the patterns
    of a (2, 2), (2, 4) or (2, 6) table that have subjects; of k = 1, 2 or
    3 covariates, pattern code c has covariate j equal to bit k - 1 - j of
    c."""
    events, trials = table
    k = (len(trials) - 1).bit_length()
    rows = np.array([[1.0] + [float((c >> (k - 1 - j)) & 1) for j in range(k)] for c in range(len(trials))])
    present = trials > 0
    return rows[present], events[present], trials[present]


def _fit_rows(rows, events, trials):
    """IRLS fit of raw design rows, checking the counts before the design."""
    _check_table(events.tolist(), trials.tolist(), rows.shape[1])
    return reference_kernels.irls(check_design(rows), events, trials)


def _reference_node_tests(table, full_cols, reduced_map):
    """Every node fitted by IRLS: the final analysis before closed forms."""
    rows, events, trials = _grouped(table)
    failed = False
    try:
        full = _fit_rows(rows[:, list(full_cols)], events, trials)
        failed |= not full.converged
        p_values = {}
        for node, reduced_cols in reduced_map.items():
            reduced = _fit_rows(rows[:, list(reduced_cols)], events, trials)
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
    failure flag or InputError, and its p-values unless the replicate is
    flagged, when every p-value is 1.0; return which of them it was. A
    table whose patterns with subjects make the full design collinear, which
    the reference's design check rejects, is flagged too."""
    analysis, _, full_cols, reduced_map, _ = _LAYOUTS[branch]
    kind = None
    try:
        expected = _reference_node_tests(table, full_cols, reduced_map)
    except InputError as exc:
        expected = str(exc)
    got = _outcome_or_error(analysis, table)
    if isinstance(expected, str) and "collinear" not in expected:
        assert got == expected, context
        return "input_error"
    if isinstance(expected, str):
        expected, kind = ({node: 1.0 for node in reduced_map}, True), "collinear"
    ref_p, ref_failed = expected
    assert got.fit_failed == ref_failed, context
    assert got.node_p_values.keys() == ref_p.keys()
    if ref_failed:
        assert set(got.node_p_values.values()) == {1.0}, context
        assert got.rejected == got.successful_arms == frozenset()
    else:
        for node, p in ref_p.items():
            assert got.node_p_values[node] == pytest.approx(p, abs=1e-9, rel=0), (context, node)
    _assert_matches_numpy_oracles(branch, table)
    return kind or ("failed" if ref_failed else "ok")


def _assert_matches_numpy_oracles(branch, table) -> collections.Counter:
    """Assert that on a checked table every saturated model's closed form
    and every other model's fit equal their numpy forms bit for bit, on
    the branch's record: log-likelihood, convergence flags, iteration count
    and coefficients. Count the models by how they were fitted, and the
    models without an MLE."""
    record = _BRANCHES[branch]
    designs = _model_rows(branch)
    events, trials = table
    closed = _saturated_pass(record.groups, events.tolist(), trials.tolist())
    saturated = [rows for rows, model in zip(designs, record.models) if isinstance(model, int)]
    groups, owner = reference_kernels.saturated_groups(saturated)
    expected = reference_kernels.saturated_pass(groups, owner, events, trials)
    np.testing.assert_array_equal(np.array(closed), expected, strict=True)  # nan where nan
    kinds = collections.Counter()
    for rows, model in zip(designs, record.models):
        if isinstance(model, int):
            kinds["boundary" if math.isnan(closed[model]) else "closed"] += 1
            continue
        fit = fit_logistic_counts(model, events.tolist(), trials.tolist())
        labels = reference_kernels.row_strata(rows)
        reference = reference_kernels.profile_fit(rows, events, trials, labels)
        assert fit[2:] == reference[2:]
        if not reference.converged:
            assert math.isnan(fit.log_likelihood) and math.isnan(reference.log_likelihood)
            kinds["no_mle"] += 1
        else:
            assert fit.log_likelihood == reference.log_likelihood
        np.testing.assert_array_equal(fit.coefficients, reference.coefficients, strict=True)  # nan where nan
        kinds["profile"] += 1
    return kinds


@pytest.mark.parametrize("branch", list(_LAYOUTS))
def test_node_p_values_match_all_irls_reference(branch):
    rng = np.random.default_rng(20231019)
    seen = set()
    for _ in range(240):
        mode = _MODES[int(rng.integers(len(_MODES)))]
        seen.add(_check_against_reference(branch, _table(rng, branch, mode), mode))
    # The draws must reach every kind of outcome they are meant to compare.
    assert seen == {"input_error", "collinear", "failed", "ok"}


@pytest.mark.parametrize("branch", list(_LAYOUTS))
def test_every_presence_mask_matches_all_irls_reference(branch):
    """Every set of the patterns a subject can have that have subjects,
    with interior counts on its patterns, gives the reference's p-values or
    error on the branch's one record."""
    n = _BRANCHES[branch].patterns
    rng = np.random.default_rng(1009)
    seen = set()
    for mask in itertools.product((False, True), repeat=n):
        trials = [int(rng.integers(8, 150)) if m else 0 for m in mask]
        events = [int(rng.integers(1, t)) if t else 0 for t in trials]
        seen.add(_check_against_reference(branch, np.array([events, trials], dtype=float), mask))
    assert {"input_error", "collinear", "ok"} <= seen


@pytest.mark.parametrize("branch", list(_LAYOUTS))
def test_small_counts_on_every_mask_decide_as_all_irls_reference(branch):
    """Every set of the patterns a subject can have, with 1 to 40 trials on
    each and any number of events: small tables reach empty strata and
    groups at 0 or at all events, and the analysis flags the replicate and
    rejects the nodes at alpha 0.05 as the all-IRLS reference decides."""
    analysis, _, full_cols, reduced_map, _ = _LAYOUTS[branch]
    patterns = _BRANCHES[branch].patterns
    rng = np.random.default_rng(2029)
    seen = collections.Counter()
    for mask in itertools.product((False, True), repeat=patterns):
        for _ in range(40):
            trials = [int(rng.integers(1, 41)) if m else 0 for m in mask]
            events = [int(rng.integers(0, t + 1)) for t in trials]
            table = np.array([events, trials], dtype=float)
            try:
                p_values, failed = _reference_node_tests(table, full_cols, reduced_map)
            except InputError as exc:
                if "collinear" not in str(exc):
                    with pytest.raises(InputError, match=re.escape(str(exc))):
                        analysis(table, 0.05)
                    seen["input_error"] += 1
                    continue
                p_values, failed = {}, True
            got = analysis(table, 0.05)
            assert got.fit_failed == failed, (mask, table)
            assert got.rejected == (frozenset() if failed else closed_test(branch, p_values, 0.05)), (mask, table)
            seen["failed" if failed else "rejected" if got.rejected else "ok"] += 1
    assert seen["failed"] and seen["rejected"] and seen["ok"]


@pytest.mark.parametrize(
    "path, replicates",
    [
        ("perfbench/scenarios/both_arms.json", 32),
        ("scenarios/timing_study.json", 11),
        ("tests/data/rare_events.json", 500),
    ],
)
def test_real_replicates_match_all_irls_reference(monkeypatch, path, replicates):
    """The pattern tables of real replicates, every cell of each scenario's
    grid, at least 2000 per file: the main-effects models fit by profile
    Newton, and the reference fits every model by IRLS. The rare-event
    scenario reaches tables without an MLE, which flag their replicates;
    the shipped ones do not."""
    tables = []
    fits = collections.Counter()

    def recording_build_final_model(cells, branch):
        table = build_final_model(cells, branch)
        tables.append((FinalBranch(branch), table.copy()))
        return table

    def recording_profile_fit(*args):
        fit = profile_fit(*args)
        fits["profile" if fit.converged else "no_mle"] += 1
        return fit

    profile_fit = stats._profile_fit
    with monkeypatch.context() as patch:
        patch.setattr(harness, "build_final_model", recording_build_final_model)
        patch.setattr(stats, "_profile_fit", recording_profile_fit)
        for config in load_scenarios(_ROOT / path):
            run_grid(dataclasses.replace(config, replicates=replicates))
    assert len(tables) >= 2000
    assert fits["profile"] > 0
    seen = collections.Counter()
    for i, (branch, table) in enumerate(tables):
        seen[branch, _check_against_reference(branch, table, (path, i))] += 1
    assert seen[FinalBranch.BOTH_ARMS_RETAINED, "ok"] + seen[FinalBranch.ONE_ARM_RETAINED, "ok"] >= 100
    rare = path.startswith("tests/")
    assert (fits["no_mle"] > 0) == rare
    assert (sum(n for (_, kind), n in seen.items() if kind == "failed") > 0) == rare


# branch -> (scenario file, replicates per cell) giving >= 2000 of its tables
_REAL_TABLES = {
    FinalBranch.DOMAIN_A_TERMINATED: ("scenarios/null.json", 36),
    FinalBranch.ONE_ARM_RETAINED: ("scenarios/high_effect.json", 32),
    FinalBranch.BOTH_ARMS_RETAINED: ("perfbench/scenarios/both_arms.json", 32),
}


@pytest.mark.parametrize("branch", list(_REAL_TABLES))
def test_real_tables_match_the_numpy_oracles(monkeypatch, branch):
    """At least 2000 pattern tables of the branch from real replicates of a
    shipped scenario: every closed form and every fit equals its numpy form
    bit for bit."""
    path, replicates = _REAL_TABLES[branch]
    tables = []

    def recording_build_final_model(cells, table_branch):
        table = build_final_model(cells, table_branch)
        if table_branch is branch:
            tables.append(table.copy())
        return table

    with monkeypatch.context() as patch:
        patch.setattr(harness, "build_final_model", recording_build_final_model)
        config = load_scenarios(_ROOT / path)[0]
        run_grid(dataclasses.replace(config, replicates=replicates))
    assert len(tables) >= 2000
    kinds = collections.Counter()
    for table in tables:
        kinds += _assert_matches_numpy_oracles(branch, table)
    assert kinds["closed"] > 0
    if _MAIN_EFFECTS_FITS[branch]:
        assert kinds["profile"] > 0


def test_collinear_design_flags_the_replicate():
    """A table whose patterns with subjects leave the full design collinear
    has no fit to test: the replicate is flagged, every p-value is 1.0 and
    nothing is rejected, as for a failed fit."""
    no_b1 = {  # subjects in every domain-A arm, none in B1
        analyze_terminated: [[5.0, 0.0], [20.0, 0.0]],
        gatekeep_one_retained: [[5.0, 0.0, 7.0, 0.0], [20.0, 0.0, 30.0, 0.0]],
        gatekeep_both_retained: [[5.0, 0.0, 6.0, 0.0, 7.0, 0.0], [20.0, 0.0, 25.0, 0.0, 30.0, 0.0]],
    }
    cases = [(analysis, np.array(table)) for analysis, table in no_b1.items()]
    cases.append((analyze_terminated, np.array([[0.0, 6.0], [0.0, 20.0]])))  # only B1 subjects
    cases.append((gatekeep_one_retained, np.array([[5.0, 0.0, 0.0, 7.0], [20.0, 0.0, 0.0, 30.0]])))  # B1 = fluid
    for analysis, table in cases:
        outcome = analysis(table, 0.05)
        assert outcome.fit_failed, table
        assert set(outcome.node_p_values.values()) == {1.0}
        assert outcome.rejected == outcome.successful_arms == frozenset()
    # A validated scenario whose replicates reach it: null.json cut to 10
    # subjects with both interims at 9. These seeds draw every subject into
    # one domain-B arm on the terminated branch.
    config = dataclasses.replace(
        load_scenarios(_ROOT / "scenarios" / "null.json")[0], n_total=10, n_drop_grid=(9,), n_feas_grid=(9,)
    )
    validate_scenario(config)
    for seed in (367, 1465, 2857):
        result = run_replicate(config, 9, 9, seed)
        assert result.branch is FinalBranch.DOMAIN_A_TERMINATED and result.failed
        assert result.gatekeeping.node_p_values == {"beta1": 1.0}


@pytest.mark.parametrize("branch", list(_LAYOUTS))
def test_closed_form_matches_irls_on_interior_tables(branch):
    _, _, full_cols, reduced_map, saturated = _LAYOUTS[branch]
    rng = np.random.default_rng(7)
    record = _BRANCHES[branch]
    for _ in range(40):
        table = _table(rng, branch, "interior")
        rows, events, trials = _grouped(table)
        closed = _saturated_pass(record.groups, events.tolist(), trials.tolist())
        models = [full_cols, *reduced_map.values()]
        for cols, model in zip(models, record.models):
            assert isinstance(model, int) == (cols in saturated)
            if not isinstance(model, int):
                continue
            irls = reference_kernels.irls(check_design(rows[:, list(cols)]), events, trials)
            assert irls.converged
            assert closed[model] == pytest.approx(irls.log_likelihood, rel=0, abs=1e-8)


def test_record_maps_the_groups_and_strata_of_every_model():
    """Each branch's one record holds its models on the patterns a subject
    can have, the first 2, 4 and 6 binary codes, in the order full model,
    then the nodes of ``HIERARCHY`` supersets first. A saturated model is
    its index among the record's groups, and each group holds the rows that
    are equal on the model's columns; every other model is its stratum
    map: rows in one stratum agree on every column but the last, and the
    strata are as many as those columns."""
    for branch, patterns in zip(_LAYOUTS, (2, 4, 6)):
        _, _, full_cols, reduced_map, saturated = _LAYOUTS[branch]
        record = _BRANCHES[branch]
        assert record.patterns == patterns
        assert record.columns == len(full_cols)
        assert [node.label for node in record.nodes] == list(reduced_map)
        assert [node.df for node in record.nodes] == [len(full_cols) - len(c) for c in reduced_map.values()]
        rows, _, _ = _grouped(np.ones((2, patterns)))
        models = [full_cols, *reduced_map.values()]
        indices = [model for model in record.models if isinstance(model, int)]
        assert indices == list(range(len(record.groups))) == list(range(len(saturated)))
        for cols, model in zip(models, record.models):
            design = rows[:, list(cols)]
            assert isinstance(model, int) == (cols in saturated)
            if isinstance(model, int):
                groups = record.groups[model]
                assert len(groups) == design.shape[1]
                assert sorted(r for group in groups for r in group) == list(range(patterns))
                keys = [{tuple(design[r]) for r in group} for group in groups]
                assert all(len(key) == 1 for key in keys) and len(set.union(*keys)) == len(groups)
                continue
            strata = model
            head = design[:, :-1]
            of_row = np.array(strata.of_row)
            assert len(set(strata.of_row)) == head.shape[1] == len(np.unique(head, axis=0))
            for s in set(strata.of_row):
                assert len(np.unique(head[of_row == s], axis=0)) == 1
            # the inverse maps the strata's intercepts to the design's columns
            first = [strata.of_row.index(s) for s in range(head.shape[1])]
            np.testing.assert_array_equal(np.array(strata.inverse) @ head[first], np.eye(head.shape[1]))
            assert strata.treated == tuple(design[:, -1].tolist())


def _plan_or_error(plan, rows):
    try:
        return plan(rows)
    except InputError as error:
        return str(error)


def test_fit_plan_is_the_np_unique_plan():
    """``_fit_plan`` groups rows as Python tuples: the same groups in the
    same order, the same stratum maps and the same errors as the plan by
    ``np.unique``, on every branch model, on seeded random 0/1 designs and
    on three designs with a -0.0 entry, which both merge with 0.0."""
    kinds = collections.Counter()
    designs = [rows for branch in _LAYOUTS for rows in _model_rows(branch)]
    for branch in _LAYOUTS:
        for rows, model in zip(_model_rows(branch), _BRANCHES[branch].models):
            expected = model if isinstance(model, stats.Strata) else _BRANCHES[branch].groups[model]
            assert stats._fit_plan(rows) == expected
    rng = np.random.default_rng(31)
    for _ in range(300):
        k = int(rng.integers(2, 5))
        x = np.ones((int(rng.integers(k, 3 * k + 3)), k))
        x[:, 1:] = rng.integers(0, 2, size=(x.shape[0], k - 1))
        try:
            designs.append(check_design(x))
        except InputError:
            continue
    signed = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, -0.0, 1.0], [1.0, 1.0, 1.0]])
    designs += [check_design(signed), check_design(signed[:4]), check_design(signed[[0, 1, 3]])]
    for rows in designs:
        plan = _plan_or_error(stats._fit_plan, rows)
        assert plan == _plan_or_error(reference_kernels.fit_plan, rows)
        kinds[type(plan).__name__] += 1
    assert set(kinds) == {"tuple", "Strata", "str"} and min(kinds.values()) >= 20


def test_both_arms_table_of_eight_patterns_is_a_shape_error():
    """A both-arms pattern table has the 6 patterns a subject can have: one
    with columns for codes 6 and 7, A1 and A2 at once, is rejected by its
    shape, with or without subjects there."""
    table = np.array([[5.0, 9.0, 7.0, 12.0, 6.0, 11.0], [40.0] * 6])
    assert not gatekeep_both_retained(table, 0.05).fit_failed
    for trials in (0.0, 1.0):
        wide = np.concatenate([table, [[0.0, 0.0], [trials, trials]]], axis=1)
        with pytest.raises(InputError, match=re.escape("needs a (2, 6) pattern table, got shape (2, 8)")):
            gatekeep_both_retained(wide, 0.05)


def _closed_form(x, events, trials):
    rows = check_design(x)
    distinct, groups = np.unique(rows, axis=0, return_inverse=True)
    assert len(distinct) == rows.shape[1]
    rows = tuple(tuple(np.flatnonzero(groups.reshape(-1) == g).tolist()) for g in range(len(distinct)))
    return _saturated_pass((rows,), events, trials)[0]


def test_boundary_group_has_no_closed_form():
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
    assert len(calls) == _MAIN_EFFECTS_FITS[branch]


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
            rows = check_design(x)
            np.testing.assert_array_equal(rows, before, strict=True)
            assert not rows.flags.writeable
        assert x.flags.writeable
        np.testing.assert_array_equal(x, before, strict=True)
    for branch in FinalBranch:  # a record's groupings are shared: tuples all the way down
        record = _BRANCHES[branch]
        assert isinstance(record.groups, tuple)
        assert all(isinstance(g, tuple) and all(type(r) is int for r in g) for model in record.groups for g in model)


def test_warm_replicate_fits_without_rechecking_designs(monkeypatch):
    """Once the branch records exist, a both-arms replicate's fits use the
    records' stratum maps: a replicate run again with the rank and
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
    assert len(calls) == _MAIN_EFFECTS_FITS[both_arms]


# -- one pass for every saturated node ----------------------------------------

def _reference_saturated_fit(rows, events, trials):
    """The per-model closed-form log-likelihood before the one-pass rewrite;
    None where the model is not saturated or has no interior maximum."""
    distinct, groups = np.unique(rows, axis=0, return_inverse=True)
    groups = groups.reshape(-1)
    k = rows.shape[1]
    if len(distinct) != k:
        return None
    e = np.bincount(groups, weights=events, minlength=k)
    n = np.bincount(groups, weights=trials, minlength=k)
    non_events = n - e
    if not (e.min() > 0 and non_events.min() > 0):
        return None
    p = e / n
    log_p, log_q = np.log(p), np.log1p(-p)
    return float((e * log_p + non_events * log_q).sum())


@pytest.mark.parametrize("branch", list(_LAYOUTS))
def test_one_pass_bit_identical_to_per_node_closed_form(branch):
    rng = np.random.default_rng(4711)
    record, designs = _BRANCHES[branch], _model_rows(branch)
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a boundary or empty group must not warn
        for i in range(360):
            mode = ("interior", "boundary", "tiny", "missing_arm", "no_b1", "mixed")[i % 6]
            table = _table(rng, branch, mode)
            events, trials = table
            closed = _saturated_pass(record.groups, events.tolist(), trials.tolist())
            saturated = [rows for rows, model in zip(designs, record.models) if isinstance(model, int)]
            bincount_form = reference_kernels.saturated_pass(*reference_kernels.saturated_groups(saturated), events, trials)
            np.testing.assert_array_equal(np.array(closed), bincount_form, strict=True)  # nan where nan
            for rows, model in zip(designs, record.models):
                expected = _reference_saturated_fit(rows, events, trials)
                if not isinstance(model, int):
                    assert expected is None
                    seen.add("unsaturated")
                elif expected is None:
                    assert np.isnan(closed[model]), mode
                    seen.add("boundary")
                else:
                    assert closed[model] == expected, mode
                    seen.add("interior")
    # Only the terminated branch has no main-effects model.
    assert {"interior", "boundary"} | ({"unsaturated"} if _MAIN_EFFECTS_FITS[branch] else set()) <= seen
