"""results.csv schema and format pinning, manifest hashing, SVG rendering,
and CLI exit-code behavior."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fast_trials
from fast_trials import final_analysis
from fast_trials.design import ScenarioConfig, load_scenarios, validate_scenario
from fast_trials.final_analysis import HIERARCHY, FinalBranch
from fast_trials.harness import TRACE_FIELDS, _task_size, run_grid, run_grid_detail
from fast_trials.reporting import (
    RESULTS_COLUMNS,
    ReportError,
    config_hash,
    read_results_csv,
    render_heatmaps_svg,
    results_rows,
    write_results_csv,
    write_trace_csv,
)
from fast_trials.stats import Strata

ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = Path(__file__).parent / "data"
SRC = Path(fast_trials.__file__).resolve().parent.parent


def _golden_config():
    return validate_scenario(
        ScenarioConfig(
            scenario_id=7,
            biomarker_effects={"A1": (-8.0, 8.0), "A2": (-8.0, 8.0)},
            biomarker_sds=(12.0, 12.0),
            benefit_directions=("decrease", "increase"),
            phase3_effects={"A1": 0.12, "A2": 0.12, "B1": 0.08},
            n_total=120,
            n_drop_grid=(60, 90),
            n_feas_grid=(60, 90),
            replicates=12,
            base_seed=31415,
        )
    )


def _golden_both_arms_config():
    # Shaped like perfbench/scenarios/both_arms.json: y11 nominates A1 and
    # y12 nominates A2, so nearly every replicate keeps both arms.
    return validate_scenario(
        ScenarioConfig(
            scenario_id=4,
            biomarker_effects={"A1": (10.0, 0.0), "A2": (0.0, -10.0)},
            biomarker_sds=(5.0, 5.0),
            benefit_directions=("increase", "decrease"),
            phase3_effects={"A1": 0.1, "A2": 0.1, "B1": 0.1},
            n_total=200,
            n_drop_grid=(60, 90),
            n_feas_grid=(60, 90),
            replicates=12,
            base_seed=52100044,
        )
    )


def _cli_config_doc(**overrides):
    doc = {
        "scenario_id": 0,
        "biomarker_effects": {"A1": [-10.0, 10.0], "A2": [-10.0, 10.0]},
        "biomarker_sds": [10.0, 10.0],
        "benefit_directions": ["decrease", "increase"],
        "phase3_effects": {"A1": 0.1, "A2": 0.1, "B1": 0.0},
        "control_event_rate": 0.4,
        "n_total": 200,
        "n_drop_grid": [60, 90],
        "n_feas_grid": [60, 90],
        "alpha_drop": 0.05,
        "alpha_feas": 0.05,
        "alpha_final": 0.05,
        "default_retained_arm": "A2",
        "replicates": 8,
        "base_seed": 271828,
    }
    doc.update(overrides)
    return doc


def _run_cli(*args, env=None):
    # The CLI runs on the package these tests import, installed or not.
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    full_env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "fast_trials.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


# -- schema and format ------------------------------------------------------------

def test_golden_results_csv_is_stable(tmp_path):
    out = tmp_path / "results.csv"
    write_results_csv(run_grid(_golden_config()), out)
    golden = (DATA_DIR / "golden_results.csv").read_bytes()
    assert out.read_bytes() == golden


def test_golden_trace_csv_is_stable(tmp_path):
    # Pins the per-replicate decisions and hypothesis p-values, which
    # results.csv aggregates away.
    out = tmp_path / "trace.csv"
    _, traces = run_grid_detail(_golden_config(), collect_traces=True)
    write_trace_csv(traces, TRACE_FIELDS, out)
    assert out.read_bytes() == (DATA_DIR / "golden_trace.csv").read_bytes()


def test_golden_both_arms_trace_csv_is_stable(tmp_path):
    # The golden trace above never reaches the both-arms branch; this one
    # pins its seven node p-values and closed-test rejections.
    out = tmp_path / "trace.csv"
    _, traces = run_grid_detail(_golden_both_arms_config(), collect_traces=True)
    assert sum(row["branch"] == "both_arms_retained" for row in traces) >= 40
    write_trace_csv(traces, TRACE_FIELDS, out)
    assert out.read_bytes() == (DATA_DIR / "golden_trace_both_arms.csv").read_bytes()


def test_trace_row_with_other_keys_than_the_fields_is_rejected(tmp_path):
    row = dict.fromkeys(TRACE_FIELDS, 1)
    write_trace_csv([row], TRACE_FIELDS, tmp_path / "trace.csv")
    extra = {**row, "extra": 2}
    missing = {k: v for k, v in row.items() if k != "branch"}
    swapped = {**missing, "extra": 2}
    for bad in (extra, missing, swapped):
        with pytest.raises(ValueError, match="keys differ from the fields"):
            write_trace_csv([row, bad], TRACE_FIELDS, tmp_path / "trace.csv")
    write_trace_csv([{"a": 1}], ("a",), tmp_path / "one.csv")  # one field is a row of one value
    assert (tmp_path / "one.csv").read_text() == "a\n1\n"


def test_flagged_replicates_report_every_node_as_one(tmp_path, monkeypatch):
    """The rare-event scenario, 2% control events in 200 subjects, flags
    replicates whose final models have no MLE, on the terminated and the
    one-arm branch. Its results and trace are the same bytes at 1, 2 and 3
    workers; a flagged trace row has every field, reads 1 at every node of
    its branch and rejects nothing. No fit of a table built from a cell
    table goes without a stratum map, so none of them runs IRLS."""
    (config,) = load_scenarios(DATA_DIR / "rare_events.json")
    fit = final_analysis.fit_logistic_counts
    strata_given = []

    def recording_fit(strata, events, trials):
        strata_given.append(isinstance(strata, Strata))
        return fit(strata, events, trials)

    outputs = set()
    for threads in (1, 2, 3):
        with monkeypatch.context() as patch:
            if threads == 1:  # in this process
                patch.setattr(final_analysis, "fit_logistic_counts", recording_fit)
            results, traces = run_grid_detail(config, threads=threads, collect_traces=True)
        write_results_csv(results, tmp_path / "results.csv")
        write_trace_csv(traces, TRACE_FIELDS, tmp_path / "trace.csv")
        outputs.add((tmp_path / "results.csv").read_bytes() + (tmp_path / "trace.csv").read_bytes())
    assert len(outputs) == 1
    assert strata_given and all(strata_given)
    assert sum(cell.n_failed for cell in results) > 0
    flagged = [row for row in traces if row["fit_failed"]]
    assert {row["branch"] for row in flagged} == {"domain_a_terminated", "one_arm_retained"}
    for row in flagged:
        assert tuple(row) == TRACE_FIELDS
        nodes = sorted(HIERARCHY[FinalBranch(row["branch"])])
        assert row["hypothesis_p_values"] == ";".join(f"{node}=1" for node in nodes)
        assert row["rejected"] == row["successful_arms"] == ""
        assert row["order_first"] and row["n_clamped"] >= 0


def test_manifest_tallies_branches_and_default_arm_of_unflagged_replicates(tmp_path):
    """Each scenario entry of the manifest sums its cells' ``n_used_default``
    and ``branch_counts``, which count unflagged replicates only: on the
    rare-event scenario, which flags some, the branch counts add up to
    ``n_effective``, and both tallies equal the trace's unflagged rows."""
    out = tmp_path / "out"
    r = _run_cli("simulate", "--config", str(DATA_DIR / "rare_events.json"), "--out", str(out), "--trace")
    assert r.returncode == 0, r.stderr
    (entry,) = json.loads((out / "manifest.json").read_text())["scenarios"]
    assert entry["n_failed"] > 0
    assert sum(entry["branch_counts"].values()) == entry["n_effective"]
    assert sorted(entry["branch_counts"]) == sorted(b.value for b in FinalBranch)
    with open(out / "trace_scenario_3.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["fit_failed"] == "0"]
    assert entry["branch_counts"] == {b.value: sum(row["branch"] == b.value for row in rows) for b in FinalBranch}
    assert entry["n_used_default"] == sum(row["used_default"] == "1" for row in rows) > 0


def test_results_columns_pinned():
    assert RESULTS_COLUMNS == (
        "scenario_id",
        "n_drop",
        "n_feas",
        "order_first",
        "p_retain_correct",
        "p_retain_both",
        "p_proceed",
        "p_success_A1",
        "p_success_A2",
        "p_success_Apooled",
        "p_success_B1",
        "p_success_A1_B1",
        "p_success_A2_B1",
        "power",
        "fwer",
        "n_effective",
        "n_failed",
    )


def test_float_format_six_fraction_digits(tmp_path):
    out = tmp_path / "r.csv"
    write_results_csv(run_grid(_golden_config()), out)
    line = out.read_text().splitlines()[1].split(",")
    for column, value in zip(RESULTS_COLUMNS, line):
        if column.startswith("p_") or column in ("power", "fwer"):
            whole, frac = value.split(".")
            assert len(frac) == 6, (column, value)


def test_read_results_round_trip(tmp_path):
    out = tmp_path / "r.csv"
    results = run_grid(_golden_config())
    write_results_csv(results, out)
    rows = read_results_csv(out)
    assert len(rows) == 4
    assert rows[0]["scenario_id"] == 7
    assert rows[0]["p_proceed"] == pytest.approx(results[0].p_proceed, abs=1e-6)


def test_results_csv_round_trips_every_column(tmp_path):
    # The timing study and the both-arms benchmark scenario, at 3 replicates
    # a cell, reach every final branch.
    configs = load_scenarios(ROOT / "scenarios" / "timing_study.json")
    configs += load_scenarios(ROOT / "perfbench" / "scenarios" / "both_arms.json")
    results, traces = [], []
    for config in configs:
        cells, rows = run_grid_detail(dataclasses.replace(config, replicates=3), collect_traces=True)
        results += cells
        traces += rows
    one_per_branch = {row["branch"]: row for row in traces}
    assert set(one_per_branch) == {branch.value for branch in FinalBranch}
    for row in one_per_branch.values():
        assert tuple(row) == TRACE_FIELDS

    out = tmp_path / "r.csv"
    write_results_csv(results, out)
    expected = results_rows(results)
    read = read_results_csv(out)
    assert len(read) == len(expected) == 4 * 64
    for got, want in zip(read, expected):
        assert tuple(got) == tuple(want) == RESULTS_COLUMNS
        for column, value in want.items():
            if column.startswith("p_") or column in ("power", "fwer"):
                assert got[column] == float(f"{value:.6f}"), column
            else:
                assert got[column] == value and type(got[column]) is type(value), column


def test_readme_lists_the_results_columns():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    outputs = readme.split("Outputs in `--out`:")[1].split("\n## ")[0]
    bullet = outputs.split("* `results.csv`")[1].split("\n* ")[0]
    listed = re.search(r"column set\s+`([^`]*)`", bullet).group(1)
    assert tuple(column.strip() for column in listed.split(",")) == RESULTS_COLUMNS


def test_read_results_missing_column_named(tmp_path):
    out = tmp_path / "r.csv"
    write_results_csv(run_grid(_golden_config()), out)
    text = out.read_text().replace("power,", "strength,")
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    with pytest.raises(ReportError, match="power"):
        read_results_csv(bad)


def test_read_results_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("scenario_id,n_drop\n1,2\n")
    with pytest.raises(ReportError):
        read_results_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(RESULTS_COLUMNS) + "\n")
    with pytest.raises(ReportError, match="no data rows"):
        read_results_csv(empty)


def test_config_hash_stable_under_key_reordering():
    doc = _cli_config_doc()
    reordered = {k: doc[k] for k in reversed(list(doc))}
    assert config_hash([doc]) == config_hash([reordered])
    assert config_hash([doc]) != config_hash([_cli_config_doc(base_seed=1)])


def test_svg_rendering(tmp_path):
    rows = read_results_csv(DATA_DIR / "golden_results.csv")
    svg = tmp_path / "fig.svg"
    render_heatmaps_svg(rows, svg)
    text = svg.read_text()
    assert text.startswith("<svg")
    # one colored cell per (cell, metric) pair
    assert text.count("<rect") == 3 * 4 + 1  # + background
    assert "scenario 7" in text
    assert "p_retain_correct" in text and "power" in text


def test_svg_single_cell(tmp_path):
    rows = read_results_csv(DATA_DIR / "golden_results.csv")[:1]
    svg = tmp_path / "one.svg"
    render_heatmaps_svg(rows, svg)
    assert svg.read_text().count("<rect") == 3 + 1


# -- CLI ---------------------------------------------------------------------------

def test_cli_simulate_and_report_round_trip(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_cli_config_doc()))
    out = tmp_path / "out"
    r = _run_cli("simulate", "--config", str(cfg), "--out", str(out), "--trace")
    assert r.returncode == 0, r.stderr
    results = out / "results.csv"
    assert results.exists()
    assert len(results.read_text().splitlines()) == 1 + 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "fast-trials"
    assert manifest["scenarios"][0]["n_effective"] + manifest["scenarios"][0]["n_failed"] == 8 * 4
    trace = out / "trace_scenario_0.csv"
    assert len(trace.read_text().splitlines()) == 1 + 8 * 4

    svg = tmp_path / "fig.svg"
    r2 = _run_cli("report", "--in", str(results), "--svg", str(svg))
    assert r2.returncode == 0, r2.stderr
    assert svg.exists() and svg.stat().st_size > 500


def test_cli_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_cli_config_doc()))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _run_cli("simulate", "--config", str(cfg), "--out", str(out_a)).returncode == 0
    assert _run_cli("simulate", "--config", str(cfg), "--out", str(out_b)).returncode == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_cli_seed_override_changes_results(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_cli_config_doc()))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _run_cli("simulate", "--config", str(cfg), "--out", str(out_a)).returncode == 0
    assert (
        _run_cli("simulate", "--config", str(cfg), "--out", str(out_b), "--seed", "9").returncode
        == 0
    )
    assert (out_a / "results.csv").read_bytes() != (out_b / "results.csv").read_bytes()


def test_cli_invalid_probability_names_arm(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(_cli_config_doc(phase3_effects={"A1": 0.1, "A2": 0.7, "B1": 0.0}))
    )
    r = _run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    assert "A2" in r.stderr


def test_cli_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_cli_config_doc(sample_size_multiplier=2)))
    r = _run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    assert "sample_size_multiplier" in r.stderr


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"control_event_rate": "0.4"}, "control_event_rate"),
        ({"alpha_final": None}, "alpha_final"),
        ({"biomarker_effects": [1, 2]}, "biomarker_effects"),
        ({"biomarker_effects": {"A1": 5, "A2": [0, 0]}}, "biomarker_effects[A1]"),
        ({"phase3_effects": {"A1": "x", "A2": 0, "B1": 0}}, "phase3_effects[A1]"),
        ({"n_drop_grid": 90}, "n_drop_grid"),
        ({"biomarker_sds": "ab"}, "biomarker_sds"),
        # integers beyond the float range reach validation as written
        ({"phase3_effects": {"A1": 10**400, "A2": 0, "B1": 0}}, "phase3_effects[A1]"),
        ({"biomarker_effects": {"A1": [10**400, 0], "A2": [0, 0]}}, "biomarker_effects[A1]"),
        ({"biomarker_sds": [10**400, 10]}, "biomarker_sds"),
        ({"control_event_rate": 10**400}, "control_event_rate"),
    ],
)
def test_cli_wrong_json_type_exits_2(tmp_path, doc, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    r = _run_cli("simulate", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: invalid scenario:"), r.stderr
    assert "Traceback" not in r.stderr
    assert [line for line in r.stderr.splitlines() if line.startswith("error:")] == ["error: invalid scenario:"]
    assert f"  - {field}: " in r.stderr
    assert not out.exists()


def test_cli_boolean_replicates_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"replicates": True, "n_drop_grid": [150], "n_feas_grid": [300]}))
    out = tmp_path / "out"
    r = _run_cli("simulate", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert "  - replicates: must be a positive integer, got True" in r.stderr
    assert not out.exists()


def test_cli_empty_config_exits_2(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text("[]")
    r = _run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    assert [line for line in r.stderr.splitlines() if line.startswith("error:")] == ["error: invalid scenario:"]
    assert "scenario list is empty" in r.stderr
    assert not (tmp_path / "out" / "results.csv").exists()


def _unreadable_inputs(tmp_path):
    """A path that does not exist, a directory, and a file that is not
    UTF-8: each exits 2 with one error line that names it."""
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "latin1.txt").write_bytes("{\"scenario_id\": \"caf\u00e9\"}".encode("latin-1"))
    return [str(tmp_path / name) for name in ("nope", "a_directory", "latin1.txt")]


def _assert_input_error(r, path):
    assert r.returncode == 2
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and path in lines[0], r.stderr


def test_cli_missing_config_file(tmp_path):
    for path in _unreadable_inputs(tmp_path):
        r = _run_cli("simulate", "--config", path, "--out", str(tmp_path / "o"))
        _assert_input_error(r, path)


def test_cli_malformed_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    r = _run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert r.returncode == 2


def test_cli_report_missing_column_named(tmp_path):
    bad = tmp_path / "bad.csv"
    text = (DATA_DIR / "golden_results.csv").read_text().replace("fwer,", "untyped,")
    bad.write_text(text)
    r = _run_cli("report", "--in", str(bad), "--svg", str(tmp_path / "x.svg"))
    assert r.returncode == 2
    assert "fwer" in r.stderr


def _golden_with(column, value, append_duplicate=False):
    lines = (DATA_DIR / "golden_results.csv").read_text().splitlines()
    if append_duplicate:
        lines.append(lines[1])
    else:
        header, row = lines[0].split(","), lines[1].split(",")
        row[header.index(column)] = value
        lines[1] = ",".join(row)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (_golden_with("p_retain_correct", "nan"), "line 2: p_retain_correct = nan"),
        (_golden_with("p_proceed", "inf"), "line 2: p_proceed = inf"),
        (_golden_with("power", "1.5"), "line 2: power = 1.5"),
        (_golden_with("fwer", "-0.25"), "line 2: fwer = -0.25"),
        (_golden_with(None, None, append_duplicate=True), "line 6: duplicate cell"),
    ],
    ids=["nan", "inf", "above_one", "negative", "duplicate_cell"],
)
def test_cli_report_rejects_bad_values_with_line_number(tmp_path, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    with pytest.raises(ReportError, match=message.replace(".", r"\.")):
        read_results_csv(bad)
    svg = tmp_path / "x.svg"
    r = _run_cli("report", "--in", str(bad), "--svg", str(svg))
    assert r.returncode == 2
    assert r.stderr.startswith(f"error: {message}")
    assert len(r.stderr.splitlines()) == 1
    assert not svg.exists()


def test_cli_simulation_failure_exits_4(tmp_path):
    # Valid, but the arm-dropping trigger falls before each treatment arm
    # has 2 subjects, so the first replicate raises SchedulingError.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario_id": 0, "n_drop_grid": [4], "n_feas_grid": [300], "replicates": 20}))
    out = tmp_path / "out"
    r = _run_cli("simulate", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 4
    assert r.stderr.startswith("error: simulation failed in scenario 0:")
    assert len(r.stderr.splitlines()) == 1
    assert not out.exists()


def test_cli_report_missing_input(tmp_path):
    for path in _unreadable_inputs(tmp_path):
        r = _run_cli("report", "--in", path, "--svg", str(tmp_path / "x.svg"))
        _assert_input_error(r, path)


def test_cli_threads_env_fallback(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_cli_config_doc()))
    out = tmp_path / "out"
    r = _run_cli(
        "simulate", "--config", str(cfg), "--out", str(out), env={"FAST_TRIALS_THREADS": "2"}
    )
    assert r.returncode == 0, r.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["threads"] == 2


@pytest.mark.parametrize(
    "flags, env, message",
    [
        (["--threads", "0"], {}, "--threads: must be at least 1, got 0"),
        (["--threads", "-4"], {}, "--threads: must be at least 1, got -4"),
        ([], {"FAST_TRIALS_THREADS": "0"}, "FAST_TRIALS_THREADS: must be at least 1, got 0"),
    ],
    ids=["flag-zero", "flag-negative", "env-zero"],
)
def test_cli_worker_count_below_one_exits_2(tmp_path, flags, env, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_cli_config_doc()))
    out = tmp_path / "out"
    r = _run_cli("simulate", "--config", str(cfg), "--out", str(out), *flags, env=env)
    assert r.returncode == 2, r.stderr
    assert r.stderr.splitlines() == [f"error: {message}"]
    assert not out.exists()


def _three_scenarios(n_grid, replicates):
    grid = [60 + 30 * i for i in range(n_grid)]
    common = {"n_drop_grid": grid, "n_feas_grid": grid, "replicates": replicates}
    return [
        _cli_config_doc(scenario_id=0, **common),
        _cli_config_doc(
            scenario_id=1,
            biomarker_effects={"A1": [10.0, 0.0], "A2": [0.0, -10.0]},
            benefit_directions=["increase", "decrease"],
            phase3_effects={"A1": 0.1, "A2": 0.1, "B1": 0.1},
            **common,
        ),
        _cli_config_doc(scenario_id=2, biomarker_effects={"A1": [0.0, 0.0], "A2": [0.0, 0.0]}, **common),
    ]


@pytest.mark.parametrize(
    "n_grid, replicates",
    [
        (5, 4),  # 25 cells a scenario: a task holds several cells on 2 and on 3 workers
        (1, 300),  # one cell in several tasks
    ],
)
def test_cli_outputs_identical_across_shared_pool_sizes(tmp_path, n_grid, replicates):
    n = n_grid * n_grid * replicates
    assert all((_task_size(n, w) > replicates) == (n_grid > 1) for w in (2, 3))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_three_scenarios(n_grid, replicates)))
    names = ["results.csv"] + [f"trace_scenario_{sid}.csv" for sid in range(3)]
    outputs = {}
    for threads in (1, 2, 3):  # 3 workers is more than a 2-core host has
        out = tmp_path / f"t{threads}"
        r = _run_cli("simulate", "--config", str(cfg), "--out", str(out), "--trace", "--threads", str(threads))
        assert r.returncode == 0, r.stderr
        outputs[threads] = [(out / name).read_bytes() for name in names]
    assert outputs[1] == outputs[2] == outputs[3]
