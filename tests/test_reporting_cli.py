"""results.csv schema and format pinning, manifest hashing, SVG rendering,
and CLI exit-code behavior."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fast_trials
from fast_trials.design import ScenarioConfig, validate_scenario
from fast_trials.harness import _CHUNK_SIZE, TRACE_FIELDS, _batch_size, run_grid, run_grid_detail
from fast_trials.reporting import (
    RESULTS_COLUMNS,
    ReportError,
    config_hash,
    read_results_csv,
    render_heatmaps_svg,
    write_results_csv,
    write_trace_csv,
)

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
    ],
)
def test_cli_wrong_json_type_exits_2(tmp_path, doc, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    r = _run_cli("simulate", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 2, r.stderr
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


def test_cli_missing_config_file(tmp_path):
    r = _run_cli("simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o"))
    assert r.returncode == 2


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
    r = _run_cli("report", "--in", str(tmp_path / "none.csv"), "--svg", str(tmp_path / "x.svg"))
    assert r.returncode == 2


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
        (5, 4),  # 25 tasks a scenario: batched on 2 and on 3 workers
        (1, 300),  # tasks of 250 and 50 replicates, each in a message of its own
    ],
)
def test_cli_outputs_identical_across_shared_pool_sizes(tmp_path, n_grid, replicates):
    if replicates < _CHUNK_SIZE:
        assert all(_batch_size(n_grid * n_grid, replicates, w) > 1 for w in (2, 3))
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
