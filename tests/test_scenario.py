"""Scenario configuration: validation coverage, strict JSON parsing, and
round-trip identity."""

import dataclasses
import json
import re

import numpy as np
import pytest

from fast_trials.design import (
    ScenarioConfig,
    ScenarioValidationError,
    load_scenarios,
    scenario_from_dict,
    scenario_issues,
    scenario_to_dict,
    validate_scenario,
)


def reference_config():
    return ScenarioConfig(
        scenario_id=1,
        biomarker_effects={"A1": (-10.0, 10.0), "A2": (-10.0, 10.0)},
        benefit_directions=("decrease", "increase"),
        phase3_effects={"A1": 0.1, "A2": 0.1, "B1": 0.0},
        replicates=1000,
        base_seed=12345,
    )


def test_default_timing_grid_is_90_to_300_step_30():
    cfg = ScenarioConfig()
    assert cfg.n_drop_grid == tuple(range(90, 301, 30))
    assert cfg.n_feas_grid == tuple(range(90, 301, 30))
    assert len(cfg.n_drop_grid) == 8


def test_reference_scenario_is_valid():
    cfg = validate_scenario(reference_config())
    assert scenario_issues(cfg) == []


def test_probability_bound_violation_reported():
    cfg = dataclasses.replace(
        reference_config(), phase3_effects={"A1": 0.7, "A2": 0.1, "B1": 0.0}
    )
    issues = scenario_issues(cfg)
    assert any("A1" in i and "outside (0, 1)" in i for i in issues)
    with pytest.raises(ScenarioValidationError):
        validate_scenario(cfg)


def test_probability_issues_name_exactly_the_cells_outside_unit_interval():
    """Validation and subject generation read one event-probability table:
    over random configs, the cells reported outside (0, 1) are exactly the
    cells whose unclamped sum rate + rd_a + rd_b lies outside it."""
    rng = np.random.default_rng(2024)
    flagged_any = False
    for _ in range(300):
        rate = float(rng.uniform(0.01, 0.99))
        rd = {arm: float(rng.uniform(-0.7, 0.7)) for arm in ("A1", "A2", "B1")}
        cfg = dataclasses.replace(reference_config(), control_event_rate=rate, phase3_effects=rd)
        expected = set()
        for arm_a, rd_a in (("none", 0.0), ("A0", 0.0), ("A1", rd["A1"]), ("A2", rd["A2"])):
            for arm_b, rd_b in (("B0", 0.0), ("B1", rd["B1"])):
                if not 0.0 < rate + rd_a + rd_b < 1.0:
                    expected.add((arm_a, arm_b))
        issues = scenario_issues(cfg)
        reported = {m.groups() for i in issues if (m := re.search(r"for arms \((\w+), (B\d)\)", i))}
        assert reported == expected
        assert len(issues) == len(expected)
        flagged_any |= bool(expected)
    assert flagged_any


def test_empty_grid_rejected():
    cfg = dataclasses.replace(reference_config(), n_drop_grid=())
    assert any("n_drop_grid" in i and "nonempty" in i for i in scenario_issues(cfg))


def test_all_violations_reported_together():
    cfg = dataclasses.replace(
        reference_config(),
        control_event_rate=1.4,
        alpha_drop=0.0,
        n_feas_grid=(90, 90),
        default_retained_arm="B1",
        replicates=0,
    )
    issues = scenario_issues(cfg)
    for needle in ("control_event_rate", "alpha_drop", "n_feas_grid", "default_retained_arm", "replicates"):
        assert any(needle in i for i in issues), needle


def test_grid_values_cannot_exceed_n_total():
    cfg = dataclasses.replace(reference_config(), n_total=250)
    assert any("n_total" in i for i in scenario_issues(cfg))


def test_validation_is_idempotent_and_pure():
    cfg = reference_config()
    before = scenario_to_dict(cfg)
    assert validate_scenario(cfg) is validate_scenario(cfg)
    assert scenario_to_dict(cfg) == before


def test_round_trip_identity():
    cfg = reference_config()
    assert scenario_from_dict(scenario_to_dict(cfg)) == cfg


def test_round_trip_through_json_text():
    cfg = reference_config()
    text = json.dumps(scenario_to_dict(cfg))
    assert scenario_from_dict(json.loads(text)) == cfg


def test_unknown_key_rejected_in_strict_mode():
    doc = scenario_to_dict(reference_config())
    doc["accrual_rate"] = 12
    with pytest.raises(ScenarioValidationError, match="accrual_rate"):
        scenario_from_dict(doc)


def test_load_scenarios_single_and_list(tmp_path):
    single = tmp_path / "one.json"
    single.write_text(json.dumps(scenario_to_dict(reference_config())))
    assert len(load_scenarios(single)) == 1

    multi = tmp_path / "two.json"
    docs = [scenario_to_dict(reference_config()), scenario_to_dict(ScenarioConfig(scenario_id=2))]
    multi.write_text(json.dumps(docs))
    assert [s.scenario_id for s in load_scenarios(multi)] == [1, 2]


def test_load_scenarios_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.json"
    doc = scenario_to_dict(reference_config())
    path.write_text(json.dumps([doc, doc]))
    with pytest.raises(ScenarioValidationError, match="distinct"):
        load_scenarios(path)


def test_wrong_types_are_issues_not_crashes():
    # Values of the wrong type are reported with their field path; none of
    # them may raise anything but ScenarioValidationError.
    cases = {
        "alpha_final": dict(alpha_final="0.05"),
        "control_event_rate": dict(control_event_rate=None),
        "biomarker_effects": dict(biomarker_effects=[1, 2]),
        "biomarker_effects[A1]": dict(biomarker_effects={"A1": 5, "A2": (0.0, 0.0)}),
        "phase3_effects[A1]": dict(phase3_effects={"A1": "x", "A2": 0.0, "B1": 0.0}),
        "n_drop_grid": dict(n_drop_grid=90),
        "biomarker_sds": dict(biomarker_sds="ab"),
        "benefit_directions": dict(benefit_directions=3),
    }
    for field, overrides in cases.items():
        cfg = dataclasses.replace(reference_config(), **overrides)
        issues = scenario_issues(cfg)
        assert len(issues) == 1 and issues[0].startswith(field + ":"), issues
        with pytest.raises(ScenarioValidationError):
            validate_scenario(cfg)


@pytest.mark.parametrize("field", ["replicates", "scenario_id", "base_seed", "n_total"])
@pytest.mark.parametrize("value", [True, False])
def test_booleans_are_not_integers(field, value):
    # isinstance(True, int) holds, so JSON true/false used to pass as 1/0.
    cfg = dataclasses.replace(reference_config(), **{field: value})
    issues = scenario_issues(cfg)
    assert len(issues) == 1 and issues[0].startswith(field + ":"), issues
