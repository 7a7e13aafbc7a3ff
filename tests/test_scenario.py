"""Scenario configuration: validation coverage, strict JSON parsing,
round-trip identity, and effects that stay read-only once built."""

import copy
import dataclasses
import json
import operator
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from fast_trials.design import (
    DOMAIN_A_ARMS,
    ScenarioConfig,
    ScenarioValidationError,
    load_scenarios,
    scenario_from_dict,
    scenario_issues,
    scenario_to_dict,
    validate_scenario,
)
from fast_trials.generation import generate_block
from fast_trials.harness import run_grid

_NULL_SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "null.json"


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


@pytest.mark.parametrize(
    "path, field",
    [
        (("phase3_effects", "A1"), "phase3_effects[A1]"),
        (("biomarker_effects", "A1", 0), "biomarker_effects[A1]"),
        (("biomarker_sds", 0), "biomarker_sds"),
        (("control_event_rate",), "control_event_rate"),
    ],
)
def test_integer_beyond_float_range_is_an_issue(tmp_path, path, field):
    # The value reaches validation as written, so it is reported, not
    # turned into an OverflowError on the way in.
    doc = json.loads(_NULL_SCENARIO.read_text())
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = 10**400
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(doc))
    with pytest.raises(ScenarioValidationError) as raised:
        load_scenarios(cfg)
    issues = raised.value.issues
    assert len(issues) == 1 and issues[0].startswith(field + ":"), issues


@pytest.mark.parametrize("field", ["replicates", "scenario_id", "base_seed", "n_total"])
@pytest.mark.parametrize("value", [True, False])
def test_booleans_are_not_integers(field, value):
    # isinstance(True, int) holds, so JSON true/false used to pass as 1/0.
    cfg = dataclasses.replace(reference_config(), **{field: value})
    issues = scenario_issues(cfg)
    assert len(issues) == 1 and issues[0].startswith(field + ":"), issues


def test_a_config_has_one_normal_form():
    # However it is built, from lists, tuples or a JSON document, a config
    # holds tuples and compares equal.
    lists = ScenarioConfig(
        biomarker_effects={"A1": [-10.0, 10.0], "A2": [0.0, -5.0]},
        biomarker_sds=[5.0, 6.0],
        benefit_directions=["decrease", "increase"],
        n_drop_grid=[90, 120],
        n_feas_grid=[150, 180, 210],
    )
    tuples = ScenarioConfig(
        biomarker_effects={"A1": (-10.0, 10.0), "A2": (0.0, -5.0)},
        biomarker_sds=(5.0, 6.0),
        benefit_directions=("decrease", "increase"),
        n_drop_grid=(90, 120),
        n_feas_grid=(150, 180, 210),
    )
    assert lists == tuples
    assert lists == scenario_from_dict(json.loads(json.dumps(scenario_to_dict(lists))))
    fields = (lists.biomarker_sds, lists.benefit_directions, lists.n_drop_grid, lists.n_feas_grid)
    assert all(type(v) is tuple for v in fields + tuple(lists.biomarker_effects.values()))
    assert dataclasses.replace(lists, n_drop_grid=[90]).n_drop_grid == (90,)
    assert type(dataclasses.replace(lists, n_drop_grid=[90]).n_drop_grid) is tuple


@pytest.mark.parametrize(
    "grid",
    [lambda: (v for v in (90, 120)), lambda: range(90, 121, 30), lambda: np.array([90, 120])],
    ids=["generator", "range", "ndarray"],
)
def test_a_list_like_grid_becomes_a_tuple(grid):
    # The normal form alone decides what a list is, so the config that
    # validation passed is the config that runs.
    small = dict(n_feas_grid=(300,), replicates=2)
    built = dataclasses.replace(reference_config(), n_drop_grid=grid(), **small)
    twin = dataclasses.replace(reference_config(), n_drop_grid=(90, 120), **small)
    assert validate_scenario(built) is built
    assert built == twin and hash(built) == hash(twin)
    rows = run_grid(built)
    assert [(oc.n_drop, oc.n_feas) for oc in rows] == [(90, 300), (120, 300)]
    assert rows == run_grid(twin)


def test_a_config_hashes_by_value():
    assert hash(ScenarioConfig()) == hash(ScenarioConfig())
    lists = ScenarioConfig(biomarker_effects={"A1": [1.0, 2.0], "A2": [0.0, 0.0]}, n_drop_grid=[90, 120])
    tuples = ScenarioConfig(biomarker_effects={"A1": (1.0, 2.0), "A2": (0.0, 0.0)}, n_drop_grid=(90, 120))
    assert len({lists, tuples}) == 1


# -- effects are read-only once the config is built -------------------------------

def test_effects_cannot_change_after_tables_are_built():
    cfg = ScenarioConfig(biomarker_effects={"A1": [1.0, 2.0], "A2": (0.0, 0.0)})
    generate_block(cfg, frozenset(DOMAIN_A_ARMS), 10, np.random.default_rng(0))
    with pytest.raises(TypeError):
        cfg.phase3_effects["A1"] = 0.3
    effects = cfg.biomarker_effects
    mutations = [
        lambda: effects.__setitem__("A1", (5.0, 5.0)),
        lambda: effects.__delitem__("A1"),
        lambda: effects.update(A1=(5.0, 5.0)),
        lambda: effects.setdefault("A3", (5.0, 5.0)),
        lambda: effects.pop("A1"),
        lambda: effects.popitem(),
        lambda: effects.clear(),
        lambda: effects.__ior__({"A1": (5.0, 5.0)}),
        lambda: operator.setitem(effects["A1"], 0, 5.0),  # a pair given as a list is a tuple now
    ]
    for mutate in mutations:
        with pytest.raises(TypeError):
            mutate()
    assert isinstance(effects, dict) and effects == {"A1": (1.0, 2.0), "A2": (0.0, 0.0)}
    np.testing.assert_array_equal(cfg.generation_tables.p_event, cfg.event_probabilities())


def test_read_only_config_round_trips_pickle_and_deepcopy():
    cfg = reference_config()
    cfg.generation_tables  # built, so it travels too
    for copied in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg)):
        assert copied == cfg
        assert scenario_to_dict(copied) == scenario_to_dict(cfg)
        with pytest.raises(TypeError):
            copied.phase3_effects["A1"] = 0.3


def test_replace_with_new_effects_builds_new_tables():
    cfg = reference_config()
    old = cfg.generation_tables
    new = dataclasses.replace(
        cfg,
        phase3_effects={"A1": 0.3, "A2": 0.1, "B1": 0.0},
        biomarker_effects={"A1": (1.0, 2.0), "A2": (3.0, 4.0)},
    )
    assert new.generation_tables.p_event[2, 0] == pytest.approx(0.7)
    assert old.p_event[2, 0] == pytest.approx(0.5)
    np.testing.assert_array_equal(new.generation_tables.shift11, [0.0, 0.0, 1.0, 3.0])
    np.testing.assert_array_equal(new.generation_tables.shift12, [0.0, 0.0, 2.0, 4.0])
    assert cfg.generation_tables is old
