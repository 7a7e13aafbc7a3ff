"""Replicate engine and grid aggregation: seed derivation, path forcing,
conservation identities, and execution-order invariance."""

import dataclasses
import itertools
import json
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from fast_trials import cli, harness
from fast_trials.design import ScenarioConfig, load_scenarios, validate_scenario
from fast_trials.final_analysis import FinalBranch, GatekeepingOutcome
from fast_trials.harness import (
    derive_seed,
    designed_correct_arms,
    gating_violation,
    run_cell_detail,
    run_grid,
    run_replicate,
    truly_effective_arms,
)
from fast_trials.interim import AnalysisKind


def _null_config(**overrides):
    return validate_scenario(ScenarioConfig(**overrides))


# -- seed derivation -----------------------------------------------------------

def derive_seeds_vector(base_seed, scenario_id, cell, replicates):
    """``derive_seed`` over an array of replicate indices, for collision
    scans: the last stage's mix runs on uint64 arrays, which wrap mod 2^64."""
    h = harness._mix_parts(base_seed, (scenario_id, *cell))
    x = np.asarray(replicates, dtype=np.uint64) * np.uint64(harness._PART_MULT[3])
    return harness._splitmix64(x ^ np.uint64(h))


def test_derive_seed_frozen_values():
    # Cross-platform determinism contract: these values must never change.
    assert derive_seed(0, 0, (90, 90), 0) == 4616388256580162707
    assert derive_seed(20230901, 3, (150, 300), 512) == 11984766275078537347


def test_derive_seed_sensitivity():
    base = derive_seed(1, 2, (90, 120), 7)
    assert derive_seed(2, 2, (90, 120), 7) != base
    assert derive_seed(1, 3, (90, 120), 7) != base
    assert derive_seed(1, 2, (120, 90), 7) != base
    assert derive_seed(1, 2, (90, 120), 8) != base


def test_derive_seed_injective_over_replicates():
    seeds = derive_seeds_vector(20230901, 1, (150, 300), np.arange(1_000_000))
    assert np.unique(seeds).size == 1_000_000


def test_vectorized_matches_scalar():
    reps = np.array([0, 1, 17, 999_999])
    vec = derive_seeds_vector(42, 5, (210, 240), reps)
    for r, v in zip(reps, vec):
        assert derive_seed(42, 5, (210, 240), int(r)) == int(v)


def test_base_seed_avalanche():
    reps = np.arange(1000)
    a = derive_seeds_vector(1001, 0, (90, 90), reps)
    b = derive_seeds_vector(1002, 0, (90, 90), reps)
    assert not np.any(a == b)


# -- single replicates -----------------------------------------------------------

def test_replicate_deterministic():
    cfg = _null_config(base_seed=77)
    seed = derive_seed(77, 0, (150, 300), 4)
    assert run_replicate(cfg, 150, 300, seed) == run_replicate(cfg, 150, 300, seed)


def test_forced_termination_path():
    cfg = _null_config(alpha_feas=1e-12, base_seed=5)
    result = run_replicate(cfg, 150, 90, derive_seed(5, 0, (150, 90), 0))
    assert result.branch is FinalBranch.DOMAIN_A_TERMINATED
    assert result.retention is None  # arm dropping never triggered
    assert not result.feasibility.proceed
    assert result.schedule.first[0] is AnalysisKind.FEASIBILITY


def test_termination_stops_domain_a_assignment():
    cfg = _null_config(alpha_feas=1e-12, base_seed=6, n_total=400)
    # Re-run the enrollment to inspect subjects: use the engine's own path
    # via a forced terminated replicate, then regenerate identically.
    result = run_replicate(cfg, 300, 90, derive_seed(6, 0, (300, 90), 1))
    assert result.branch is FinalBranch.DOMAIN_A_TERMINATED
    # the terminated model keeps all 400 subjects
    assert result.gatekeeping.node_p_values.keys() == {"beta1"}


def test_tie_runs_dropping_then_feasibility_on_same_snapshot():
    cfg = _null_config(base_seed=8)
    result = run_replicate(cfg, 120, 120, derive_seed(8, 0, (120, 120), 2))
    assert result.schedule.first == (AnalysisKind.ARM_DROPPING, 120)
    assert result.schedule.second == (AnalysisKind.FEASIBILITY, 120)
    assert result.retention is not None
    assert result.feasibility is not None


def test_branch_matches_decisions():
    cfg = _null_config(
        biomarker_effects={"A1": (10.0, -10.0), "A2": (10.0, -10.0)},
        phase3_effects={"A1": 0.1, "A2": 0.1, "B1": 0.0},
        base_seed=9,
    )
    for rep in range(8):
        result = run_replicate(cfg, 150, 300, derive_seed(9, 0, (150, 300), rep))
        if not result.feasibility.proceed:
            assert result.branch is FinalBranch.DOMAIN_A_TERMINATED
        elif len(result.retention.retained) == 1:
            assert result.branch is FinalBranch.ONE_ARM_RETAINED
        else:
            assert result.branch is FinalBranch.BOTH_ARMS_RETAINED


def test_trigger_beyond_n_total_rejected():
    cfg = _null_config(n_total=200, n_drop_grid=(90,), n_feas_grid=(90,))
    with pytest.raises(ValueError):
        run_replicate(cfg, 90, 300, 1)


# -- scenario truth helpers ------------------------------------------------------

def test_designed_correct_arms():
    # one qualifying arm: retained set should be that arm
    cfg = ScenarioConfig(
        biomarker_effects={"A1": (0.0, 0.0), "A2": (-10.0, 10.0)},
        benefit_directions=("decrease", "increase"),
    )
    assert designed_correct_arms(cfg) == frozenset({"A2"})
    # no qualifying arm: default
    assert designed_correct_arms(ScenarioConfig()) == frozenset({"A2"})
    assert designed_correct_arms(ScenarioConfig(default_retained_arm="A1")) == frozenset({"A1"})
    # both qualify: default
    cfg_all = ScenarioConfig(
        biomarker_effects={"A1": (-1.0, 1.0), "A2": (-2.0, 2.0)},
        benefit_directions=("decrease", "increase"),
    )
    assert designed_correct_arms(cfg_all) == frozenset({"A2"})
    # beneficial on one biomarker only does not qualify
    cfg_half = ScenarioConfig(
        biomarker_effects={"A1": (0.0, 0.0), "A2": (-10.0, -10.0)},
        benefit_directions=("decrease", "increase"),
        default_retained_arm="A1",
    )
    assert designed_correct_arms(cfg_half) == frozenset({"A1"})


def test_truly_effective_arms():
    assert truly_effective_arms(ScenarioConfig()) == frozenset()
    cfg = ScenarioConfig(phase3_effects={"A1": 0.0, "A2": 0.1, "B1": -0.05})
    assert truly_effective_arms(cfg) == frozenset({"A2", "B1"})


def test_gating_violation_detector():
    both = FinalBranch.BOTH_ARMS_RETAINED
    one = FinalBranch.ONE_ARM_RETAINED
    term = FinalBranch.DOMAIN_A_TERMINATED
    ok = GatekeepingOutcome({}, frozenset({"H01", "H02", "H03", "H05"}), frozenset({"A1"}))
    bad = GatekeepingOutcome({}, frozenset({"H05"}), frozenset({"A1"}))
    assert not gating_violation(ok, both)
    assert gating_violation(bad, both)
    bad_two = GatekeepingOutcome({}, frozenset({"beta1"}), frozenset({"A_pooled"}))
    assert gating_violation(bad_two, one)
    ok_two = GatekeepingOutcome({}, frozenset({"global", "beta1"}), frozenset({"A_pooled"}))
    assert not gating_violation(ok_two, one)
    # the terminated branch's single test is ungated
    solo = GatekeepingOutcome({}, frozenset({"beta1"}), frozenset({"B1"}))
    assert not gating_violation(solo, term)
    # a rejected label from outside the branch's hierarchy is a violation
    for label, branch in (("H05", one), ("H01", one), ("global", both), ("beta2", term), ("H08", both)):
        assert gating_violation(GatekeepingOutcome({}, frozenset({label}), frozenset()), branch), label


# -- cells and grids --------------------------------------------------------------

def test_cell_conservation_identities():
    cfg = _null_config(
        biomarker_effects={"A1": (-10.0, 10.0), "A2": (-10.0, 10.0)},
        biomarker_sds=(30.0, 30.0),
        benefit_directions=("decrease", "increase"),
        phase3_effects={"A1": 0.1, "A2": 0.1, "B1": 0.0},
        base_seed=303,
    )
    oc, traces = run_cell_detail(cfg, 150, 120, collect_traces=True, replicates=300)
    n_eff = oc.n_replicates_effective
    assert n_eff + oc.n_failed == 300
    assert sum(oc.branch_counts.values()) == n_eff
    proceeding = oc.branch_counts["one_arm_retained"] + oc.branch_counts["both_arms_retained"]
    assert oc.p_proceed == pytest.approx(proceeding / n_eff)
    assert len(traces) == 300
    assert oc.n_gating_violations == 0
    # every probability in [0, 1]
    for v in (oc.p_retain_correct, oc.p_retain_both, oc.p_proceed, oc.power, oc.fwer,
              *oc.p_success.values()):
        assert 0.0 <= v <= 1.0


def test_run_cell_zero_replicates_rejected():
    with pytest.raises(ValueError):
        run_cell_detail(_null_config(), 90, 90, replicates=0)


def test_grid_shape_and_order():
    cfg = _null_config(n_drop_grid=(90, 120), n_feas_grid=(90, 150), replicates=5, n_total=200)
    results = run_grid(cfg)
    assert [(r.n_drop, r.n_feas) for r in results] == [(90, 90), (90, 150), (120, 90), (120, 150)]

    permuted = dataclasses.replace(cfg, n_drop_grid=(120, 90), n_feas_grid=(150, 90))
    assert run_grid(permuted) == results


def test_default_grid_has_64_cells():
    cfg = _null_config(replicates=1)
    assert len(cfg.n_drop_grid) * len(cfg.n_feas_grid) == 64


def test_singleton_grid():
    cfg = _null_config(n_drop_grid=(90,), n_feas_grid=(120,), replicates=4, n_total=200)
    results = run_grid(cfg)
    assert len(results) == 1
    assert results[0].order_first == "arm_dropping"


def test_threaded_execution_matches_serial():
    cfg = _null_config(
        phase3_effects={"A1": 0.1, "A2": 0.1, "B1": 0.1},
        biomarker_effects={"A1": (10.0, -10.0), "A2": (10.0, -10.0)},
        n_drop_grid=(90,),
        n_feas_grid=(90, 150),
        replicates=300,
        n_total=300,
        base_seed=404,
    )
    assert run_grid(cfg, threads=1) == run_grid(cfg, threads=2)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size asked for,
    each map's batch size and every pool opened, which it marks closed on
    exit, and runs the tasks in this process, so no worker is ever started."""

    sizes = []
    chunksizes = []
    opened = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        self.opened.append(self)
        self.closed = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.closed = True
        return False

    def map(self, fn, iterable, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(fn, iterable)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingPool)
    for record in ("sizes", "chunksizes", "opened"):
        monkeypatch.setattr(_RecordingPool, record, [])
    return _RecordingPool


@pytest.mark.parametrize(
    "threads, n_feas_grid, replicates, expected, chunksize",
    [
        (16, (90,), 600, 3, 1),  # one cell in three chunks of 250
        (16, (90, 120), 8, 2, 1),  # two cells of one chunk
        (2, (90, 120, 150), 8, 2, 1),  # more tasks than workers
        (2, tuple(range(90, 106)), 250, 2, 1),  # a 250-replicate task fills a message
        (2, tuple(range(90, 154)), 4, 2, 8),  # 64 cells: 8 messages per worker
        (2, tuple(range(90, 106)), 8, 2, 2),  # 16 cells: 4 messages per worker
        (3, tuple(range(90, 114)), 8, 3, 2),  # 24 cells on 3 workers: 4 messages each
    ],
)
def test_pool_never_exceeds_task_count(recording_pool, threads, n_feas_grid, replicates, expected, chunksize):
    cfg = _null_config(n_drop_grid=(90,), n_feas_grid=n_feas_grid, replicates=replicates, n_total=200)
    pooled = run_grid(cfg, threads=threads)
    assert _RecordingPool.sizes == [expected]
    assert _RecordingPool.chunksizes == [chunksize]
    n_tasks = len(n_feas_grid) * -(-replicates // harness._CHUNK_SIZE)
    # A worker gets at least 4 messages when there are tasks enough, and a
    # message carries at most _CHUNK_SIZE replicates.
    assert chunksize == 1 or -(-n_tasks // chunksize) >= 4 * expected
    assert chunksize * min(replicates, harness._CHUNK_SIZE) <= harness._CHUNK_SIZE
    assert pooled == run_grid(cfg, threads=1)


def test_library_grid_opens_and_closes_a_pool_per_call(recording_pool):
    cfg = _null_config(n_drop_grid=(90,), n_feas_grid=(90, 120), replicates=4, n_total=200)
    run_grid(cfg, threads=2)
    run_grid(cfg, threads=2)
    assert _RecordingPool.sizes == [2, 2]
    assert all(pool.closed for pool in _RecordingPool.opened)


def _simulate(monkeypatch, tmp_path, docs, threads):
    """Run ``fast-trials simulate`` in this process; returns its exit code
    and the ``pool`` handed to each run_grid_detail call."""
    handed = []

    def recording_grid(config, **kwargs):
        handed.append(kwargs["pool"])
        return harness.run_grid_detail(config, **kwargs)

    monkeypatch.setattr(cli, "run_grid_detail", recording_grid)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(docs))
    argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--threads", str(threads)]
    return cli.main(argv), handed


_SMALL = {"n_total": 200, "n_feas_grid": [90, 120], "replicates": 4}


@pytest.mark.parametrize("threads", [2, 3])
def test_simulate_shares_one_pool_across_scenarios(recording_pool, monkeypatch, tmp_path, threads):
    docs = [
        dict(_SMALL, scenario_id=0, n_drop_grid=[90]),
        dict(_SMALL, scenario_id=1, n_drop_grid=[90, 120]),
        dict(_SMALL, scenario_id=2, n_drop_grid=[120], n_feas_grid=[150]),
    ]
    code, handed = _simulate(monkeypatch, tmp_path, docs, threads)
    assert code == cli.EXIT_OK
    (pool,) = _RecordingPool.opened
    # min(threads, largest per-scenario task count): scenario 1 has 4 tasks.
    assert _RecordingPool.sizes == [min(threads, 4)]
    assert len(handed) == 3 and all(h is pool for h in handed)
    assert pool.closed
    # Scenario 2's single task runs in the parent; the others map on the pool.
    assert len(_RecordingPool.chunksizes) == 2


def test_simulate_on_one_thread_opens_no_pool(recording_pool, monkeypatch, tmp_path):
    docs = [dict(_SMALL, scenario_id=0, n_drop_grid=[90]), dict(_SMALL, scenario_id=1, n_drop_grid=[120])]
    code, handed = _simulate(monkeypatch, tmp_path, docs, 1)
    assert code == cli.EXIT_OK
    assert _RecordingPool.opened == []
    assert handed == [None, None]


def test_simulate_closes_pool_when_a_scenario_fails(recording_pool, monkeypatch, tmp_path):
    # The second scenario's arm-dropping trigger falls before each arm has
    # 2 subjects, so its first replicate raises SchedulingError (exit 4).
    docs = [
        dict(_SMALL, scenario_id=0, n_drop_grid=[90]),
        {"scenario_id": 1, "n_drop_grid": [4], "n_feas_grid": [290, 300], "replicates": 20},
    ]
    code, handed = _simulate(monkeypatch, tmp_path, docs, 2)
    assert code == cli.EXIT_SIMULATION
    (pool,) = _RecordingPool.opened
    assert len(handed) == 2 and all(h is pool for h in handed)
    assert pool.closed
    assert not (tmp_path / "out").exists()


# -- the cell tally ------------------------------------------------------------------

# The tally as it was written before its keyed form: a fixed key registry
# and one hand-written count per outcome, with power and FWER decided branch
# by branch. It is the reference the keyed tally must reproduce.
_REFERENCE_TALLY_KEYS = (
    "n_reps",
    "n_failed",
    "n_retention",
    "n_retain_correct",
    "n_retain_both",
    "n_used_default",
    "n_proceed",
    "succ_A1",
    "succ_A2",
    "succ_A_pooled",
    "succ_B1",
    "succ_A1_B1",
    "succ_A2_B1",
    "n_power",
    "n_fwer",
    "n_gating_violations",
    "n_clamped",
    "branch_one",
    "branch_both",
    "branch_term",
)


def _reference_accumulate(tally, result, correct, effective):
    tally["n_reps"] += 1
    tally["n_clamped"] += result.n_clamped
    if result.failed:
        tally["n_failed"] += 1
        return

    if result.retention is not None:
        tally["n_retention"] += 1
        tally["n_retain_correct"] += correct <= result.retention.retained
        tally["n_retain_both"] += len(result.retention.retained) == 2
        tally["n_used_default"] += result.retention.used_default
    if result.feasibility is not None:
        tally["n_proceed"] += result.feasibility.proceed

    tally["branch_one"] += result.branch is FinalBranch.ONE_ARM_RETAINED
    tally["branch_both"] += result.branch is FinalBranch.BOTH_ARMS_RETAINED
    tally["branch_term"] += result.branch is FinalBranch.DOMAIN_A_TERMINATED

    successful = result.successful_arms
    tally["succ_A1"] += "A1" in successful
    tally["succ_A2"] += "A2" in successful
    tally["succ_A_pooled"] += "A_pooled" in successful
    tally["succ_B1"] += "B1" in successful
    tally["succ_A1_B1"] += "A1" in successful and "B1" in successful
    tally["succ_A2_B1"] += "A2" in successful and "B1" in successful
    tally["n_gating_violations"] += gating_violation(result.gatekeeping, result.branch)

    retained_arm = None
    if result.branch is FinalBranch.ONE_ARM_RETAINED:
        (retained_arm,) = result.retention.retained
    effective_a = effective & {"A1", "A2"}
    domain_a_ok = True
    if effective_a:
        if result.branch is FinalBranch.BOTH_ARMS_RETAINED:
            domain_a_ok = bool(successful & effective_a)
        elif result.branch is FinalBranch.ONE_ARM_RETAINED:
            domain_a_ok = "A_pooled" in successful and retained_arm in effective_a
        else:
            domain_a_ok = False
    domain_b_ok = "B1" in successful if "B1" in effective else True
    if effective:
        tally["n_power"] += domain_a_ok and domain_b_ok

    null_arms = {"A1", "A2", "B1"} - effective
    false_success = bool(successful & null_arms)
    if "A_pooled" in successful and retained_arm is not None and retained_arm in null_arms:
        false_success = True
    tally["n_fwer"] += false_success


# Reference key -> the keyed tally's key for the same count.
_KEY_OF = {
    **{k: k for k in _REFERENCE_TALLY_KEYS if not k.startswith(("succ_", "branch_"))},
    "succ_A1": "A1",
    "succ_A2": "A2",
    "succ_A_pooled": "A_pooled",
    "succ_B1": "B1",
    "succ_A1_B1": "A1:B1",
    "succ_A2_B1": "A2:B1",
    "branch_one": FinalBranch.ONE_ARM_RETAINED,
    "branch_both": FinalBranch.BOTH_ARMS_RETAINED,
    "branch_term": FinalBranch.DOMAIN_A_TERMINATED,
}

_ROOT = Path(__file__).resolve().parent.parent
_TALLY_CELLS = ((90, 300), (150, 150), (300, 90))


def _tally_configs():
    """The shipped scenarios, the benchmark's both-arms scenario, and, for
    each subset of {A1, A2, B1}, that subset effective under a null and a
    both-arms-nominating biomarker pattern."""
    configs = [c for path in sorted((_ROOT / "scenarios").glob("*.json")) for c in load_scenarios(path)]
    (both_arms,) = load_scenarios(_ROOT / "perfbench" / "scenarios" / "both_arms.json")
    configs.append(both_arms)
    for i, effective in enumerate(itertools.product((False, True), repeat=3)):
        effects = {arm: 0.2 if on else 0.0 for arm, on in zip(("A1", "A2", "B1"), effective)}
        for j, base in enumerate((ScenarioConfig(), both_arms)):
            configs.append(
                dataclasses.replace(base, scenario_id=10 + 2 * i + j, phase3_effects=effects, base_seed=500 + i)
            )
    return configs


def _replicates(config, cells, n):
    for cell in cells:
        for rep in range(n):
            yield run_replicate(config, *cell, derive_seed(config.base_seed, config.scenario_id, cell, rep))


def _failed(result):
    """The same replicate with its final fit flagged as failed."""
    return dataclasses.replace(result, gatekeeping=GatekeepingOutcome({}, frozenset(), frozenset(), True))


def test_keyed_tally_equals_reference_tally():
    seen = set()
    outcomes = set()
    for config in _tally_configs():
        correct, effective = designed_correct_arms(config), truly_effective_arms(config)
        reference = dict.fromkeys(_REFERENCE_TALLY_KEYS, 0)
        tally = defaultdict(int)
        for i, result in enumerate(_replicates(config, _TALLY_CELLS, 20)):
            if i % 9 == 4:
                result = _failed(result)
            power, fwer = reference["n_power"], reference["n_fwer"]
            _reference_accumulate(reference, result, correct, effective)
            harness._accumulate(tally, result, correct, effective)
            if not result.failed:
                seen.add((result.branch, effective))
                if effective:
                    outcomes.add(("power", reference["n_power"] > power))
                outcomes.add(("fwer", reference["n_fwer"] > fwer))
        assert set(tally) <= set(_KEY_OF.values())
        assert {k: tally[_KEY_OF[k]] for k in _REFERENCE_TALLY_KEYS} == reference, config.scenario_id
        assert reference["n_failed"] > 0
    subsets = {frozenset(c) for n in range(4) for c in itertools.combinations(("A1", "A2", "B1"), n)}
    assert seen == set(itertools.product(FinalBranch, subsets))
    assert outcomes == {("power", True), ("power", False), ("fwer", True), ("fwer", False)}


def test_chunked_cell_merges_to_reference_counts():
    (config,) = load_scenarios(_ROOT / "scenarios" / "first_arm_effective.json")
    cell, replicates = (150, 150), 600  # three tasks of up to 250 replicates
    correct, effective = designed_correct_arms(config), truly_effective_arms(config)
    ref = dict.fromkeys(_REFERENCE_TALLY_KEYS, 0)
    for result in _replicates(config, (cell,), replicates):
        _reference_accumulate(ref, result, correct, effective)
    oc, _ = run_cell_detail(config, *cell, replicates=replicates)

    n_eff = ref["n_reps"] - ref["n_failed"]
    assert (oc.n_replicates_effective, oc.n_failed) == (n_eff, ref["n_failed"])
    assert oc.n_retention_decisions == ref["n_retention"]
    assert oc.p_retain_correct == ref["n_retain_correct"] / ref["n_retention"]
    assert oc.p_retain_both == ref["n_retain_both"] / ref["n_retention"]
    assert oc.p_proceed == ref["n_proceed"] / n_eff
    names = {"A1": "succ_A1", "A2": "succ_A2", "A_pooled": "succ_A_pooled", "B1": "succ_B1",
             "A1:B1": "succ_A1_B1", "A2:B1": "succ_A2_B1"}
    assert oc.p_success == {key: ref[name] / n_eff for key, name in names.items()}
    assert list(oc.p_success) == list(names)
    assert (oc.power, oc.fwer) == (ref["n_power"] / n_eff, ref["n_fwer"] / n_eff)
    assert oc.branch_counts == {
        "one_arm_retained": ref["branch_one"],
        "both_arms_retained": ref["branch_both"],
        "domain_a_terminated": ref["branch_term"],
    }
    assert list(oc.branch_counts) == ["one_arm_retained", "both_arms_retained", "domain_a_terminated"]
    assert (oc.n_used_default, oc.n_gating_violations, oc.n_clamped) == (
        ref["n_used_default"], ref["n_gating_violations"], ref["n_clamped"])
    assert 0 < ref["n_power"] < n_eff
