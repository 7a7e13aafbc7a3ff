"""Replicate engine and grid aggregation: seed derivation, path forcing,
conservation identities, and execution-order invariance."""

import dataclasses
import json

import numpy as np
import pytest

from fast_trials import cli, harness
from fast_trials.design import ScenarioConfig, validate_scenario
from fast_trials.final_analysis import FinalBranch, GatekeepingOutcome
from fast_trials.harness import (
    derive_seed,
    derive_seeds_vector,
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
