"""Replicate engine and grid aggregation: seed derivation, path forcing,
conservation identities, and execution-order invariance."""

import concurrent.futures
import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from fast_trials import cli, harness
from fast_trials.design import ABSENT, DOMAIN_A_ARMS, ScenarioConfig, load_scenarios, validate_scenario
from fast_trials.final_analysis import FinalBranch, GatekeepingOutcome, build_final_model
from fast_trials.generation import generate_block
from fast_trials.harness import (
    derive_seed,
    designed_correct_arms,
    gating_violation,
    run_cell_detail,
    run_grid,
    run_grid_detail,
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
    seeds = harness._derive_seeds(20230901, 1, [(150, 300)], np.arange(1_000_000))
    assert np.unique(seeds).size == 1_000_000


def test_vectorized_matches_scalar():
    # The array pass, cell-major, against every stage mixed in Python ints.
    # Neither a scenario id nor a trigger is bounded, so a part of 2^64 or
    # more must be masked to 64 bits before it enters a uint64 array.
    cells, reps = [(210, 240), (90, 300), (2**63 + 1, 2**64 + 5)], [0, 1, 17, 999_999, 2**64 - 1]
    for base_seed, scenario_id in [(42, 5), (2**64 - 1, 2**64 + 3)]:
        vec = harness._derive_seeds(base_seed, scenario_id, cells, reps)
        scalar = [harness._mix_parts(base_seed, (scenario_id, *cell, r)) for cell in cells for r in reps]
        assert vec.tolist() == scalar
        assert [derive_seed(base_seed, scenario_id, cell, r) for cell in cells for r in reps] == scalar


def test_base_seed_avalanche():
    reps = np.arange(1000)
    a = harness._derive_seeds(1001, 0, [(90, 90)], reps)
    b = harness._derive_seeds(1002, 0, [(90, 90)], reps)
    assert not np.any(a == b)


_EXTREMES = [
    (20230901, 3, (150, 300), 0),
    (2**64 - 1, 2**64 - 1, (2**64 - 1, 2**64 - 1), 2**64 - 6),
    (0, 2**63, (0, 2**63 - 1), 2**63 - 3),
]


@pytest.mark.parametrize("base_seed, scenario_id, cell, start", _EXTREMES)
def test_scalar_seed_is_the_grid_seed(base_seed, scenario_id, cell, start):
    # derive_seed mixes in Python ints, a grid run on uint64 arrays; a
    # grid's seed words put default_rng(derive_seed(...))'s state in PCG64.
    reps = range(start, start + 6)
    seeds = harness._derive_seeds(base_seed, scenario_id, [cell], np.array(reps, dtype=np.uint64))
    assert seeds.tolist() == [derive_seed(base_seed, scenario_id, cell, rep) for rep in reps]
    for rep, words in zip(reps, harness._pcg64_words(seeds).tolist()):
        expected = np.random.default_rng(derive_seed(base_seed, scenario_id, cell, rep)).bit_generator.state
        assert harness._pcg64_state(*words) == expected, rep
    # A replicate index is read mod 2^64.
    assert derive_seed(base_seed, scenario_id, cell, start - 2**64) == seeds[0]


@pytest.mark.parametrize("base_seed, scenario_id, cell, start", _EXTREMES)
def test_task_seeds_are_derive_seed(monkeypatch, base_seed, scenario_id, cell, start):
    # A task resets its one generator from each replicate's seed words; at
    # every replicate it is in default_rng(derive_seed(...))'s state. The
    # task spans two cells: the first cell's last three replicates,
    # start..start+2, then the second cell's first three.
    config = _null_config()
    canned = run_replicate(config, 150, 300, 1)
    calls = []

    def recording_run_replicate(_config, n_drop, n_feas, rng):
        calls.append(((n_drop, n_feas), rng, rng.bit_generator.state))
        return canned

    monkeypatch.setattr(harness, "run_replicate", recording_run_replicate)
    cells = [cell, (cell[0], cell[1] ^ 1)]
    task_config = dataclasses.replace(config, base_seed=base_seed, scenario_id=scenario_id, replicates=start + 3)
    pairs = [(cells[0], start + i) for i in range(3)] + [(cells[1], i) for i in range(3)]
    seeds = np.array([derive_seed(base_seed, scenario_id, *pair) for pair in pairs], dtype=np.uint64)
    histogram, _, traces = harness._run_chunk((task_config, cells, start, harness._pcg64_words(seeds), True))
    replicates_of = Counter()
    for (j, _), count in histogram.items():
        replicates_of[j] += count
    assert replicates_of == {0: 3, 1: 3}
    assert [(called_cell, row["replicate"]) for (called_cell, *_), row in zip(calls, traces)] == pairs
    assert all(rng is calls[0][1] for _, rng, _ in calls)
    assert [state for *_, state in calls] == [
        np.random.default_rng(derive_seed(base_seed, scenario_id, *pair)).bit_generator.state for pair in pairs
    ]


def test_seed_words_pin_default_rng():
    # SeedSequence's mixing is written out in uint32 arrays; a numpy release
    # that changed it, or PCG64's seeding, must fail here, not move results.
    extremes = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    seeds = np.array(extremes + np.random.default_rng(8).integers(0, 2**64, 200, np.uint64).tolist(), np.uint64)
    for seed, words in zip(seeds.tolist(), harness._pcg64_words(seeds).tolist()):
        assert words == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist(), seed
        assert harness._pcg64_state(*words) == np.random.default_rng(seed).bit_generator.state, seed


def test_grid_replicates_equal_four_argument_run_replicate(monkeypatch):
    # Three-replicate tasks, so the grid's seed words are sliced across
    # task and cell bounds; one scenario per final branch.
    monkeypatch.setattr(harness, "_CHUNK_SIZE", 3)
    run_four_argument = harness.run_replicate
    seen = []

    def recording_run_replicate(config, n_drop, n_feas, rng):
        result = run_four_argument(config, n_drop, n_feas, rng)
        seen.append(result)
        return result

    monkeypatch.setattr(harness, "run_replicate", recording_run_replicate)
    branches = set()
    for path in ("scenarios/null.json", "scenarios/first_arm_effective.json", "perfbench/scenarios/both_arms.json"):
        (config,) = load_scenarios(_ROOT / path)
        config = dataclasses.replace(config, n_drop_grid=(150, 210), n_feas_grid=(90, 300), replicates=7)
        seen.clear()
        _, traces = run_grid_detail(config, collect_traces=True)
        assert len(seen) == len(traces) == 28
        for result, row in zip(seen, traces):
            cell = (row["n_drop"], row["n_feas"])
            seed = derive_seed(config.base_seed, config.scenario_id, cell, row["replicate"])
            assert run_four_argument(config, *cell, seed) == result
            branches.add(result.branch)
    assert branches == set(FinalBranch)


def test_run_replicate_takes_a_seed_or_its_generator():
    # A seed in [0, 2^64) runs as the generator default_rng makes of it; a
    # generator is used as it is, and left where the replicate leaves it.
    config = _null_config()
    for seed in (0, 1, 2**64 - 1):
        rng = np.random.default_rng(seed)
        assert run_replicate(config, 150, 300, seed) == run_replicate(config, 150, 300, rng)
        assert rng.bit_generator.state != np.random.default_rng(seed).bit_generator.state


def test_grid_runs_in_threads_keep_their_streams():
    # Each thread resets a generator of its own: four runs interleaved at a
    # short switch interval give the serial run's results and traces.
    config = _null_config(n_drop_grid=(150,), n_feas_grid=(90, 300), replicates=12, base_seed=3)
    expected = run_grid_detail(config, collect_traces=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as executor:
            futures = [executor.submit(run_grid_detail, config, collect_traces=True) for _ in range(4)]
            outputs = [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(output == expected for output in outputs)


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
    assert result.schedule[0][0] is AnalysisKind.FEASIBILITY


def test_termination_stops_domain_a_assignment(monkeypatch):
    cfg = _null_config(alpha_feas=1e-12, base_seed=6, n_total=400)
    blocks, tables = [], []

    def recording_generate_block(config, arms, n, stream, biomarkers=True):
        block = generate_block(config, arms, n, stream, biomarkers=biomarkers)
        blocks.append((arms, block[0]))
        return block

    def recording_build_final_model(cells, branch):
        tables.append(cells.copy())
        return build_final_model(cells, branch)

    monkeypatch.setattr(harness, "generate_block", recording_generate_block)
    monkeypatch.setattr(harness, "build_final_model", recording_build_final_model)
    result = run_replicate(cfg, 300, 90, derive_seed(6, 0, (300, 90), 1))
    assert result.branch is FinalBranch.DOMAIN_A_TERMINATED
    assert result.gatekeeping.node_p_values.keys() == {"beta1"}
    # The feasibility interim at 90 fails; every later subject is drawn with
    # domain A closed and lands in the ABSENT row of the final cell table.
    (first_arms, first_arm_a), (arms, arm_a) = blocks
    assert first_arms == frozenset(DOMAIN_A_ARMS) and len(first_arm_a) == 90
    assert arms is None
    assert len(arm_a) == 310 and np.all(arm_a == ABSENT)
    (cells,) = tables
    assert cells.sum() == 400
    assert cells[ABSENT + 1].sum() == 400 - 90


def test_replicate_counts_its_clamped_outcomes(monkeypatch):
    """With A1's risk difference past 1, every A1 subject's event
    probability is clamped and no other is: a replicate counts the A1
    subjects of all its blocks."""
    cfg = ScenarioConfig(phase3_effects={"A1": 0.9, "A2": 0.0, "B1": 0.0}, base_seed=7)  # not valid: it clamps
    arm_codes = []

    def recording_generate_block(config, arms, n, stream, biomarkers=True):
        block = generate_block(config, arms, n, stream, biomarkers=biomarkers)
        arm_codes.append(block[0])
        return block

    monkeypatch.setattr(harness, "generate_block", recording_generate_block)
    for rep in range(6):
        arm_codes.clear()
        result = run_replicate(cfg, 150, 240, derive_seed(7, 0, (150, 240), rep))
        assert len(arm_codes) >= 2
        assert result.n_clamped == sum(int(np.count_nonzero(arm_a == 1)) for arm_a in arm_codes) > 0


def test_tie_runs_dropping_then_feasibility_on_same_snapshot():
    cfg = _null_config(base_seed=8)
    result = run_replicate(cfg, 120, 120, derive_seed(8, 0, (120, 120), 2))
    assert result.schedule[0] == (AnalysisKind.ARM_DROPPING, 120)
    assert result.schedule[1] == (AnalysisKind.FEASIBILITY, 120)
    assert result.retention is not None
    assert result.feasibility is not None


def test_replicate_records_refuse_assignment():
    """A replicate's path and every record it holds are read-only: the tally
    and the trace row read the same result."""
    cfg = _null_config(base_seed=8)
    result = run_replicate(cfg, 120, 120, derive_seed(8, 0, (120, 120), 2))
    records = (result, result.retention, result.feasibility, result.gatekeeping, result.feasibility.test)
    names = ["TrialResult", "RetentionDecision", "FeasibilityDecision", "GatekeepingOutcome", "TestResult"]
    assert [type(record).__name__ for record in records] == names
    for record in records:
        for field in (*record._fields, "undeclared"):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
    for prop in ("successful_arms", "failed"):
        with pytest.raises(AttributeError):
            setattr(result, prop, None)


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


def test_one_replicate_per_branch_raises_no_warning():
    """Every warning is an error here, not only a RuntimeWarning: a kernel
    that starts leaking overflow or invalid-value warnings fails."""
    cases = {
        "domain_a_terminated": _ROOT / "scenarios" / "null.json",
        "one_arm_retained": _ROOT / "scenarios" / "first_arm_effective.json",
        "both_arms_retained": _ROOT / "perfbench" / "scenarios" / "both_arms.json",
    }
    for branch, path in cases.items():
        (config,) = load_scenarios(path)
        cell = (config.n_drop_grid[0], config.n_feas_grid[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            branches = (run_replicate(config, *cell, seed).branch.value for seed in range(200))
            assert branch in branches


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


@pytest.mark.parametrize("threads", [0, -4])
@pytest.mark.parametrize("entry", ["run_grid", "run_grid_detail", "run_cell"])
def test_worker_count_below_one_rejected_before_any_replicate(monkeypatch, entry, threads):
    ran = []
    monkeypatch.setattr(harness, "run_replicate", lambda *args: ran.append(args))
    cfg = _null_config(replicates=3, n_drop_grid=(150,), n_feas_grid=(300,))
    args = (cfg, 150, 300) if entry == "run_cell" else (cfg,)
    with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
        getattr(harness, entry)(*args, threads=threads)
    assert ran == []


@pytest.mark.parametrize("threads", [2.5, "2", True, 1.0, None])
@pytest.mark.parametrize("entry", ["run_grid", "run_grid_detail", "run_cell"])
def test_worker_count_that_is_not_an_integer_rejected(monkeypatch, entry, threads):
    # The CLI's rule: an int of at least 1, and a bool is not one. Before,
    # 2.5 ran on a pool, True ran on one worker and "2" raised a TypeError.
    ran = []
    monkeypatch.setattr(harness, "run_replicate", lambda *args: ran.append(args))
    cfg = _null_config(replicates=3, n_drop_grid=(150,), n_feas_grid=(150, 300))
    args = (cfg, 150, 300) if entry == "run_cell" else (cfg,)
    with pytest.raises(ValueError, match=re.escape(f"threads must be an integer, got {threads!r}")):
        getattr(harness, entry)(*args, threads=threads)
    assert ran == []


def test_numpy_integer_worker_count_accepted():
    cfg = _null_config(replicates=2, n_drop_grid=(150,), n_feas_grid=(300,))
    assert run_grid(cfg, threads=np.int64(1)) == run_grid(cfg)


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
    each map's task sizes and every pool opened, which it marks closed on
    exit, and runs the tasks in this process, so no worker is ever started."""

    sizes = []
    mapped = []
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

    def map(self, fn, iterable):
        tasks = list(iterable)
        self.mapped.append([len(task[3]) for task in tasks])  # a task's replicates: its seed words
        return map(fn, tasks)


@pytest.fixture
def recording_pool(monkeypatch):
    # open_pool imports the executor when it forks, so patch where it looks
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    for record in ("sizes", "mapped", "opened"):
        monkeypatch.setattr(_RecordingPool, record, [])
    return _RecordingPool


@pytest.mark.parametrize(
    "threads, n_feas_grid, replicates, sizes",
    [
        (16, (90,), 600, [9] * 66 + [6]),  # one cell in tasks of 9
        (16, (90, 120), 8, [1] * 16),  # a task a replicate
        (2, (90, 120, 150), 8, [3] * 8),  # tasks cross cells
        (2, tuple(range(90, 106)), 250, [250] * 16),  # 250 replicates fill a task
        (2, tuple(range(90, 154)), 4, [32] * 8),  # 64 cells: 4 tasks per worker
        (2, tuple(range(90, 106)), 8, [16] * 8),  # 16 cells: 4 tasks per worker
        (3, tuple(range(90, 114)), 8, [16] * 12),  # 24 cells on 3 workers: 4 tasks each
        (16, (90,), 3, [1, 1, 1]),  # fewer replicates than threads
    ],
)
def test_pool_never_exceeds_task_count(recording_pool, threads, n_feas_grid, replicates, sizes):
    cfg = _null_config(n_drop_grid=(90,), n_feas_grid=n_feas_grid, replicates=replicates, n_total=200)
    pooled = run_grid(cfg, threads=threads)
    n = len(n_feas_grid) * replicates
    workers = min(threads, n)
    assert _RecordingPool.sizes == [workers]
    assert _RecordingPool.mapped == [sizes]
    # A task holds at most _CHUNK_SIZE replicates, and a worker gets at
    # least 4 tasks when there are replicates enough.
    assert sum(sizes) == n and max(sizes) <= harness._CHUNK_SIZE
    assert n < 4 * workers or len(sizes) >= 4 * workers
    assert pooled == run_grid(cfg, threads=1)


def test_a_one_worker_run_never_imports_the_process_pool():
    """A fresh process that imports the CLI and runs a grid on one worker
    loads neither ``multiprocessing`` nor ``concurrent.futures.process``;
    opening a pool of two workers loads both."""
    code = (
        "import sys\n"
        "import fast_trials.cli\n"
        "from fast_trials import ScenarioConfig, harness\n"
        "config = ScenarioConfig(n_drop_grid=(90,), n_feas_grid=(90, 120), replicates=4, n_total=200)\n"
        "harness.run_grid(config, threads=1)\n"
        "pool = ('multiprocessing', 'concurrent.futures.process')\n"
        "print([m for m in pool if m in sys.modules])\n"
        "harness.open_pool([config], 2).shutdown()\n"
        "print([m for m in pool if m in sys.modules])\n"
    )
    path = [str(_ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.splitlines() == ["[]", "['multiprocessing', 'concurrent.futures.process']"]


@pytest.mark.parametrize("threads", [1, 2])
def test_cell_run_is_the_one_cell_grid_run(threads):
    cfg = _null_config(
        biomarker_effects={"A1": (10.0, -10.0), "A2": (10.0, -10.0)},
        phase3_effects={"A1": 0.1, "A2": 0.1, "B1": 0.1},
        n_drop_grid=(90, 120),
        n_feas_grid=(90,),
        n_total=300,
        replicates=3,
        base_seed=505,
    )
    cell, replicates = (150, 210), 260  # outside cfg's grid; several tasks
    one_cell = dataclasses.replace(cfg, n_drop_grid=(150,), n_feas_grid=(210,), replicates=replicates)
    (expected,), expected_traces = run_grid_detail(one_cell, collect_traces=True)
    oc, traces = run_cell_detail(cfg, *cell, threads=threads, collect_traces=True, replicates=replicates)
    assert oc == expected and traces == expected_traces
    assert len(traces) == replicates


@pytest.mark.parametrize("cell", [(201, 90), (90, 201), (0, 90), (90, 0)])
def test_cell_triggers_are_validated_before_any_pool_opens(recording_pool, cell):
    cfg = _null_config(n_drop_grid=(90,), n_feas_grid=(90,), n_total=200, replicates=600)
    with pytest.raises(ValueError, match="triggers must"):
        run_cell_detail(cfg, *cell, threads=2)
    assert _RecordingPool.opened == []


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
    # min(threads, largest scenario's replicate count): scenario 1 has 16.
    assert _RecordingPool.sizes == [min(threads, 16)]
    assert len(handed) == 3 and all(h is pool for h in handed)
    assert pool.closed
    # Every scenario maps on the pool, the one-cell scenario 2 too.
    assert len(_RecordingPool.mapped) == 3


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
# by branch. It is the reference a cell's histogram of outcome codes must
# reproduce.
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


_ROOT = Path(__file__).resolve().parent.parent
_TALLY_TRIGGERS = (90, 300)  # each interim first, and both at once


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
    return result._replace(gatekeeping=GatekeepingOutcome({}, frozenset(), frozenset(), True))


def _assert_matches_reference(oc, ref):
    """A cell's characteristics are the reference tally's counts and rates."""
    n_eff = ref["n_reps"] - ref["n_failed"]
    assert (oc.n_replicates_effective, oc.n_failed) == (n_eff, ref["n_failed"])
    assert oc.n_retention_decisions == ref["n_retention"]
    per_ret = lambda name: ref[name] / ref["n_retention"] if ref["n_retention"] else 0.0
    per_eff = lambda name: ref[name] / n_eff if n_eff else 0.0
    assert (oc.p_retain_correct, oc.p_retain_both) == (per_ret("n_retain_correct"), per_ret("n_retain_both"))
    assert oc.p_proceed == per_eff("n_proceed")
    names = {"A1": "succ_A1", "A2": "succ_A2", "A_pooled": "succ_A_pooled", "B1": "succ_B1",
             "A1:B1": "succ_A1_B1", "A2:B1": "succ_A2_B1"}
    assert oc.p_success == {key: per_eff(name) for key, name in names.items()}
    assert list(oc.p_success) == list(names)
    assert (oc.power, oc.fwer) == (per_eff("n_power"), per_eff("n_fwer"))
    assert oc.branch_counts == {
        "one_arm_retained": ref["branch_one"],
        "both_arms_retained": ref["branch_both"],
        "domain_a_terminated": ref["branch_term"],
    }
    assert list(oc.branch_counts) == ["one_arm_retained", "both_arms_retained", "domain_a_terminated"]
    assert (oc.n_used_default, oc.n_gating_violations, oc.n_clamped) == (
        ref["n_used_default"], ref["n_gating_violations"], ref["n_clamped"])


def test_histogram_tally_equals_reference_tally(monkeypatch):
    # Each config's 2 x 2 grid runs on replayed replicates, 20 a cell: every
    # ninth is flagged, and some terminated ones are relabelled as both arms
    # retained, so two codes differ only in their branch. Every cell must
    # read as its reference tally, and alike from the default tasks, from
    # one task, and from two tasks split mid-cell.
    cells = list(itertools.product(_TALLY_TRIGGERS, _TALLY_TRIGGERS))
    seen, outcomes, relabelled = set(), set(), 0
    for config in _tally_configs():
        config = dataclasses.replace(config, n_drop_grid=_TALLY_TRIGGERS, n_feas_grid=_TALLY_TRIGGERS, replicates=20)
        correct, effective = designed_correct_arms(config), truly_effective_arms(config)
        results = []
        for i, result in enumerate(_replicates(config, cells, 20)):
            if i % 9 == 4:
                result = _failed(result)
            elif i % 9 == 7 and result.branch is FinalBranch.DOMAIN_A_TERMINATED and not result.failed:
                result = result._replace(branch=FinalBranch.BOTH_ARMS_RETAINED)
                relabelled += 1
            if not result.failed:
                seen.add((result.branch, effective))
            results.append(result)
        runs = []
        for task_size in (harness._task_size, lambda n, workers: n, lambda n, workers: n // 2 + 3):
            replay = iter(results)
            monkeypatch.setattr(harness, "run_replicate", lambda *args: next(replay))
            monkeypatch.setattr(harness, "_task_size", task_size)
            runs.append(run_grid(config))
        assert runs[1] == runs[0] == runs[2], config.scenario_id

        n_failed = 0
        for oc, k in zip(runs[0], range(0, len(results), 20)):
            cell_results = results[k : k + 20]
            assert len({harness._outcome_code(r) for r in cell_results}) < len(cell_results)  # codes repeat
            reference = dict.fromkeys(_REFERENCE_TALLY_KEYS, 0)
            for result in cell_results:
                power, fwer = reference["n_power"], reference["n_fwer"]
                _reference_accumulate(reference, result, correct, effective)
                if not result.failed:
                    if effective:
                        outcomes.add(("power", reference["n_power"] > power))
                    outcomes.add(("fwer", reference["n_fwer"] > fwer))
            _assert_matches_reference(oc, reference)
            n_failed += reference["n_failed"]
        assert n_failed > 0
    assert relabelled > 0
    subsets = {frozenset(c) for n in range(4) for c in itertools.combinations(("A1", "A2", "B1"), n)}
    assert seen == set(itertools.product(FinalBranch, subsets))
    assert outcomes == {("power", True), ("power", False), ("fwer", True), ("fwer", False)}


def test_chunked_cell_merges_to_reference_counts():
    (config,) = load_scenarios(_ROOT / "scenarios" / "first_arm_effective.json")
    cell, replicates = (150, 150), 600  # four tasks of 150 replicates
    correct, effective = designed_correct_arms(config), truly_effective_arms(config)
    ref = dict.fromkeys(_REFERENCE_TALLY_KEYS, 0)
    for result in _replicates(config, (cell,), replicates):
        _reference_accumulate(ref, result, correct, effective)
    oc, _ = run_cell_detail(config, *cell, replicates=replicates)
    _assert_matches_reference(oc, ref)
    assert 0 < ref["n_power"] < ref["n_reps"] - ref["n_failed"]
