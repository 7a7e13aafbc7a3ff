"""End-to-end replicate execution and operating-characteristic aggregation.

A replicate enrolls subjects sequentially under the currently active arms,
pauses at each interim trigger to apply the corresponding decision
(restricting or terminating domain-A allocation), finishes enrollment, and
runs the branch-appropriate final analysis. The interims read the subjects
enrolled so far; the final analysis reads only the events and trials per
(domain-A arm, domain-B arm) cell, so generation returns each block's
cell table with the block and the tables are summed. Every replicate
owns a seed derived injectively from (base_seed, scenario, cell, replicate
index), so grid runs are bitwise reproducible regardless of execution order
or worker count: each task returns its integer tallies and, when asked for,
its trace rows, and the tasks are folded back in their fixed order. A tally
counts each outcome under one key: a name, a ``FinalBranch``, or a
``p_success`` key of ``_SUCCESS_SETS``; a cell adds its later tasks' counts
into its first task's tally.

A task runs up to ``_CHUNK_SIZE`` replicates of one cell. On more than one
worker, tasks go to a process pool in batches: each message carries as many
tasks as fit in ``_CHUNK_SIZE`` replicates, but every worker gets at least
four messages. A grid run opens its own pool (``open_pool``), or maps on
one it is handed; ``fast-trials simulate`` opens one pool per call for all
of its scenarios. A cell run is the grid run of the one-cell grid, so its
triggers and replicate count are validated with the rest of the config.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import BenefitDirection, ScenarioConfig, SubjectData, validate_scenario
from .final_analysis import (
    ANCESTORS,
    FinalBranch,
    GatekeepingOutcome,
    analyze_terminated,
    build_final_model,
    gatekeep_both_retained,
    gatekeep_one_retained,
)
from .generation import ActiveArms, generate_block
from .interim import (
    AnalysisKind,
    AnalysisSchedule,
    FeasibilityDecision,
    RetentionDecision,
    arm_dropping_analysis,
    build_schedule,
    feasibility_analysis,
)

__all__ = [
    "TrialResult",
    "OperatingCharacteristics",
    "derive_seed",
    "designed_correct_arms",
    "truly_effective_arms",
    "gating_violation",
    "run_replicate",
    "run_cell",
    "run_cell_detail",
    "run_grid",
    "run_grid_detail",
    "open_pool",
    "TRACE_FIELDS",
]

_MASK64 = (1 << 64) - 1
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB
# Odd multipliers keep each stage input injective before the bijective mix.
_PART_MULT = (0xA24BAED4963EE407, 0x9FB21C651E98DF25, 0xD6E8FEB86659FD93, 0xC2B2AE3D27D4EB4F)


def _splitmix64(x: int) -> int:
    x = (x + _SM_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _SM_MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _SM_MIX2) & _MASK64
    return x ^ (x >> 31)


def _mix_parts(base_seed: int, parts: tuple) -> int:
    """The seed state after mixing in each index part, one stage each."""
    h = _splitmix64(int(base_seed) & _MASK64)
    for part, mult in zip(parts, _PART_MULT):
        h = _splitmix64(h ^ ((int(part) * mult) & _MASK64))
    return h


def derive_seed(base_seed: int, scenario_id: int, cell: tuple, replicate: int) -> int:
    """Deterministic 64-bit seed for one replicate.

    Each stage xors an odd-multiplied index part into the running state and
    applies a 64-bit bijective mix, so for any fixed prefix the map from
    any single index to the seed is exactly injective.
    """
    return _mix_parts(base_seed, (scenario_id, *cell, replicate))


# ---------------------------------------------------------------------------
# single replicate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialResult:
    """One replicate's full path through the design."""

    n_drop: int
    n_feas: int
    schedule: AnalysisSchedule
    retention: Optional[RetentionDecision]
    feasibility: Optional[FeasibilityDecision]
    branch: FinalBranch
    gatekeeping: GatekeepingOutcome
    n_clamped: int

    @property
    def successful_arms(self) -> frozenset:
        return self.gatekeeping.successful_arms

    @property
    def failed(self) -> bool:
        return self.gatekeeping.fit_failed


def _concat_blocks(blocks: list) -> SubjectData:
    if len(blocks) == 1:
        return blocks[0]
    return SubjectData._unchecked(
        np.concatenate([b.arm_a for b in blocks]),
        np.concatenate([b.arm_b for b in blocks]),
        np.concatenate([b.y11 for b in blocks]),
        np.concatenate([b.y12 for b in blocks]),
        np.concatenate([b.y21 for b in blocks]),
    )


def run_replicate(
    config: ScenarioConfig, n_drop: int, n_feas: int, replicate_seed: int
) -> TrialResult:
    """Simulate one trial end to end, fully determined by the arguments."""
    if max(n_drop, n_feas) > config.n_total:
        raise ValueError(
            f"interim trigger exceeds n_total={config.n_total} (n_drop={n_drop}, n_feas={n_feas})"
        )
    rng = np.random.default_rng(int(replicate_seed) & _MASK64)
    schedule = build_schedule(n_drop, n_feas)
    active = ActiveArms()
    blocks: list[SubjectData] = []  # what the interims read
    # The final analysis reads only the sum of the blocks' cell tables.
    cells = np.zeros((4, 2, 2), dtype=np.intp)
    enrolled = 0
    n_clamped = 0
    retention: Optional[RetentionDecision] = None
    feasibility: Optional[FeasibilityDecision] = None

    for kind, trigger in (schedule.first, schedule.second):
        if active.domain_a is None:
            break  # domain terminated; the later trigger can never be reached
        if trigger > enrolled:
            block, clamped, block_cells = generate_block(config, active, trigger - enrolled, rng)
            blocks.append(block)
            cells = cells + block_cells
            enrolled = trigger
            n_clamped += clamped
        snapshot = _concat_blocks(blocks)
        if kind is AnalysisKind.ARM_DROPPING:
            retention = arm_dropping_analysis(
                snapshot, config.alpha_drop, config.benefit_directions, config.default_retained_arm
            )
            active = ActiveArms(domain_a=frozenset({"A0"}) | retention.retained)
        else:
            feasibility = feasibility_analysis(
                snapshot, config.alpha_feas, config.benefit_directions[0]
            )
            if not feasibility.proceed:
                active = ActiveArms(domain_a=None)

    if config.n_total > enrolled:
        _, clamped, block_cells = generate_block(config, active, config.n_total - enrolled, rng)
        cells = cells + block_cells
        n_clamped += clamped

    if feasibility is not None and not feasibility.proceed:
        branch, gatekeeper = FinalBranch.DOMAIN_A_TERMINATED, analyze_terminated
    elif retention is not None and len(retention.retained) == 1:
        branch, gatekeeper = FinalBranch.ONE_ARM_RETAINED, gatekeep_one_retained
    elif retention is not None:
        branch, gatekeeper = FinalBranch.BOTH_ARMS_RETAINED, gatekeep_both_retained
    else:  # triggers are validated <= n_total, so both analyses must have run
        raise RuntimeError("inconsistent trial path: no feasibility failure and no retention")
    outcome = gatekeeper(build_final_model(cells, branch), config.alpha_final)

    return TrialResult(
        n_drop=int(n_drop),
        n_feas=int(n_feas),
        schedule=schedule,
        retention=retention,
        feasibility=feasibility,
        branch=branch,
        gatekeeping=outcome,
        n_clamped=n_clamped,
    )


# ---------------------------------------------------------------------------
# scenario-level truth
# ---------------------------------------------------------------------------

def designed_correct_arms(config: ScenarioConfig) -> frozenset:
    """The arm the dropping analysis should retain: arms with nonzero
    effects on both biomarkers in the benefit directions; the default arm
    when no arm (or every arm) qualifies."""
    directions = [BenefitDirection(d) for d in config.benefit_directions]
    qualifying = set()
    for arm in ("A1", "A2"):
        if all(d.favours(e, 0) for d, e in zip(directions, config.biomarker_effects[arm])):
            qualifying.add(arm)
    if len(qualifying) in (0, 2):
        return frozenset([config.default_retained_arm])
    return frozenset(qualifying)


def truly_effective_arms(config: ScenarioConfig) -> frozenset:
    """Arms with a nonzero phase-3 risk difference."""
    return frozenset(a for a in ("A1", "A2", "B1") if config.phase3_effects[a] != 0.0)


def gating_violation(outcome: GatekeepingOutcome, branch: FinalBranch) -> bool:
    """Audit a gatekeeping outcome: some rejected node is not a node of the
    branch's hierarchy or lacks a rejected ancestor. Must never be true."""
    ancestors = ANCESTORS[FinalBranch(branch)]
    return any(node not in ancestors or not ancestors[node] <= outcome.rejected for node in outcome.rejected)


# ---------------------------------------------------------------------------
# cell aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatingCharacteristics:
    """Aggregated probabilities for one (n_drop, n_feas) grid cell.

    Retention probabilities are conditional on an arm-dropping decision
    having occurred; everything else is over effective (non-failed)
    replicates. ``power`` is the probability that every domain containing a
    truly effective arm ends with such an arm declared successful, and is
    reported as 0.0 when no arm is truly effective.
    """

    scenario_id: int
    n_drop: int
    n_feas: int
    order_first: str
    p_retain_correct: float
    p_retain_both: float
    p_proceed: float
    p_success: dict
    power: float
    fwer: float
    n_replicates_effective: int
    n_failed: int
    n_retention_decisions: int
    n_used_default: int
    branch_counts: dict
    n_gating_violations: int
    n_clamped: int


# p_success key -> the arms that must all be declared successful.
_SUCCESS_SETS = {
    "A1": frozenset({"A1"}),
    "A2": frozenset({"A2"}),
    "A_pooled": frozenset({"A_pooled"}),
    "B1": frozenset({"B1"}),
    "A1:B1": frozenset({"A1", "B1"}),
    "A2:B1": frozenset({"A2", "B1"}),
}
_DOMAINS = (frozenset({"A1", "A2"}), frozenset({"B1"}))  # the treatment arms of domains A and B

TRACE_FIELDS = (
    "scenario_id",
    "n_drop",
    "n_feas",
    "replicate",
    "order_first",
    "retained",
    "used_default",
    "p_drop_y11",
    "p_drop_y12",
    "p_feasibility",
    "proceed",
    "branch",
    "hypothesis_p_values",
    "rejected",
    "successful_arms",
    "n_clamped",
    "fit_failed",
)


def _accumulate(tally: defaultdict, result: TrialResult, correct: frozenset, effective: frozenset) -> None:
    tally["n_reps"] += 1
    tally["n_clamped"] += result.n_clamped
    if result.failed:
        tally["n_failed"] += 1
        return

    retention = result.retention
    if retention is not None:
        tally["n_retention"] += 1
        tally["n_retain_correct"] += correct <= retention.retained
        tally["n_retain_both"] += len(retention.retained) == 2
        tally["n_used_default"] += retention.used_default
    if result.feasibility is not None:
        tally["n_proceed"] += result.feasibility.proceed
    tally[result.branch] += 1

    successful = result.successful_arms
    for key, arms in _SUCCESS_SETS.items():
        tally[key] += arms <= successful
    tally["n_gating_violations"] += gating_violation(result.gatekeeping, result.branch)

    # The credited arms: the pooled declaration counts for the retained arm.
    # Power: every domain holding an effective arm has a credited effective
    # arm. FWER: some credited arm is not effective.
    credited = successful
    if "A_pooled" in successful:
        credited = (successful - {"A_pooled"}) | retention.retained
    if effective:
        tally["n_power"] += all(credited & effective & domain for domain in _DOMAINS if effective & domain)
    tally["n_fwer"] += not credited <= effective


def _trace_row(config: ScenarioConfig, replicate: int, result: TrialResult) -> dict:
    ret = result.retention
    feas = result.feasibility
    p_map = ";".join(f"{k}={v:.6g}" for k, v in sorted(result.gatekeeping.node_p_values.items()))
    return {
        "scenario_id": config.scenario_id,
        "n_drop": result.n_drop,
        "n_feas": result.n_feas,
        "replicate": replicate,
        "order_first": result.schedule.first[0].value,
        "retained": "|".join(sorted(ret.retained)) if ret else "",
        "used_default": int(ret.used_default) if ret else "",
        "p_drop_y11": f"{ret.test_y11.p_value:.6g}" if ret else "",
        "p_drop_y12": f"{ret.test_y12.p_value:.6g}" if ret else "",
        "p_feasibility": f"{feas.test.p_value:.6g}" if feas else "",
        "proceed": int(feas.proceed) if feas else "",
        "branch": result.branch.value,
        "hypothesis_p_values": p_map,
        "rejected": "|".join(sorted(result.gatekeeping.rejected)),
        "successful_arms": "|".join(sorted(result.successful_arms)),
        "n_clamped": result.n_clamped,
        "fit_failed": int(result.failed),
    }


def _run_chunk(args) -> tuple[defaultdict, list]:
    config, n_drop, n_feas, start, stop, collect_traces = args
    correct = designed_correct_arms(config)
    effective = truly_effective_arms(config)
    tally = defaultdict(int)
    traces = []
    for rep in range(start, stop):
        seed = derive_seed(config.base_seed, config.scenario_id, (n_drop, n_feas), rep)
        result = run_replicate(config, n_drop, n_feas, seed)
        _accumulate(tally, result, correct, effective)
        if collect_traces:
            traces.append(_trace_row(config, rep, result))
    return tally, traces


def _characteristics(config: ScenarioConfig, n_drop: int, n_feas: int, tally: defaultdict) -> OperatingCharacteristics:
    n_eff = tally["n_reps"] - tally["n_failed"]
    per_eff = lambda k: tally[k] / n_eff if n_eff else 0.0
    n_ret = tally["n_retention"]
    return OperatingCharacteristics(
        scenario_id=config.scenario_id,
        n_drop=int(n_drop),
        n_feas=int(n_feas),
        order_first=build_schedule(n_drop, n_feas).first[0].value,
        p_retain_correct=tally["n_retain_correct"] / n_ret if n_ret else 0.0,
        p_retain_both=tally["n_retain_both"] / n_ret if n_ret else 0.0,
        p_proceed=per_eff("n_proceed"),
        p_success={key: per_eff(key) for key in _SUCCESS_SETS},
        power=per_eff("n_power"),
        fwer=per_eff("n_fwer"),
        n_replicates_effective=n_eff,
        n_failed=tally["n_failed"],
        n_retention_decisions=n_ret,
        n_used_default=tally["n_used_default"],
        branch_counts={b.value: tally[b] for b in FinalBranch},
        n_gating_violations=tally["n_gating_violations"],
        n_clamped=tally["n_clamped"],
    )


_CHUNK_SIZE = 250  # replicates per worker task
_MESSAGES_PER_WORKER = 4  # fewest pool messages a worker gets, when there are tasks enough


def _chunks_per_cell(replicates: int) -> int:
    return -(-replicates // _CHUNK_SIZE)


def _batch_size(n_tasks: int, task_replicates: int, workers: int) -> int:
    """Tasks per pool message: as many as carry up to ``_CHUNK_SIZE``
    replicates, but few enough that every worker gets
    ``_MESSAGES_PER_WORKER`` messages."""
    return max(1, min(_CHUNK_SIZE // task_replicates, n_tasks // (_MESSAGES_PER_WORKER * workers)))


def open_pool(configs, threads: int):
    """One process pool for the grid runs of ``configs``, to pass to each
    ``run_grid_detail`` call as ``pool``; use it as a context manager.

    The pool has ``threads`` workers, but no more than the largest grid has
    tasks: the fork start method launches every worker at once, so a larger
    pool forks processes that get no work. At one worker it opens nothing
    and yields None.
    """
    largest = max(len(c.n_drop_grid) * len(c.n_feas_grid) * _chunks_per_cell(c.replicates) for c in configs)
    workers = min(threads, largest)
    return ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()


def run_cell_detail(
    config: ScenarioConfig,
    n_drop: int,
    n_feas: int,
    threads: int = 1,
    collect_traces: bool = False,
    replicates: Optional[int] = None,
) -> tuple[OperatingCharacteristics, list]:
    """Run one grid cell, ``replicates`` times (default: the config's); returns
    characteristics and (optionally) one trace row per replicate. This is the
    grid run of the one-cell grid, so the triggers are validated with it."""
    validate_scenario(config)
    replicates = config.replicates if replicates is None else replicates
    cell = dataclasses.replace(config, n_drop_grid=(n_drop,), n_feas_grid=(n_feas,), replicates=replicates)
    (result,), traces = run_grid_detail(cell, threads=threads, collect_traces=collect_traces)
    return result, traces


def run_cell(
    config: ScenarioConfig, n_drop: int, n_feas: int, threads: int = 1
) -> OperatingCharacteristics:
    """Operating characteristics of one (n_drop, n_feas) cell."""
    return run_cell_detail(config, n_drop, n_feas, threads=threads)[0]


def run_grid_detail(
    config: ScenarioConfig, threads: int = 1, collect_traces: bool = False, pool=None
) -> tuple[list, list]:
    """Run the full n_drop x n_feas Cartesian product, sorted by cell.

    ``pool`` is an open executor with ``threads`` workers, such as one from
    ``open_pool``, shared by several calls; the caller shuts it down. Without
    one, a call on more than one thread opens and joins a pool of its own.
    """
    validate_scenario(config)
    replicates = config.replicates
    cells = [(d, f) for d in sorted(config.n_drop_grid) for f in sorted(config.n_feas_grid)]
    tasks = [
        (config, n_drop, n_feas, start, min(start + _CHUNK_SIZE, replicates), collect_traces)
        for n_drop, n_feas in cells
        for start in range(0, replicates, _CHUNK_SIZE)
    ]
    workers = min(threads, len(tasks))
    if workers > 1:
        chunksize = _batch_size(len(tasks), min(replicates, _CHUNK_SIZE), workers)
        with (nullcontext(pool) if pool is not None else open_pool([config], threads)) as executor:
            outputs = list(executor.map(_run_chunk, tasks, chunksize=chunksize))
    else:
        outputs = [_run_chunk(t) for t in tasks]

    n_chunks = _chunks_per_cell(replicates)
    results = []
    traces: list[dict] = []
    for j, (n_drop, n_feas) in enumerate(cells):
        chunk_outputs = outputs[j * n_chunks : (j + 1) * n_chunks]
        tally = chunk_outputs[0][0]
        for later, _ in chunk_outputs[1:]:
            for key, count in later.items():
                tally[key] += count
        results.append(_characteristics(config, n_drop, n_feas, tally))
        for _, rows in chunk_outputs:
            traces.extend(rows)
    return results, traces


def run_grid(config: ScenarioConfig, threads: int = 1) -> list:
    """Operating characteristics for every cell of the timing grid."""
    return run_grid_detail(config, threads=threads)[0]
