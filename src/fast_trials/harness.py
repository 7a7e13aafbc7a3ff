"""End-to-end replicate execution and operating-characteristic aggregation.

A replicate enrolls subjects under the open domain-A arms, a frozenset of
arm names; at each interim trigger arm dropping narrows the set or a failed
feasibility test makes it None, and the set left open names the final
analysis's branch. The interims read the domain-A
arm codes and biomarkers of the subjects enrolled so far, so a replicate
keeps only those columns of each block, concatenated when a second block
precedes an interim; the final analysis reads only the events and trials
per (domain-A arm, domain-B arm) cell, so generation returns each block's
cell table with its columns and each later block's table is added in
place to the first block's. A replicate's path is one NamedTuple, a
``TrialResult``, and so is each decision it holds. Every replicate owns a
seed derived injectively from (base_seed, scenario, cell, replicate
index), so grid runs are bitwise reproducible regardless of execution
order or worker count. A grid run turns every replicate's seed into the PCG64 state
``np.random.default_rng(seed)`` starts in, in one array pass with
``SeedSequence``'s algorithm, and each replicate of a task resets the
task's one generator to its state; a test pins these states to
``default_rng``'s.

A replicate's outcome is one hashable code, and a cell's tally is the
histogram of its codes: each task returns its (cell, code) counts, each
cell's n_clamped sum and, when asked for, its trace rows, and the grid run
merges them in the tasks' fixed order. The counts a code adds to its cell
are evaluated once per distinct code in a grid, as positions in the fixed
order of ``_TALLY_NAMES``, so a cell's tally is a list of integers. A
trace row is read off ``_TRACE``, the one ordered table of the trace
fields and their values.

A grid's replicates form one cell-major list, and a task is a slice of it,
which may span cells: ``_task_size`` replicates, at most ``_CHUNK_SIZE``,
and few enough that every worker gets at least ``_MESSAGES_PER_WORKER``
tasks when there are replicates enough. On more than one worker the tasks
map on a process pool, one task a message. A grid run opens its own pool
(``open_pool``), or maps on one it is handed; ``fast-trials simulate``
opens one pool per call for all of its scenarios. The pool machinery
(``concurrent.futures.process``, ``multiprocessing``) is imported only
when a pool forks, so a one-worker run never loads it. A cell run is the
grid run of the one-cell grid, so its triggers and replicate count are
validated with the rest of the config.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .design import DOMAIN_A_ARMS, BenefitDirection, ScenarioConfig, validate_scenario
from .final_analysis import (
    ANCESTORS,
    FinalBranch,
    GatekeepingOutcome,
    analyze_terminated,
    build_final_model,
    gatekeep_both_retained,
    gatekeep_one_retained,
)
from .generation import generate_block
from .interim import (
    AnalysisKind,
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
    """The seed state after mixing in each index part, one stage each: xor
    the odd-multiplied part into the state, then mix."""
    h = _splitmix64(int(base_seed) & _MASK64)
    for part, mult in zip(parts, _PART_MULT):
        h = _splitmix64(h ^ ((int(part) * mult) & _MASK64))
    return h


def _derive_seeds(base_seed: int, scenario_id: int, cells, replicates) -> np.ndarray:
    """``derive_seed`` of every (cell, replicate) pair, cell-major, as one
    uint64 array for a grid run: the trigger and replicate stages run on
    arrays, which wrap mod 2^64; a trigger is masked to 64 bits first, as
    ``_mix_parts`` masks a part's product."""
    h = np.uint64(_mix_parts(base_seed, (scenario_id,)))
    for parts, mult in zip(zip(*cells), _PART_MULT[1:3]):  # the n_drop stage, then the n_feas stage
        h = _splitmix64(h ^ np.array([int(part) & _MASK64 for part in parts], dtype=np.uint64) * np.uint64(mult))
    x = np.asarray(replicates, dtype=np.uint64) * np.uint64(_PART_MULT[3])
    return _splitmix64(h[:, None] ^ x).ravel()


def derive_seed(base_seed: int, scenario_id: int, cell: tuple, replicate: int) -> int:
    """Deterministic 64-bit seed for one replicate.

    Each stage xors an odd-multiplied index part into the running state and
    applies a 64-bit bijective mix, so for any fixed prefix the map from
    any single index to the seed is exactly injective.
    """
    return _mix_parts(base_seed, (scenario_id, *cell, replicate))


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every seed of a
    uint64 array, as an (n, 4) array: NEP 19's pool mixing and output hash
    on uint32 arrays, whose products wrap mod 2^32 as in numpy's C code.
    A seed's entropy words are its low and high halves; ``SeedSequence``
    pads the pool with zero words, so a seed below 2^32 needs no case. The
    hash's constant steps at every call; a source word stays fixed while it
    is mixed into the three other words, so its three hashes are one
    (3, n) operation and the three mixes another."""

    def constants(const: int, mult: int, count: int) -> np.ndarray:
        """The (xor, multiplier) constants of ``count`` consecutive hash
        calls, as a (2, count, 1) uint32 array."""
        steps = []
        for _ in range(count):
            steps.append((const, const * mult % 2**32))
            const = steps[-1][1]
        return np.array(steps, dtype=np.uint32).T[:, :, None]

    shift, mult_dst, mult_src = np.uint32(16), np.uint32(0xCA01F9DD), np.uint32(0x4973F715)

    def hash_(words, xor_mul):
        words = (words ^ xor_mul[0]) * xor_mul[1]
        return words ^ words >> shift

    entropy = constants(0x43B0D7E5, 0x931E8875, 16)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)  # a row per word
    pool[0], pool[1] = seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)  # astype keeps the low half
    pool = hash_(pool, entropy[:, :4])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        mixed = mult_dst * pool[dst] - mult_src * hash_(pool[src], entropy[:, 4 + 3 * src : 7 + 3 * src])
        pool[dst] = mixed ^ mixed >> shift
    state = hash_(pool[[0, 1, 2, 3, 0, 1, 2, 3]], constants(0x8B51F9DD, 0x58F38DED, 8))
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)  # as numpy pairs the words


def _pcg64_state(state_hi: int, state_lo: int, inc_hi: int, inc_lo: int) -> dict:
    """The state ``PCG64`` seeded with these four words holds: its srandom
    step, which is two LCG steps mod 2^128 from state 0."""
    inc = (inc_hi << 65 | inc_lo << 1 | 1) % 2**128
    state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) % 2**128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


# ---------------------------------------------------------------------------
# single replicate
# ---------------------------------------------------------------------------

_ALL_ARMS = frozenset(DOMAIN_A_ARMS)  # the domain-A arms open until an interim closes some
_CONTROL = frozenset({"A0"})  # open after arm dropping, with the arms it retained


class TrialResult(NamedTuple):
    """One replicate's full path through the design."""

    n_drop: int
    n_feas: int
    schedule: tuple  # the two (AnalysisKind, trigger) pairs in run order
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


def run_replicate(config: ScenarioConfig, n_drop: int, n_feas: int, rng) -> TrialResult:
    """Simulate one trial end to end, fully determined by the arguments.

    ``rng`` is the replicate's seed (``derive_seed``) or its generator: it
    is passed to ``np.random.default_rng``, which returns a ``Generator``
    as it is. A seed is taken whole, as ``default_rng`` takes it: one in
    [0, 2^64) starts the stream a grid run gives the replicate of that
    seed, and a negative one raises.
    """
    if max(n_drop, n_feas) > config.n_total:
        raise ValueError(
            f"interim trigger exceeds n_total={config.n_total} (n_drop={n_drop}, n_feas={n_feas})"
        )
    rng = np.random.default_rng(rng)
    schedule = build_schedule(n_drop, n_feas)
    arms = _ALL_ARMS  # open domain-A arms; None once terminated
    # (arm_a, y11, y12) of the subjects so far, what the interims read, and the
    # sum of their blocks' cell tables, all the final analysis reads; the first
    # trigger always draws the block that starts both.
    cells = None
    enrolled = 0
    retention: Optional[RetentionDecision] = None
    feasibility: Optional[FeasibilityDecision] = None

    for kind, trigger in schedule:
        if arms is None:
            break  # domain terminated; the later trigger can never be reached
        if trigger > enrolled:
            block = generate_block(config, arms, trigger - enrolled, rng)
            if cells is None:
                arm_a, y11, y12, cells = block
            else:
                arm_a, y11, y12 = [np.concatenate(pair) for pair in zip((arm_a, y11, y12), block)]
                cells += block[3]
            enrolled = trigger
        if kind is AnalysisKind.ARM_DROPPING:
            retention = arm_dropping_analysis(
                arm_a, y11, y12, config.alpha_drop, config.benefit_directions, config.default_retained_arm
            )
            arms = _CONTROL | retention.retained
        else:
            feasibility = feasibility_analysis(arm_a, y11, config.alpha_feas, config.benefit_directions[0])
            if not feasibility.proceed:
                arms = None

    if config.n_total > enrolled:
        # No interim reads the last block, so it builds no biomarker columns.
        cells += generate_block(config, arms, config.n_total - enrolled, rng, biomarkers=False)[3]

    # Arm dropping ran unless domain A was terminated, so the open arms name the branch.
    if arms is None:
        branch, gatekeeper = FinalBranch.DOMAIN_A_TERMINATED, analyze_terminated
    elif len(arms) == 2:
        branch, gatekeeper = FinalBranch.ONE_ARM_RETAINED, gatekeep_one_retained
    else:
        branch, gatekeeper = FinalBranch.BOTH_ARMS_RETAINED, gatekeep_both_retained
    outcome = gatekeeper(build_final_model(cells, branch), config.alpha_final)
    tables = config.generation_tables  # a subject's outcome is clamped where its cell's probability is
    n_clamped = int(cells.sum(axis=2)[tables.clamped].sum()) if tables.any_clamped else 0

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
_BRANCH_NAMES = tuple(b.value for b in FinalBranch)
# Every name ``_outcome_counts`` may count under, in the fixed order of a
# cell's tally list.
_TALLY_NAMES = (
    "n_failed", "n_effective", "n_retention", "n_retain_correct", "n_retain_both", "n_used_default", "n_proceed",
    *_BRANCH_NAMES, *_SUCCESS_SETS, "n_gating_violations", "n_power", "n_fwer",
)


def _outcome_code(result: TrialResult):
    """The hashable code a cell's histogram counts a replicate under; None
    when its final fit is flagged."""
    retention, feasibility, outcome = result.retention, result.feasibility, result.gatekeeping
    if outcome.fit_failed:
        return None
    retention = None if retention is None else (retention.retained, retention.used_default)
    proceed = None if feasibility is None else feasibility.proceed
    return retention, proceed, result.branch, outcome.rejected, outcome.successful_arms


def _outcome_counts(code, correct: frozenset, effective: frozenset) -> dict:
    """What one replicate of outcome ``code`` adds to its cell's tally: its
    nonzero counts, under a name, a branch's name or a ``p_success`` key."""
    if code is None:
        return {"n_failed": 1}
    retention, proceed, branch, rejected, successful = code
    retained, used_default = retention or (frozenset(), False)
    # The credited arms: the pooled declaration counts for the retained arm.
    # Power: every domain holding an effective arm has a credited effective
    # arm. FWER: some credited arm is not effective.
    credited = (successful - {"A_pooled"}) | retained if "A_pooled" in successful else successful
    counts = {
        "n_effective": 1,
        "n_retention": retention is not None,
        "n_retain_correct": correct <= retained,
        "n_retain_both": len(retained) == 2,
        "n_used_default": used_default,
        "n_proceed": proceed,
        branch.value: 1,
        **{key: arms <= successful for key, arms in _SUCCESS_SETS.items()},
        "n_gating_violations": gating_violation(GatekeepingOutcome({}, rejected, successful), branch),
        "n_power": bool(effective) and all(credited & effective & d for d in _DOMAINS if effective & d),
        "n_fwer": not credited <= effective,
    }
    return {key: int(count) for key, count in counts.items() if count}


# Each trace field, in order, with its value for (config, replicate index,
# TrialResult); an interim's fields are empty when it never ran.
_TRACE = {
    "scenario_id": lambda c, i, r: c.scenario_id,
    "n_drop": lambda c, i, r: r.n_drop,
    "n_feas": lambda c, i, r: r.n_feas,
    "replicate": lambda c, i, r: i,
    "order_first": lambda c, i, r: r.schedule[0][0].value,
    "retained": lambda c, i, r: "|".join(sorted(r.retention.retained)) if r.retention else "",
    "used_default": lambda c, i, r: int(r.retention.used_default) if r.retention else "",
    "p_drop_y11": lambda c, i, r: f"{r.retention.test_y11.p_value:.6g}" if r.retention else "",
    "p_drop_y12": lambda c, i, r: f"{r.retention.test_y12.p_value:.6g}" if r.retention else "",
    "p_feasibility": lambda c, i, r: f"{r.feasibility.test.p_value:.6g}" if r.feasibility else "",
    "proceed": lambda c, i, r: int(r.feasibility.proceed) if r.feasibility else "",
    "branch": lambda c, i, r: r.branch.value,
    "hypothesis_p_values": lambda c, i, r: ";".join(
        f"{k}={v:.6g}" for k, v in sorted(r.gatekeeping.node_p_values.items())
    ),
    "rejected": lambda c, i, r: "|".join(sorted(r.gatekeeping.rejected)),
    "successful_arms": lambda c, i, r: "|".join(sorted(r.successful_arms)),
    "n_clamped": lambda c, i, r: r.n_clamped,
    "fit_failed": lambda c, i, r: int(r.failed),
}
TRACE_FIELDS = tuple(_TRACE)


def _trace_row(config: ScenarioConfig, replicate: int, result: TrialResult) -> dict:
    return {field: value(config, replicate, result) for field, value in _TRACE.items()}


def _run_chunk(args) -> tuple[Counter, Counter, list]:
    """Run the grid's replicates ``start`` onward, one per row of ``words``;
    returns the histogram {(cell index, outcome code): count}, the n_clamped
    sum of each cell and the trace rows, in replicate order."""
    config, cells, start, words, collect_traces = args
    codes, clamped, traces = [], Counter(), []
    rng = np.random.Generator(np.random.PCG64(0))  # reset to each replicate's state
    for index, replicate_words in enumerate(words.tolist(), start):
        j, rep = divmod(index, config.replicates)
        rng.bit_generator.state = _pcg64_state(*replicate_words)
        result = run_replicate(config, *cells[j], rng)
        codes.append((j, _outcome_code(result)))
        clamped[j] += result.n_clamped
        if collect_traces:
            traces.append(_trace_row(config, rep, result))
    return Counter(codes), clamped, traces


def _characteristics(config: ScenarioConfig, cells: list, histogram: Counter, clamped: Counter) -> list:
    """Each cell's ``OperatingCharacteristics`` from the grid's histogram and
    n_clamped sums. A distinct code's counts are evaluated once a grid, as
    (index in ``_TALLY_NAMES``, count) pairs, and a cell's tally list adds
    them times the code's count in the cell."""
    correct, effective = designed_correct_arms(config), truly_effective_arms(config)
    counts = {
        code: [(_TALLY_NAMES.index(name), count) for name, count in _outcome_counts(code, correct, effective).items()]
        for code in dict.fromkeys(c for _, c in histogram)
    }
    tallies = [[0] * len(_TALLY_NAMES) for _ in cells]
    for (j, code), n in histogram.items():
        tally = tallies[j]
        for index, count in counts[code]:
            tally[index] += n * count

    results = []
    for j, ((n_drop, n_feas), tally) in enumerate(zip(cells, tallies)):
        tally = dict(zip(_TALLY_NAMES, tally))
        n_eff, n_ret = tally["n_effective"], tally["n_retention"]
        # A rate's count is 0 where its total is, so dividing by 1 there gives 0.0.
        per_eff, per_ret = n_eff or 1, n_ret or 1
        results.append(OperatingCharacteristics(
            scenario_id=config.scenario_id,
            n_drop=int(n_drop),
            n_feas=int(n_feas),
            # build_schedule's order: arm dropping first on a tie
            order_first=(AnalysisKind.ARM_DROPPING if n_drop <= n_feas else AnalysisKind.FEASIBILITY).value,
            p_retain_correct=tally["n_retain_correct"] / per_ret,
            p_retain_both=tally["n_retain_both"] / per_ret,
            p_proceed=tally["n_proceed"] / per_eff,
            p_success={key: tally[key] / per_eff for key in _SUCCESS_SETS},
            power=tally["n_power"] / per_eff,
            fwer=tally["n_fwer"] / per_eff,
            n_replicates_effective=n_eff,
            n_failed=tally["n_failed"],
            n_retention_decisions=n_ret,
            n_used_default=tally["n_used_default"],
            branch_counts={name: tally[name] for name in _BRANCH_NAMES},
            n_gating_violations=tally["n_gating_violations"],
            n_clamped=clamped[j],
        ))
    return results


_CHUNK_SIZE = 250  # most replicates in a task
_MESSAGES_PER_WORKER = 4  # fewest tasks a worker gets, when there are replicates enough


def _task_size(n: int, workers: int) -> int:
    """Replicates per task of an ``n``-replicate grid on ``workers``
    workers: at most ``_CHUNK_SIZE``, but few enough that every worker gets
    ``_MESSAGES_PER_WORKER`` tasks."""
    return max(1, min(_CHUNK_SIZE, n // (_MESSAGES_PER_WORKER * workers)))


def open_pool(configs, threads: int):
    """One process pool for the grid runs of ``configs``, to pass to each
    ``run_grid_detail`` call as ``pool``; use it as a context manager.

    The pool has ``threads`` workers, but no more than the largest grid has
    replicates: the fork start method launches every worker at once, so a
    larger pool forks processes that get no work. At one worker it opens
    nothing and yields None. Only a pool that forks imports the pool
    machinery (``concurrent.futures.process`` and ``multiprocessing``), so a
    one-worker process never loads it.
    """
    largest = max(len(c.n_drop_grid) * len(c.n_feas_grid) * c.replicates for c in configs)
    workers = min(threads, largest)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=workers)
    return nullcontext()


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
    The tasks' histograms, n_clamped sums and trace rows are merged in task
    order, so the result is the same on any number of workers.
    """
    if not isinstance(threads, (int, np.integer)) or isinstance(threads, bool):
        raise ValueError(f"threads must be an integer, got {threads!r}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    validate_scenario(config)
    cells = [(d, f) for d in sorted(config.n_drop_grid) for f in sorted(config.n_feas_grid)]
    # Each replicate's four PCG64 seed words, 32 bytes, from one array pass.
    seeds = _derive_seeds(config.base_seed, config.scenario_id, cells, np.arange(config.replicates, dtype=np.uint64))
    words = _pcg64_words(seeds)
    workers = min(threads, len(words))
    size = _task_size(len(words), workers)
    tasks = [(config, cells, i, words[i : i + size], collect_traces) for i in range(0, len(words), size)]
    if workers > 1:
        with (nullcontext(pool) if pool is not None else open_pool([config], threads)) as executor:
            outputs = list(executor.map(_run_chunk, tasks))
    else:
        outputs = [_run_chunk(t) for t in tasks]

    histogram, clamped, traces = Counter(), Counter(), []
    for task_histogram, task_clamped, rows in outputs:  # in task order
        histogram.update(task_histogram)
        clamped.update(task_clamped)
        traces.extend(rows)
    return _characteristics(config, cells, histogram, clamped), traces


def run_grid(config: ScenarioConfig, threads: int = 1) -> list:
    """Operating characteristics for every cell of the timing grid."""
    return run_grid_detail(config, threads=threads)[0]
