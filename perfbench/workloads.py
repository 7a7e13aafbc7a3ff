"""The benchmark's workloads: which scenarios each runs, how, and why.

Plain data, importable without the engine, so that run.py can start the
set-up probes before anything of the engine is imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TERMINATED = "domain_a_terminated"
ONE_ARM = "one_arm_retained"
BOTH_ARMS = "both_arms_retained"
BRANCHES = (TERMINATED, ONE_ARM, BOTH_ARMS)


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path
    replicates: int  # per cell and round; a round takes a quarter to half a second
    threads: int
    via_cli: bool  # rounds call ``fast-trials simulate`` instead of run_grid_detail
    branches: tuple  # final branches every round is expected to reach
    purpose: Optional[tuple] = None  # (branch, least share) the workload exists for


WORKLOADS = {
    w.name: w
    for w in (
        # 94% of replicates end with domain A terminated: generation and the
        # interim Welch tests dominate, and no main-effects IRLS fit runs.
        Workload("null_grid", ROOT / "scenarios" / "null.json", 4, 1, False,
                 (TERMINATED, ONE_ARM), (TERMINATED, 0.85)),
        # y11 nominates A1 and y12 nominates A2, so both arms reach the final
        # analysis and every replicate runs 8 fits: final_analysis dominates.
        Workload("both_arms_grid", HERE / "scenarios" / "both_arms.json", 2, 1, False,
                 (BOTH_ARMS,), (BOTH_ARMS, 0.95)),
        # The real study's one-arm/terminated mix through the CLI: process
        # pool, per-replicate trace rows over IPC, and the reporting writers.
        Workload("timing_study_cli", ROOT / "scenarios" / "timing_study.json", 4, 2, True,
                 (TERMINATED, ONE_ARM)),
    )
}


def round_seed(seed: int, index: int) -> int:
    """Base seed of round ``index`` of a run with workload seed ``seed``."""
    return (seed * 1000 + index) % (1 << 64)
