"""Virtual-subject generation: factorial randomization across the active
arms, normal biomarker draws, and the binary phase-3 outcome.

All draws go through an explicit ``numpy.random.Generator``.
``generate_block`` draws a whole enrollment window in one shot and consumes
the stream column by column (domain A assignments, then domain B, then y11,
y12, y21), a documented and reproducible draw order.

What depends only on the scenario is computed once per scenario and looked
up per subject by domain-A code + 1 (row 0 for ``ABSENT``): the biomarker
mean shifts, and a 4 x 2 table of clamped event probabilities per
(domain A, domain B) cell with a mask of the cells that were clamped. Each
cell is the sum rate + rd_a + rd_b in that order, the float64 expression
the per-subject arithmetic evaluated, so every value, and every draw
compared against it, is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .design import (
    ABSENT,
    ARM_A_CODE,
    DOMAIN_A_ARMS,
    TREATMENT_ARMS_A,
    ScenarioConfig,
    SubjectData,
)

__all__ = [
    "PROB_CLAMP_LO",
    "PROB_CLAMP_HI",
    "ActiveArms",
    "generate_block",
]

# Bernoulli probabilities are kept away from 0/1 so extreme configurations
# stay well-defined; clamps are counted and surfaced in results.
PROB_CLAMP_LO = 0.001
PROB_CLAMP_HI = 0.999
_TABLE_CACHE_SIZE = 64  # scenarios remembered; a run holds a handful


@dataclass(frozen=True)
class ActiveArms:
    """Domain-A arms currently open to randomization (domain B always
    randomizes both of its arms); ``domain_a=None`` after the fluid-domain
    termination."""

    domain_a: Optional[frozenset] = frozenset(DOMAIN_A_ARMS)

    def __post_init__(self):
        if self.domain_a is not None:
            arms = frozenset(self.domain_a)
            if "A0" not in arms or not arms & {"A1", "A2"}:
                raise ValueError(
                    f"active domain A must contain A0 and at least one treatment arm, got {set(arms)}"
                )
            object.__setattr__(self, "domain_a", arms)


@lru_cache(maxsize=None)
def _arm_codes(domain_a: frozenset) -> np.ndarray:
    """Domain-A codes of an active arm set, in sorted arm order."""
    codes = np.array([ARM_A_CODE[a] for a in sorted(domain_a)], dtype=np.int8)
    codes.setflags(write=False)
    return codes


class _Tables(NamedTuple):
    """Per-arm constants of one scenario. Rows are indexed by domain-A code
    + 1 (row 0: ``ABSENT``), columns of the cell tables by domain-B code."""

    shift11: np.ndarray  # biomarker mean shifts, shape (4,)
    shift12: np.ndarray
    p_event: np.ndarray  # clamped event probability per (A, B) cell, (4, 2)
    clamped: np.ndarray  # cells whose probability was clamped, (4, 2)
    any_clamped: bool


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _tables(rate: float, shifts: tuple, rd_a: tuple, rd_b1: float) -> _Tables:
    shift11 = np.array([0.0, 0.0] + [s[0] for s in shifts])
    shift12 = np.array([0.0, 0.0] + [s[1] for s in shifts])
    # rate + rd_a + rd_b in this order: float64 addition is not associative,
    # and the pinned outputs depend on every probability's last bit.
    p = np.array([[rate + ra + rb for rb in (0.0, rd_b1)] for ra in (0.0, 0.0) + rd_a])
    clamped = (p < PROB_CLAMP_LO) | (p > PROB_CLAMP_HI)
    p = np.clip(p, PROB_CLAMP_LO, PROB_CLAMP_HI)
    for table in (shift11, shift12, p, clamped):
        table.setflags(write=False)
    return _Tables(shift11, shift12, p, clamped, bool(clamped.any()))


def _scenario_tables(config: ScenarioConfig) -> _Tables:
    return _tables(
        float(config.control_event_rate),
        tuple((config.biomarker_effect(a, 0), config.biomarker_effect(a, 1)) for a in TREATMENT_ARMS_A),
        tuple(config.risk_difference(a) for a in TREATMENT_ARMS_A),
        config.risk_difference("B1"),
    )


def generate_block(
    config: ScenarioConfig, active: ActiveArms, n: int, stream: np.random.Generator
) -> tuple[SubjectData, int]:
    """Draw ``n`` subjects under a fixed set of active arms.

    Allocation is equal within each active domain and independent across
    domains; biomarkers are normal around the arm's mean shifts (zero for
    control and absent assignments); the event probability is the control
    rate plus the additive risk differences, clamped into
    [PROB_CLAMP_LO, PROB_CLAMP_HI]. Returns the block and the number of
    clamped event probabilities.
    """
    tables = _scenario_tables(config)
    if active.domain_a is not None:
        codes = _arm_codes(active.domain_a)
        arm_a = codes[stream.integers(len(codes), size=n)]
    else:
        arm_a = np.full(n, ABSENT, dtype=np.int8)
    arm_b = stream.integers(2, size=n).astype(np.int8)

    row = arm_a + 1
    s11, s12 = config.biomarker_sds
    y11 = tables.shift11[row] + s11 * stream.standard_normal(n)
    y12 = tables.shift12[row] + s12 * stream.standard_normal(n)

    n_clamped = int(np.count_nonzero(tables.clamped[row, arm_b])) if tables.any_clamped else 0
    y21 = (stream.random(n) < tables.p_event[row, arm_b]).astype(np.int8)

    return SubjectData._unchecked(arm_a, arm_b, y11, y12, y21), n_clamped
