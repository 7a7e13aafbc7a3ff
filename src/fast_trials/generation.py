"""Virtual-subject generation: factorial randomization across the active
arms, normal biomarker draws, and the binary phase-3 outcome.

All draws go through an explicit ``numpy.random.Generator``.
``generate_block`` draws a whole enrollment window in one shot and consumes
the stream column by column (domain A assignments, then domain B, then y11,
y12, y21), a documented and reproducible draw order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import (
    ABSENT,
    ARM_A_CODE,
    DOMAIN_A_ARMS,
    DOMAIN_B_ARMS,
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


@dataclass(frozen=True)
class ActiveArms:
    """Arms currently open to randomization; ``domain_a=None`` after the
    fluid-domain termination."""

    domain_a: Optional[frozenset] = frozenset(DOMAIN_A_ARMS)
    domain_b: frozenset = frozenset(DOMAIN_B_ARMS)

    def __post_init__(self):
        if self.domain_a is not None:
            arms = frozenset(self.domain_a)
            if "A0" not in arms or not arms & {"A1", "A2"}:
                raise ValueError(
                    f"active domain A must contain A0 and at least one treatment arm, got {set(arms)}"
                )
            object.__setattr__(self, "domain_a", arms)
        if frozenset(self.domain_b) != frozenset(DOMAIN_B_ARMS):
            raise ValueError(f"domain B always randomizes {DOMAIN_B_ARMS}, got {set(self.domain_b)}")

    def domain_a_sorted(self) -> tuple:
        return () if self.domain_a is None else tuple(sorted(self.domain_a))


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
    arms_a = active.domain_a_sorted()
    if arms_a:
        idx = stream.integers(len(arms_a), size=n)
        arm_a = np.array([ARM_A_CODE[a] for a in arms_a], dtype=np.int8)[idx]
    else:
        arm_a = np.full(n, ABSENT, dtype=np.int8)
    arm_b = stream.integers(2, size=n).astype(np.int8)

    shift11 = np.zeros(3)
    shift12 = np.zeros(3)
    for arm in ("A1", "A2"):
        shift11[ARM_A_CODE[arm]] = config.biomarker_effect(arm, 0)
        shift12[ARM_A_CODE[arm]] = config.biomarker_effect(arm, 1)
    mean11 = np.where(arm_a == ABSENT, 0.0, shift11[np.maximum(arm_a, 0)])
    mean12 = np.where(arm_a == ABSENT, 0.0, shift12[np.maximum(arm_a, 0)])
    s11, s12 = config.biomarker_sds
    y11 = mean11 + s11 * stream.standard_normal(n)
    y12 = mean12 + s12 * stream.standard_normal(n)

    rd_a = np.zeros(3)
    for arm in ("A1", "A2"):
        rd_a[ARM_A_CODE[arm]] = config.risk_difference(arm)
    rd_b = np.array([0.0, config.risk_difference("B1")])
    p = (
        config.control_event_rate
        + np.where(arm_a == ABSENT, 0.0, rd_a[np.maximum(arm_a, 0)])
        + rd_b[arm_b]
    )
    n_clamped = int(np.count_nonzero((p < PROB_CLAMP_LO) | (p > PROB_CLAMP_HI)))
    p = np.clip(p, PROB_CLAMP_LO, PROB_CLAMP_HI)
    y21 = (stream.random(n) < p).astype(np.int8)

    return SubjectData(arm_a, arm_b, y11, y12, y21), n_clamped
