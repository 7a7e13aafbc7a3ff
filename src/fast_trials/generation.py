"""Virtual-subject generation: factorial randomization across the active
arms, normal biomarker draws, and the binary phase-3 outcome.

All draws go through an explicit ``numpy.random.Generator``.
``generate_block`` draws a whole enrollment window in one shot and consumes
the stream column by column (domain A assignments, then domain B, then y11,
y12, y21), a documented and reproducible draw order.

What depends only on the scenario is looked up per subject by domain-A
code + 1 (row 0 for ``ABSENT``) in the config's ``generation_tables``: the
biomarker mean shifts, and the clamped event probability of each (domain
A, domain B) cell with a mask of the cells that were clamped. Each cell is
the sum rate + rd_a + rd_b in the order the per-subject arithmetic
evaluated it, so every draw compared against it is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .design import (
    ABSENT,
    ARM_A_CODE,
    DOMAIN_A_ARMS,
    PROB_CLAMP_HI,
    PROB_CLAMP_LO,
    ScenarioConfig,
    SubjectData,
)

__all__ = [
    "PROB_CLAMP_LO",
    "PROB_CLAMP_HI",
    "ActiveArms",
    "generate_block",
]

# Each domain-A arm set that may be open to randomization -> its arm codes
# in sorted arm order: every arm, or control and the one retained arm.
_ACTIVE_CODES = {
    frozenset(arms): np.array([ARM_A_CODE[a] for a in arms], dtype=np.int8)
    for arms in (DOMAIN_A_ARMS, ("A0", "A1"), ("A0", "A2"))
}
for _codes in _ACTIVE_CODES.values():
    _codes.setflags(write=False)


@dataclass(frozen=True)
class ActiveArms:
    """Domain-A arms currently open to randomization (domain B always
    randomizes both of its arms); ``domain_a=None`` after the fluid-domain
    termination."""

    domain_a: Optional[frozenset] = frozenset(DOMAIN_A_ARMS)

    def __post_init__(self):
        if self.domain_a is not None:
            arms = frozenset(self.domain_a)
            if arms not in _ACTIVE_CODES:
                raise ValueError(f"active domain A must be A0 with A1, A2 or both, got {sorted(arms)}")
            object.__setattr__(self, "domain_a", arms)


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
    tables = config.generation_tables
    if active.domain_a is not None:
        codes = _ACTIVE_CODES[active.domain_a]
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
