"""Virtual-subject generation: factorial randomization across the active
arms, normal biomarker draws, and the binary phase-3 outcome.

All draws go through an explicit ``numpy.random.Generator``.
``generate_block`` draws a whole enrollment window in one shot and consumes
the stream column by column (domain A assignments, then domain B, then y11,
y12, y21), a documented and reproducible draw order.

What depends only on the scenario is looked up per subject in the
config's ``generation_tables``: the biomarker mean shifts by domain-A
code + 1 (row 0 for ``ABSENT``), and, read flat by one intp cell code
(arm_a + 1) * 2 + arm_b, the clamped event probability of each cell and
the mask of the clamped cells. Each cell is the sum rate + rd_a + rd_b in
the order the per-subject arithmetic evaluated it, so every draw compared
against it is bit-identical. The same code, times 2 plus the outcome,
counts the block into the 4 x 2 x 2 cell table the final analysis reads,
in one bincount, and the block is returned with it.
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
# in sorted arm order (every arm, or control and the one retained arm), as
# stored (int8) and as table rows (code + 1, intp).
_ACTIVE_CODES = {
    frozenset(arms): np.array([ARM_A_CODE[a] for a in arms], dtype=np.int8)
    for arms in (DOMAIN_A_ARMS, ("A0", "A1"), ("A0", "A2"))
}
_ACTIVE_ROWS = {arms: codes.astype(np.intp) + 1 for arms, codes in _ACTIVE_CODES.items()}
for _codes in (*_ACTIVE_CODES.values(), *_ACTIVE_ROWS.values()):
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
) -> tuple[SubjectData, int, np.ndarray]:
    """Draw ``n`` subjects under a fixed set of active arms.

    Allocation is equal within each active domain and independent across
    domains; biomarkers are normal around the arm's mean shifts (zero for
    control and absent assignments); the event probability is the control
    rate plus the additive risk differences, clamped into
    [PROB_CLAMP_LO, PROB_CLAMP_HI]. Returns the block, the number of
    clamped event probabilities, and the block's outcome counts per cell:
    ``cells[arm_a + 1, arm_b]`` holds the cell's (non-events, events).
    """
    tables = config.generation_tables
    if active.domain_a is not None:
        codes = _ACTIVE_CODES[active.domain_a]
        draws = stream.integers(len(codes), size=n)
        arm_a = codes[draws]
        row = _ACTIVE_ROWS[active.domain_a][draws]
    else:
        arm_a = np.full(n, ABSENT, dtype=np.int8)
        row = np.zeros(n, dtype=np.intp)
    b = stream.integers(2, size=n)
    cell = row * 2 + b

    s11, s12 = config.biomarker_sds
    y11 = tables.shift11[row] + s11 * stream.standard_normal(n)
    y12 = tables.shift12[row] + s12 * stream.standard_normal(n)

    n_clamped = int(np.count_nonzero(tables.clamped.ravel()[cell])) if tables.any_clamped else 0
    event = stream.random(n) < tables.p_event.ravel()[cell]
    cells = np.bincount(cell * 2 + event, minlength=16).reshape(4, 2, 2)

    block = SubjectData._unchecked(arm_a, b.astype(np.int8), y11, y12, event.astype(np.int8))
    return block, n_clamped, cells
