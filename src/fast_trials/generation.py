"""Virtual-subject generation: factorial randomization across the active
arms, normal biomarker draws, and the binary phase-3 outcome.

All draws go through an explicit ``numpy.random.Generator``.
``generate_block`` draws a whole enrollment window in one shot and consumes
the stream column by column (domain A assignments, then domain B, then y11,
y12, y21), a documented and reproducible draw order, under a frozenset of
open domain-A arm names (``None`` once domain A is terminated).

What depends only on the scenario is looked up per subject in the
config's ``generation_tables``: the biomarker mean shifts by domain-A
code + 1 (row 0 for ``ABSENT``), and, read flat by one intp cell code
(arm_a + 1) * 2 + arm_b, the clamped event probability of each cell and
the mask of the clamped cells. Each cell is the sum rate + rd_a + rd_b in
the order the per-subject arithmetic evaluated it, so every draw compared
against it is bit-identical. The same code, times 2 plus the outcome,
counts the block into the 4 x 2 x 2 cell table the final analysis reads,
in one bincount. A block is returned as the columns the interims read,
its domain-A arm codes and two biomarkers, with that table.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .design import ABSENT, ARM_A_CODE, DOMAIN_A_ARMS, ScenarioConfig

__all__ = ["generate_block"]

# Each domain-A arm set that may be open to randomization -> its intp arm
# codes in sorted arm order (every arm, or control and the one retained arm).
_ACTIVE_CODES = {
    frozenset(arms): np.array([ARM_A_CODE[a] for a in arms], dtype=np.intp)
    for arms in (DOMAIN_A_ARMS, ("A0", "A1"), ("A0", "A2"))
}
for _codes in _ACTIVE_CODES.values():
    _codes.setflags(write=False)


def generate_block(
    config: ScenarioConfig, arms: Optional[frozenset], n: int, stream: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """Draw ``n`` subjects under the open domain-A ``arms``: all three, or
    A0 with A1 or A2; ``None`` once domain A is terminated.

    Allocation is equal within each active domain and independent across
    domains; biomarkers are normal around the arm's mean shifts (zero for
    control and absent assignments); the event probability is the control
    rate plus the additive risk differences, clamped into
    [PROB_CLAMP_LO, PROB_CLAMP_HI]. Returns ``(arm_a, y11, y12, n_clamped,
    cells)``: the subjects' intp domain-A arm codes and biomarkers, the
    number of clamped event probabilities, and the block's outcome counts
    per cell: ``cells[arm_a + 1, arm_b]`` holds the cell's (non-events,
    events).
    """
    tables = config.generation_tables
    if arms is not None:
        codes = _ACTIVE_CODES.get(frozenset(arms))
        if codes is None:
            raise ValueError(f"active domain A must be A0 with A1, A2 or both, got {sorted(arms)}")
        arm_a = codes[stream.integers(len(codes), size=n)]
    else:
        arm_a = np.full(n, ABSENT, dtype=np.intp)
    row = arm_a + 1
    b = stream.integers(2, size=n)
    cell = row * 2 + b

    s11, s12 = config.biomarker_sds
    y11 = tables.shift11[row] + s11 * stream.standard_normal(n)
    y12 = tables.shift12[row] + s12 * stream.standard_normal(n)

    n_clamped = int(np.count_nonzero(tables.clamped.ravel()[cell])) if tables.any_clamped else 0
    event = stream.random(n) < tables.p_event.ravel()[cell]
    cells = np.bincount(cell * 2 + event, minlength=16).reshape(4, 2, 2)
    return arm_a, y11, y12, n_clamped, cells
