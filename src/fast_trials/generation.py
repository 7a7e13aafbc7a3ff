"""Virtual-subject generation: factorial randomization across the active
arms, normal biomarker draws, and the binary phase-3 outcome.

All draws go through an explicit ``numpy.random.Generator``.
``generate_block`` draws a whole enrollment window in one shot, under a
frozenset of open domain-A arm names (``None`` once domain A is
terminated). The stream yields, in this documented and reproducible order:
raw 64-bit words for both integer columns, then 2n standard normals (y11's
n, then y12's), then n uniforms for y21.

The integer columns are decoded from the raw words exactly as
``Generator.integers`` would draw them: numpy's bounded-integer rule,
Lemire's multiply-shift (Lemire 2019, ACM TOMACS 29:1), applied to the
32-bit halves of the words, low half first, the order PCG64 hands them out.
With domain A open, the block reads n words: the first n halves give the
arm index ``(u * len(codes)) >> 32`` and the next n give domain B,
``u >> 31``. A terminated block reads ceil(n / 2) words for domain B alone.
Lemire rejects no half for two choices, and for three only a half of 0;
when an arm half is 0 the block rewinds its words and calls ``integers``.
The decode assumes the stream holds no buffered 32-bit half, as holds for a
fresh generator and after any domain-A-open block; a terminated block is
always a replicate's last. The ziggurat keeps no state between calls, so one
call of 2n normals gives the values of two calls of n.

What depends only on the scenario is looked up per subject in the
config's ``generation_tables``: the biomarker mean shifts by domain-A
code + 1 (row 0 for ``ABSENT``), and, read flat by one intp cell code
(arm_a + 1) * 2 + arm_b, the clamped event probability of each cell and
the mask of the clamped cells. Each cell is the sum rate + rd_a + rd_b in
the order the per-subject arithmetic evaluated it, so every draw compared
against it is bit-identical. The same code, times 2 plus the outcome,
counts the block into the 4 x 2 x 2 cell table the final analysis reads,
in one bincount. A block is returned as the columns the interims read,
its domain-A arm codes and two biomarkers, with that table; a replicate
reads its clamped outcomes off its summed table.
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


def _halves(stream: np.random.Generator, words: int) -> np.ndarray:
    """The 32-bit halves of the stream's next ``words`` raw words as int64,
    in the order ``Generator.integers`` reads them: each word's low half,
    then its high half, on either byte order."""
    raw = stream.bit_generator.random_raw(words)
    return raw.astype("<u8", copy=False).view("<u4").astype(np.int64)


def _assignments(stream: np.random.Generator, codes: Optional[np.ndarray], n: int) -> tuple:
    """The domain-A arm codes and domain-B arms of ``n`` subjects: the
    values of ``codes[stream.integers(len(codes), size=n)]`` and then
    ``stream.integers(2, size=n)``, with every arm ``ABSENT`` when
    ``codes`` is None."""
    if codes is None:
        return np.full(n, ABSENT, dtype=np.intp), _halves(stream, (n + 1) // 2)[:n] >> 31
    halves = _halves(stream, n)
    if len(codes) == 3 and np.count_nonzero(halves[:n]) < n:
        # Lemire rejects a zero half for three arms: draw as numpy does.
        stream.bit_generator.advance(-n)
        return codes[stream.integers(3, size=n)], stream.integers(2, size=n)
    return codes[(halves[:n] * len(codes)) >> 32], halves[n:] >> 31


def generate_block(
    config: ScenarioConfig,
    arms: Optional[frozenset],
    n: int,
    stream: np.random.Generator,
    biomarkers: bool = True,
) -> tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray], np.ndarray]:
    """Draw ``n`` subjects under the open domain-A ``arms``: all three, or
    A0 with A1 or A2; ``None`` once domain A is terminated.

    Allocation is equal within each active domain and independent across
    domains; biomarkers are normal around the arm's mean shifts (zero for
    control and absent assignments); the event probability is the control
    rate plus the additive risk differences, clamped into
    [PROB_CLAMP_LO, PROB_CLAMP_HI]. Returns ``(arm_a, y11, y12, cells)``:
    the subjects' intp domain-A arm codes and biomarkers, and the block's
    outcome counts per cell: ``cells[arm_a + 1, arm_b]`` holds the cell's
    (non-events, events). With ``biomarkers`` false, for a block no interim reads, the
    normals are drawn but no biomarker column is built, and y11 and y12
    are None.
    """
    tables = config.generation_tables
    codes = None
    if arms is not None:
        codes = _ACTIVE_CODES.get(frozenset(arms))
        if codes is None:
            raise ValueError(f"active domain A must be A0 with A1, A2 or both, got {sorted(arms)}")
    arm_a, b = _assignments(stream, codes, n)
    row = arm_a + 1
    cell = row * 2 + b

    z = stream.standard_normal(2 * n)
    y11 = y12 = None
    if biomarkers:
        s11, s12 = config.biomarker_sds
        y11 = tables.shift11[row] + s11 * z[:n]
        y12 = tables.shift12[row] + s12 * z[n:]

    event = stream.random(n) < tables.p_event.ravel()[cell]
    cells = np.bincount(cell * 2 + event, minlength=16).reshape(4, 2, 2)
    return arm_a, y11, y12, cells
