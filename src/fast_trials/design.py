"""Trial structure and scenario configuration.

The simulated trial has two treatment domains randomized factorially:
domain A compares two active arms (A1, A2) against control A0 and is
subject to the phase-2 interim machinery; domain B compares one active arm
(B1) against control B0 and is analyzed only at the end. Phase-2 decisions
use two continuous biomarkers (y11, y12); the phase-3 outcome (y21) is
binary. A ``ScenarioConfig`` pins every knob a simulation needs, and
``validate_scenario`` checks the whole document at once; ``SubjectData``
holds simulated subjects column by column.
A config owns what derives from it alone: the unclamped event-probability
table that validation range-checks, and the generation tables, kept on the
instance once built.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "DOMAIN_A_ARMS",
    "DOMAIN_B_ARMS",
    "TREATMENT_ARMS_A",
    "ARM_A_CODE",
    "ARM_B_CODE",
    "ABSENT",
    "PROB_CLAMP_LO",
    "PROB_CLAMP_HI",
    "BenefitDirection",
    "GenerationTables",
    "ScenarioConfig",
    "SubjectData",
    "ScenarioValidationError",
    "scenario_issues",
    "validate_scenario",
    "scenario_to_dict",
    "scenario_from_dict",
    "load_scenarios",
]

DOMAIN_A_ARMS = ("A0", "A1", "A2")
DOMAIN_B_ARMS = ("B0", "B1")
TREATMENT_ARMS_A = ("A1", "A2")

ARM_A_CODE = {"A0": 0, "A1": 1, "A2": 2}
ARM_B_CODE = {"B0": 0, "B1": 1}
ABSENT = -1  # arm_a code for subjects enrolled after domain A termination

# Bernoulli probabilities are kept away from 0/1 so extreme configurations
# stay well-defined; clamps are counted and surfaced in results.
PROB_CLAMP_LO = 0.001
PROB_CLAMP_HI = 0.999


class BenefitDirection(str, Enum):
    INCREASE = "increase"
    DECREASE = "decrease"

    def favours(self, a: float, b: float) -> bool:
        """Whether ``a`` lies further than ``b`` in this direction of
        benefit: larger for an increase, smaller for a decrease."""
        return a > b if self is BenefitDirection.INCREASE else a < b


class GenerationTables(NamedTuple):
    """Per-arm constants of one scenario, read-only: rows by domain-A code
    + 1 (row 0: ``ABSENT``), columns of the cell tables by domain-B code."""

    shift11: np.ndarray  # biomarker mean shifts, shape (4,)
    shift12: np.ndarray
    p_event: np.ndarray  # clamped event probability per (A, B) cell, (4, 2)
    clamped: np.ndarray  # cells whose probability was clamped, (4, 2)
    any_clamped: bool


_DEFAULT_GRID = tuple(range(90, 301, 30))


@dataclass(frozen=True)
class ScenarioConfig:
    """Full specification of one simulation scenario.

    Biomarker effects are mean shifts relative to control (control fixed at
    zero); phase-3 effects are additive risk differences on the event
    probability. ``benefit_directions`` orients the phase-2 decision rules
    for (y11, y12): nominations go to the arm further in the benefit
    direction, and feasibility rejects when the pooled mean beats control
    in that direction.
    """

    scenario_id: int = 0
    biomarker_effects: dict = dataclasses.field(
        default_factory=lambda: {"A1": (0.0, 0.0), "A2": (0.0, 0.0)}
    )
    biomarker_sds: tuple = (10.0, 10.0)
    benefit_directions: tuple = ("increase", "decrease")
    phase3_effects: dict = dataclasses.field(
        default_factory=lambda: {"A1": 0.0, "A2": 0.0, "B1": 0.0}
    )
    control_event_rate: float = 0.40
    n_total: int = 1000
    n_drop_grid: tuple = _DEFAULT_GRID
    n_feas_grid: tuple = _DEFAULT_GRID
    alpha_drop: float = 0.05
    alpha_feas: float = 0.05
    alpha_final: float = 0.05
    default_retained_arm: str = "A2"
    replicates: int = 1000
    base_seed: int = 20230901

    def biomarker_effect(self, arm_a: Optional[str], outcome: int) -> float:
        """Mean shift of biomarker ``outcome`` (0 for y11, 1 for y12) for a
        domain-A assignment; control and absent assignments shift nothing."""
        if arm_a is None or arm_a == "A0":
            return 0.0
        return float(self.biomarker_effects[arm_a][outcome])

    def risk_difference(self, arm: Optional[str]) -> float:
        """Additive phase-3 risk difference for an arm; controls and absent
        assignments contribute zero."""
        if arm is None or arm in ("A0", "B0"):
            return 0.0
        return float(self.phase3_effects[arm])

    def event_probabilities(self) -> np.ndarray:
        """Unclamped event probability per (domain-A code + 1, domain-B code)
        cell, (4, 2): rate + rd_a + rd_b in this order, as float64 addition
        is not associative and the pinned outputs depend on every last bit."""
        rate = float(self.control_event_rate)
        rd_a = (0.0, 0.0) + tuple(self.risk_difference(arm) for arm in TREATMENT_ARMS_A)
        rd_b = (0.0, self.risk_difference("B1"))
        return np.array([[rate + ra + rb for rb in rd_b] for ra in rd_a])

    @cached_property
    def generation_tables(self) -> GenerationTables:
        """The biomarker shifts and the clamped event probabilities that
        subject generation reads, built on first use and kept on this config."""
        shifts = [[0.0, 0.0] + [self.biomarker_effect(arm, y) for arm in TREATMENT_ARMS_A] for y in (0, 1)]
        shift11, shift12 = np.array(shifts)
        p = self.event_probabilities()
        clamped = (p < PROB_CLAMP_LO) | (p > PROB_CLAMP_HI)
        p = np.clip(p, PROB_CLAMP_LO, PROB_CLAMP_HI)
        for table in (shift11, shift12, p, clamped):
            table.setflags(write=False)
        return GenerationTables(shift11, shift12, p, clamped, bool(clamped.any()))


def _codes(values, allowed: tuple, name: str) -> np.ndarray:
    """An int8 code column, once every value is one of ``allowed``: the
    cast alone would wrap 258 to 2 and truncate 0.5 to 0."""
    values = np.asarray(values)
    if not np.isin(values, allowed).all():
        raise ValueError(f"{name} codes must lie in {allowed}")
    return np.asarray(values, dtype=np.int8)


class SubjectData:
    """Column-oriented subject store in enrollment order: domain-A arm code
    (``ABSENT`` once domain A has been terminated), domain-B arm code, the
    two biomarkers and the binary phase-3 outcome."""

    __slots__ = ("arm_a", "arm_b", "y11", "y12", "y21")

    def __init__(self, arm_a, arm_b, y11, y12, y21):
        self.arm_a = _codes(arm_a, (ABSENT, *ARM_A_CODE.values()), "arm_a")
        self.arm_b = _codes(arm_b, tuple(ARM_B_CODE.values()), "arm_b")
        self.y11 = np.asarray(y11, dtype=float)
        self.y12 = np.asarray(y12, dtype=float)
        self.y21 = _codes(y21, (0, 1), "y21")
        n = len(self.arm_a)
        if not (len(self.arm_b) == len(self.y11) == len(self.y12) == len(self.y21) == n):
            raise ValueError("subject columns must have equal length")

    @classmethod
    def _unchecked(cls, arm_a, arm_b, y11, y12, y21) -> "SubjectData":
        """The engine's own subjects, taken as they are: int8 codes in range
        and float biomarkers, of equal length by construction."""
        data = cls.__new__(cls)
        data.arm_a, data.arm_b, data.y11, data.y12, data.y21 = arm_a, arm_b, y11, y12, y21
        return data

    def __len__(self) -> int:
        return len(self.arm_a)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class ScenarioValidationError(ValueError):
    """Carries every violation found in a scenario, not just the first."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {i}" for i in self.issues))


def _is_number(v) -> bool:
    """A real number; bools are not numbers here."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_int(v) -> bool:
    """An integer; JSON true/false are not integers here."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    try:
        return _is_number(v) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _float(v):
    return float(v) if _is_number(v) else v


def _items(v) -> Optional[tuple]:
    """The elements of a list-like field, or None when ``v`` is not one."""
    try:
        return None if isinstance(v, (str, bytes, dict)) else tuple(v)
    except TypeError:
        return None


def _check_open_unit(issues, name, value):
    if not _is_number(value):
        issues.append(f"{name}: must be a number, got {value!r}")
    elif not 0.0 < value < 1.0:
        issues.append(f"{name}: must lie strictly in (0, 1), got {value}")


def _check_grid(issues, name, grid, n_total):
    triggers = _items(grid)
    if triggers is None:
        issues.append(f"{name}: must be a list of integer triggers, got {grid!r}")
        return
    if len(triggers) == 0:
        issues.append(f"{name}: grid must be nonempty")
        return
    for v in triggers:
        if not _is_int(v):
            issues.append(f"{name}: trigger {v!r} is not an integer")
            return
    if any(v < 1 for v in triggers):
        issues.append(f"{name}: triggers must be >= 1 (got {triggers})")
    if _is_int(n_total) and any(v > n_total for v in triggers):
        issues.append(f"{name}: triggers must not exceed n_total={n_total} (got {triggers})")
    if len(set(triggers)) != len(triggers):
        issues.append(f"{name}: triggers must be distinct (got {triggers})")


def scenario_issues(config: ScenarioConfig) -> list[str]:
    """Every invariant violation in ``config``, wrong types included, with
    field paths."""
    issues: list[str] = []

    effects = config.biomarker_effects
    if not (isinstance(effects, dict) and set(effects) == set(TREATMENT_ARMS_A)):
        issues.append(f"biomarker_effects: must map exactly A1 and A2 to value pairs, got {effects!r}")
    else:
        for arm, pair in effects.items():
            values = _items(pair)
            if values is None or len(values) != 2 or not all(_is_finite(v) for v in values):
                issues.append(f"biomarker_effects[{arm}]: needs two finite values, got {pair!r}")

    sds = _items(config.biomarker_sds)
    if sds is None or len(sds) != 2 or not all(_is_finite(s) and s >= 0 for s in sds):
        issues.append(f"biomarker_sds: needs two nonnegative finite values, got {config.biomarker_sds!r}")

    dirs = _items(config.benefit_directions)
    if dirs is None or len(dirs) != 2 or not all(d in ("increase", "decrease") for d in dirs):
        issues.append(
            "benefit_directions: needs two values from {'increase','decrease'}, "
            f"got {config.benefit_directions!r}"
        )

    rate = config.control_event_rate
    _check_open_unit(issues, "control_event_rate", rate)

    effects = config.phase3_effects
    arms = ("A1", "A2", "B1")
    if not (isinstance(effects, dict) and set(effects) == set(arms)):
        issues.append(f"phase3_effects: must map exactly A1, A2 and B1 to risk differences, got {effects!r}")
    elif not all(_is_finite(effects[arm]) for arm in arms):
        issues += [
            f"phase3_effects[{arm}]: must be a finite number, got {effects[arm]!r}"
            for arm in arms
            if not _is_finite(effects[arm])
        ]
    elif _is_number(rate) and 0.0 < rate < 1.0:
        for arm_a, row in zip((None, "A0", "A1", "A2"), config.event_probabilities()):
            for arm_b, p in zip(("B0", "B1"), row):
                if not 0.0 < p < 1.0:
                    issues.append(
                        f"phase3_effects: event probability for arms ({arm_a or 'none'}, {arm_b}) "
                        f"is {p:.6g}, outside (0, 1)"
                    )

    if not (_is_int(config.n_total) and config.n_total >= 1):
        issues.append(f"n_total: must be a positive integer, got {config.n_total!r}")

    _check_grid(issues, "n_drop_grid", config.n_drop_grid, config.n_total)
    _check_grid(issues, "n_feas_grid", config.n_feas_grid, config.n_total)

    for name in ("alpha_drop", "alpha_feas", "alpha_final"):
        _check_open_unit(issues, name, getattr(config, name))

    if config.default_retained_arm not in TREATMENT_ARMS_A:
        issues.append(
            f"default_retained_arm: must be one of {TREATMENT_ARMS_A}, "
            f"got {config.default_retained_arm!r}"
        )

    if not (_is_int(config.replicates) and config.replicates >= 1):
        issues.append(f"replicates: must be a positive integer, got {config.replicates!r}")

    if not (_is_int(config.scenario_id) and config.scenario_id >= 0):
        issues.append(f"scenario_id: must be a nonnegative integer, got {config.scenario_id!r}")

    if not (_is_int(config.base_seed) and 0 <= config.base_seed < 2**64):
        issues.append(f"base_seed: must be an integer in [0, 2^64), got {config.base_seed!r}")

    return issues


def validate_scenario(config: ScenarioConfig) -> ScenarioConfig:
    """Return the config unchanged if valid, else raise with every issue."""
    issues = scenario_issues(config)
    if issues:
        raise ScenarioValidationError(issues)
    return config


# ---------------------------------------------------------------------------
# serialization (strict JSON round-trip)
# ---------------------------------------------------------------------------

_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(ScenarioConfig))


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Plain-JSON form of a config (tuples become lists)."""
    return {
        "scenario_id": int(config.scenario_id),
        "biomarker_effects": {
            arm: [float(v) for v in pair] for arm, pair in sorted(config.biomarker_effects.items())
        },
        "biomarker_sds": [float(s) for s in config.biomarker_sds],
        "benefit_directions": list(config.benefit_directions),
        "phase3_effects": {arm: float(v) for arm, v in sorted(config.phase3_effects.items())},
        "control_event_rate": float(config.control_event_rate),
        "n_total": int(config.n_total),
        "n_drop_grid": [int(v) for v in config.n_drop_grid],
        "n_feas_grid": [int(v) for v in config.n_feas_grid],
        "alpha_drop": float(config.alpha_drop),
        "alpha_feas": float(config.alpha_feas),
        "alpha_final": float(config.alpha_final),
        "default_retained_arm": config.default_retained_arm,
        "replicates": int(config.replicates),
        "base_seed": int(config.base_seed),
    }


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Parse a scenario document; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise ScenarioValidationError([f"scenario document must be an object, got {type(doc).__name__}"])
    unknown = set(doc) - set(_FIELD_NAMES)
    if unknown:
        raise ScenarioValidationError([f"unknown key {k!r}" for k in sorted(unknown)])

    # Numbers become floats and lists tuples; a value of the wrong JSON type
    # is passed through for ``scenario_issues`` to report.
    kwargs = {key: doc[key] for key in _FIELD_NAMES if key in doc}
    for key in ("biomarker_sds", "benefit_directions", "n_drop_grid", "n_feas_grid"):
        if isinstance(kwargs.get(key), list):
            kwargs[key] = tuple(kwargs[key])
    if isinstance(kwargs.get("biomarker_effects"), dict):
        kwargs["biomarker_effects"] = {
            str(arm): tuple(map(_float, pair)) if isinstance(pair, list) else pair
            for arm, pair in kwargs["biomarker_effects"].items()
        }
    if isinstance(kwargs.get("phase3_effects"), dict):
        kwargs["phase3_effects"] = {str(arm): _float(v) for arm, v in kwargs["phase3_effects"].items()}
    return ScenarioConfig(**kwargs)


def load_scenarios(path) -> list[ScenarioConfig]:
    """Load one scenario (top-level object) or several (top-level list,
    not empty) from a JSON file; every scenario is validated."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    docs = doc if isinstance(doc, list) else [doc]
    if not docs:
        raise ScenarioValidationError(["scenario list is empty"])
    scenarios = [validate_scenario(scenario_from_dict(d)) for d in docs]
    ids = [s.scenario_id for s in scenarios]
    if len(set(ids)) != len(ids):
        raise ScenarioValidationError([f"scenario_id values must be distinct, got {ids}"])
    return scenarios
