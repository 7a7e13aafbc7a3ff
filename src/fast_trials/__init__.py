"""Monte Carlo engine for a seamless phase 2/3 factorial adaptive trial:
two interim analyses (arm dropping, feasibility) feeding a three-branch
gatekept final analysis, swept over a grid of interim timings."""

__version__ = "0.1.0"

from .design import (
    ScenarioConfig,
    ScenarioValidationError,
    load_scenarios,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from .harness import (
    OperatingCharacteristics,
    derive_seed,
    run_cell,
    run_grid,
)

__all__ = [
    "__version__",
    "ScenarioConfig",
    "ScenarioValidationError",
    "load_scenarios",
    "scenario_from_dict",
    "scenario_to_dict",
    "validate_scenario",
    "OperatingCharacteristics",
    "derive_seed",
    "run_cell",
    "run_grid",
]
