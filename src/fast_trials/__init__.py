"""Monte Carlo engine for a seamless phase 2/3 factorial adaptive trial:
two interim analyses (arm dropping, feasibility) feeding a three-branch
gatekept final analysis, swept over a grid of interim timings."""

__version__ = "0.1.0"

from .design import (
    ScenarioConfig,
    ScenarioValidationError,
    SubjectData,
    load_scenarios,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from .final_analysis import (
    FinalBranch,
    GatekeepingOutcome,
    analyze_terminated,
    build_final_model,
    gatekeep_both_retained,
    gatekeep_one_retained,
)
from .generation import (
    ActiveArms,
    generate_block,
)
from .harness import (
    OperatingCharacteristics,
    TrialResult,
    derive_seed,
    run_cell,
    run_grid,
    run_replicate,
)
from .interim import (
    AnalysisSchedule,
    FeasibilityDecision,
    RetentionDecision,
    arm_dropping_analysis,
    build_schedule,
    feasibility_analysis,
)
from .stats import (
    LogisticFit,
    Tail,
    TestResult,
    chi_square_sf,
    fit_logistic,
    lr_test,
    normal_cdf,
    t_sf,
    welch_t_test,
)

__all__ = [
    "__version__",
    "ScenarioConfig",
    "ScenarioValidationError",
    "SubjectData",
    "load_scenarios",
    "scenario_from_dict",
    "scenario_to_dict",
    "validate_scenario",
    "FinalBranch",
    "GatekeepingOutcome",
    "analyze_terminated",
    "build_final_model",
    "gatekeep_both_retained",
    "gatekeep_one_retained",
    "ActiveArms",
    "generate_block",
    "OperatingCharacteristics",
    "TrialResult",
    "derive_seed",
    "run_cell",
    "run_grid",
    "run_replicate",
    "AnalysisSchedule",
    "FeasibilityDecision",
    "RetentionDecision",
    "arm_dropping_analysis",
    "build_schedule",
    "feasibility_analysis",
    "LogisticFit",
    "Tail",
    "TestResult",
    "chi_square_sf",
    "fit_logistic",
    "lr_test",
    "normal_cdf",
    "t_sf",
    "welch_t_test",
]
