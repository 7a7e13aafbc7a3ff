#!/usr/bin/env python3
"""One simulated trial, narrated: enrollment, the two interim decisions,
and the branch-appropriate gatekept final analysis.

Run:  python demos/02_single_trial_walkthrough.py
"""

from fast_trials.design import ScenarioConfig, validate_scenario
from fast_trials.harness import derive_seed, run_replicate

# Only the second fluid arm works: it lowers biomarker y11, raises y12, and
# adds 10 points of phase-3 risk. The mineralocorticoid arm (B1) is null.
config = validate_scenario(
    ScenarioConfig(
        scenario_id=2,
        biomarker_effects={"A1": (0.0, 0.0), "A2": (-10.0, 10.0)},
        biomarker_sds=(30.0, 30.0),
        benefit_directions=("decrease", "increase"),
        phase3_effects={"A1": 0.0, "A2": 0.1, "B1": 0.0},
        default_retained_arm="A1",
        base_seed=52100022,
    )
)

n_drop, n_feas = 150, 300
print(f"timing: arm-dropping once {n_drop} subjects have outcomes, feasibility at {n_feas}")
print(f"total enrollment: {config.n_total} subjects, factorial 3x2 randomization\n")

for replicate in (0, 1, 2, 3, 4):
    seed = derive_seed(config.base_seed, config.scenario_id, (n_drop, n_feas), replicate)
    result = run_replicate(config, n_drop, n_feas, seed)

    print(f"-- replicate {replicate} (seed {seed}) --")
    order = [result.schedule[0][0].value, result.schedule[1][0].value]
    print(f"   interim order: {order[0]} then {order[1]}")

    ret = result.retention
    if ret is None:
        print("   arm-dropping: never reached (domain terminated first)")
    else:
        noms = {"y11": ret.nominated_by_y11, "y12": ret.nominated_by_y12}
        how = "default" if ret.used_default else f"nominations {noms}"
        print(
            f"   arm-dropping: p_y11={ret.test_y11.p_value:.3f}, p_y12={ret.test_y12.p_value:.3f}"
            f" -> retained {sorted(ret.retained)} ({how})"
        )

    feas = result.feasibility
    pooled_mean, control_mean = feas.test.means
    print(
        f"   feasibility: pooled mean {pooled_mean:+.2f} vs control {control_mean:+.2f},"
        f" p={feas.test.p_value:.4f} -> {'proceed' if feas.proceed else 'terminate domain A'}"
    )

    gk = result.gatekeeping
    p_str = ", ".join(f"{k}={v:.3g}" for k, v in sorted(gk.node_p_values.items()))
    print(f"   final analysis [{result.branch.value}]: {p_str}")
    print(f"   rejected: {sorted(gk.rejected) or '-'}; successful arms: {sorted(gk.successful_arms) or '-'}\n")
