"""Exact metamorphic relations of a grid run, on every cell at a few
replicates per cell:

* scaling every biomarker effect and both biomarker SDs by a power of 2
  scales every biomarker draw exactly, and the Welch tests are scale-free,
  so results and trace rows are equal to the unscaled run's;
* halving ``alpha_final`` leaves the interims alone, so every replicate
  keeps its branch, rejects a subset of the nodes it rejects at the full
  alpha, and every ``p_success_*``, ``power`` and ``fwer`` is
  non-increasing per cell."""

import dataclasses
from pathlib import Path

import pytest

from fast_trials.design import load_scenarios
from fast_trials.harness import run_grid_detail

ROOT = Path(__file__).resolve().parent.parent
FILES = ("perfbench/scenarios/both_arms.json", "scenarios/first_arm_effective.json", "scenarios/high_effect.json")
REPLICATES = 6


def _config(path):
    (config,) = load_scenarios(ROOT / path)
    return dataclasses.replace(config, replicates=REPLICATES)


@pytest.fixture(scope="module", params=FILES)
def unscaled(request):
    config = _config(request.param)
    return config, run_grid_detail(config, collect_traces=True)


@pytest.mark.parametrize("scale", [2.0**3, 2.0**-2])
def test_scaled_biomarkers_give_the_same_run(unscaled, scale):
    config, expected = unscaled
    scaled = dataclasses.replace(
        config,
        biomarker_effects={arm: tuple(v * scale for v in pair) for arm, pair in config.biomarker_effects.items()},
        biomarker_sds=tuple(sd * scale for sd in config.biomarker_sds),
    )
    results, traces = run_grid_detail(scaled, collect_traces=True)
    assert results == expected[0]
    assert traces == expected[1]


def test_halved_final_alpha_rejects_a_subset(unscaled):
    config, (results, traces) = unscaled
    half_results, half_traces = run_grid_detail(
        dataclasses.replace(config, alpha_final=config.alpha_final / 2), collect_traces=True
    )
    assert len(half_traces) == len(traces)
    shrunk = 0
    for full, half in zip(traces, half_traces):
        assert (half["n_drop"], half["n_feas"], half["replicate"]) == (full["n_drop"], full["n_feas"], full["replicate"])
        assert half["branch"] == full["branch"]
        assert half["hypothesis_p_values"] == full["hypothesis_p_values"]
        rejected, half_rejected = (set(filter(None, row["rejected"].split("|"))) for row in (full, half))
        assert half_rejected <= rejected
        shrunk += half_rejected < rejected
    assert shrunk > 0  # the relation is not met by equal runs alone
    for full, half in zip(results, half_results):
        assert (half.n_drop, half.n_feas, half.n_replicates_effective) == (full.n_drop, full.n_feas, full.n_replicates_effective)
        for key, p in full.p_success.items():
            assert half.p_success[key] <= p, key
        assert half.power <= full.power
        assert half.fwer <= full.fwer
