"""Every shipped scenario file's outputs are pinned by hash: ``results.csv``
and each ``trace_scenario_<id>.csv``, written by the reporting writers from
``run_grid_detail`` at 4 replicates per cell, on 1, 2 and 3 workers; on 3,
tasks of 21 replicates straddle cells. A change that keeps the random
stream keeps every hash in ``data/golden_scenarios.json``."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from fast_trials.design import load_scenarios
from fast_trials.harness import TRACE_FIELDS, open_pool, run_grid_detail
from fast_trials.reporting import write_results_csv, write_trace_csv

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_scenarios.json").read_text())
REPLICATES = 4


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def scenario_file_hashes(config_path: Path, threads: int, out_dir: Path) -> dict:
    """Output file name -> sha256, for the files ``fast-trials simulate
    --replicates 4 --trace`` writes from ``config_path``."""
    scenarios = [dataclasses.replace(s, replicates=REPLICATES) for s in load_scenarios(config_path)]
    results = []
    written = []
    with open_pool(scenarios, threads) as pool:
        for scenario in scenarios:
            cells, traces = run_grid_detail(scenario, threads=threads, collect_traces=True, pool=pool)
            results.extend(cells)
            name = f"trace_scenario_{scenario.scenario_id}.csv"
            write_trace_csv(traces, TRACE_FIELDS, out_dir / name)
            written.append(name)
    write_results_csv(results, out_dir / "results.csv")
    return {name: _sha256(out_dir / name) for name in ["results.csv", *written]}


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_shipped_scenario_outputs_match_golden_hashes(tmp_path, config, threads):
    assert scenario_file_hashes(ROOT / config, threads, tmp_path) == GOLDEN[config]


def test_golden_covers_every_shipped_scenario_file():
    files = [*ROOT.glob("scenarios/*.json"), *ROOT.glob("perfbench/scenarios/*.json")]
    assert sorted(GOLDEN) == sorted(str(p.relative_to(ROOT)) for p in files)
