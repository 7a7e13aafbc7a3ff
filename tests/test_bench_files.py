"""Every ``BENCH_*.json`` at the repository root records a claim that the
benchmark can check: a declared workload and end-to-end metric, measured
on runs that were all correct and gave the same results on both sides."""

import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_BENCH_FILES = sorted(_ROOT.glob("BENCH_*.json"))


def _benchmark():
    return json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_bench_files_exist():
    assert _BENCH_FILES


@pytest.mark.parametrize("path", _BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_claims_a_declared_metric_on_correct_runs(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    benchmark = _benchmark()
    assert record["claim"]["workload"] in {w["name"] for w in benchmark["workloads"]}
    assert record["claim"]["metric"] in {m["name"] for m in benchmark["end_to_end"]}
    assert record["summary"]
    for entry in record["summary"]:
        assert entry["all_correct"] is True, entry["purpose"]
        assert entry["results_sha256_equal_per_seed"] is True, entry["purpose"]
