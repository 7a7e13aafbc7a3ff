"""Measure one workload in this process; the last line of stdout is a JSON
report for run.py, which starts this script with the engine's sources on
PYTHONPATH.

Every round's output is checked, and every round's time is scaled to the
machine's nominal speed (reference.py). Without --trace the rounds run for
--seconds untraced. With --trace, half of --seconds runs untraced (the base
of the tracing overhead), the other half runs with the wrappers of
tracing.py, and a few more traced rounds add the layers the workload itself
cannot show: the CLI layers for the library workloads, and for the CLI
workload the worker-side layers, from rounds run on one in-process worker.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import tempfile
from collections import Counter
from pathlib import Path

import numpy
import tracing
from rounds import Rounds
from workloads import BRANCHES, ROOT, WORKLOADS

OUT = ROOT / ".perfbench_out"
# Traced rounds that add the layers the workload itself cannot show.
EXTRA_ROUNDS = 2


def rate(rounds, normalized=True) -> float:
    """Median replicates per second over the rounds that completed; with
    ``normalized``, per second at the machine's nominal speed."""
    values = [r.attempted / (r.wall_s * (r.speed if normalized else 1.0)) for r in rounds if r.wall_s]
    return statistics.median(values) if values else 0.0


def speed(rounds) -> float:
    return statistics.median(r.speed for r in rounds)


def pool_metrics(rounds, threads: int) -> dict:
    timed = [r for r in rounds if r.wall_s]
    if not timed:
        return {"harness.pool_busy_share": 0.0, "harness.parent_cpu_s": 0.0}
    return {
        "harness.pool_busy_share": sum(r.worker_cpu_s for r in timed)
        / (threads * sum(r.wall_s for r in timed)),
        "harness.parent_cpu_s": statistics.mean(r.cpu_s * r.speed for r in timed),
    }


def traced(rounds: Rounds, seconds: float, report: dict, spans_prefix: Path) -> dict:
    """Per-layer metrics, the tracing overhead and the coverage check."""
    wl = rounds.wl
    base = rounds.for_seconds(seconds / 2)
    worker_side = tracing.WORKER_SIDE + ((tracing.GRID_IN_CLI,) if wl.via_cli else (tracing.GRID_IN_LIBRARY,))
    worker, parent = tracing.Recorder(worker_side), tracing.Recorder(tracing.PARENT_SIDE)
    # The workload's own rounds show one side; rounds on one in-process
    # worker, through the CLI, show the other.
    own, other = (parent, worker) if wl.via_cli else (worker, parent)
    with own:
        measured = rounds.for_seconds(seconds / 2)
    with other:
        extra = [rounds.one(threads=1, via_cli=True) for _ in range(EXTRA_ROUNDS)]
    worker_rounds, parent_rounds = (extra, measured) if wl.via_cli else (measured, extra)
    parent.write(f"{spans_prefix}_cli.csv")
    worker.write(f"{spans_prefix}_replicates.csv")

    worker_layers = tracing.Layers(worker.spans, speed(worker_rounds))
    parent_layers = tracing.Layers(parent.spans, speed(parent_rounds))
    metrics = tracing.worker_metrics(worker_layers)
    metrics.update(tracing.cli_metrics(parent_layers))
    metrics.update(pool_metrics(measured, wl.threads))
    metrics["harness.trace_rows"] = statistics.mean(r.trace_rows for r in parent_rounds)

    unreached = {g for g, branch in tracing.GATEKEEPERS.items() if branch not in wl.branches}
    missing = worker_layers.never_called(worker, unreached) + parent_layers.never_called(parent)
    if missing:
        report["problems"].append(f"wrapped functions never called: {', '.join(missing)}")
    untraced, with_tracing = rate(base), rate(measured)
    report["tracing_overhead"] = {
        "traced_replicates_per_s": with_tracing,
        "untraced_replicates_per_s": untraced,
        "ratio": with_tracing / untraced if untraced else 0.0,
    }
    report["fits_per_replicate"] = metrics["stats.irls_fits_per_rep"]
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    report = {"problems": [], "errors": []}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        rounds = Rounds(wl, args.seed, Path(tmp))
        first = rounds.one()  # warm-up, untimed; its results.csv hash is the run's
        if args.trace:
            report["per_layer"] = traced(rounds, args.seconds, report, OUT / f"spans_{wl.name}")
        else:
            timed = rounds.for_seconds(args.seconds)
            report["replicates_per_s"] = rate(timed)
            report["raw_replicates_per_s"] = rate(timed, normalized=False)
            report["machine_speed"] = speed(timed)
            report["timed_rounds"] = len(timed)

    branches = Counter()
    for r in rounds.all:
        branches.update(r.branches)
        report["problems"].extend(r.problems)
        report["errors"].extend([r.error] if r.error else [])
    total = sum(branches.values())
    report["branch_mix"] = {b: branches[b] / total if total else 0.0 for b in BRANCHES}
    if wl.purpose:
        branch, least = wl.purpose
        if report["branch_mix"][branch] < least:
            report["problems"].append(
                f"workload {wl.name} lost its purpose: {branch} share "
                f"{report['branch_mix'][branch]:.3f} < {least}"
            )
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report.update(
        attempted=sum(r.attempted for r in rounds.all),
        failed=sum(r.failed for r in rounds.all),
        results_sha256=first.sha256,
        rounds=len(rounds.all),
        replicates_per_round=first.attempted,
        peak_rss_mb=(self_kb + children_kb) / 1024,
        numpy=numpy.__version__,
    )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
