"""Spans recorded from outside the engine, and the per-layer metrics built
from them.

The engine's modules import each other's functions by name, so a function
is wrapped at the name its caller looks up (``harness.generate_block``, not
``generation.generate_block``). Each wrapper keeps a span in memory: name,
start, end, the span that was open when it was called, and a count read
from the return value. A span's self time is its duration minus the
durations of its direct children; calls are sequential, so children never
overlap.
"""

from __future__ import annotations

import csv
import os
import statistics
from collections import defaultdict
from time import perf_counter

from workloads import BOTH_ARMS, ONE_ARM, TERMINATED

from fast_trials import cli, final_analysis, harness, interim, stats

GATEKEEPERS = {
    "final_analysis.analyze_terminated": TERMINATED,
    "final_analysis.gatekeep_one_retained": ONE_ARM,
    "final_analysis.gatekeep_both_retained": BOTH_ARMS,
}

# (module, attribute looked up by the caller, span name, count from (args, result))
WORKER_SIDE = (
    (harness, "run_replicate", "harness.run_replicate", None),
    (harness, "generate_block", "generation.generate_block", lambda args, r: len(r[0])),
    (harness, "arm_dropping_analysis", "interim.arm_dropping_analysis", None),
    (harness, "feasibility_analysis", "interim.feasibility_analysis", None),
    (interim, "welch_t_test", "stats.welch_t_test", lambda args, r: int(r.degenerate)),
    (stats, "t_sf", "stats.t_sf", None),
    (harness, "build_final_model", "final_analysis.build_final_model", None),
    (harness, "analyze_terminated", "final_analysis.analyze_terminated", None),
    (harness, "gatekeep_one_retained", "final_analysis.gatekeep_one_retained", None),
    (harness, "gatekeep_both_retained", "final_analysis.gatekeep_both_retained", None),
    (final_analysis, "fit_logistic_counts", "stats.fit_logistic_counts",
     lambda args, r: (r.n_iterations, r.converged)),
    (final_analysis, "lr_test", "stats.lr_test", None),
    (stats, "chi_square_sf", "stats.chi_square_sf", None),
)
GRID_IN_CLI = (cli, "run_grid_detail", "harness.run_grid_detail", None)
GRID_IN_LIBRARY = (harness, "run_grid_detail", "harness.run_grid_detail", None)
# Wrapped in the process that runs the CLI; forked pool workers inherit
# none of the worker-side wrappers and return no spans.
PARENT_SIDE = (
    (cli, "main", "cli.main", None),
    GRID_IN_CLI,
    (cli, "load_scenarios", "design.load_scenarios", None),
    (cli, "validate_scenario", "design.validate_scenario", None),
    (cli, "write_results_csv", "reporting.write_results_csv", None),
    (cli, "write_manifest", "reporting.write_manifest", None),
    (cli, "write_trace_csv", "reporting.write_trace_csv", lambda args, r: os.path.getsize(args[2])),
)


class Recorder:
    """Installs wrappers, keeps their spans, and removes them on exit."""

    def __init__(self, targets):
        self.targets = targets
        self.spans = []  # [name, start, end, parent index, count]
        self._open = []
        self._originals = []

    def _wrap(self, original, name, count):
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            spans.append(span)
            open_.append(index)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return wrapper

    def __enter__(self):
        for module, attr, name, count in self.targets:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("index", "name", "start_s", "end_s", "parent", "count"))
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                out.writerow((i, name, f"{start:.9f}", f"{end:.9f}", parent, "" if count is None else count))


class Layers:
    """Per-name call counts, total and self time, durations and counts.
    Times are scaled by ``speed`` to the machine's nominal speed."""

    def __init__(self, spans, speed: float = 1.0):
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += (end - start) * speed
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.counts = defaultdict(list)
        for i, (name, start, end, _, count) in enumerate(spans):
            duration = (end - start) * speed
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - child[i]
            self.durations[name].append(duration)
            if count is not None:
                self.counts[name].append(count)

    def never_called(self, recorder: Recorder, allowed=frozenset()) -> list:
        """Names the recorder wrapped that no call reached, apart from
        ``allowed``."""
        return sorted({t[2] for t in recorder.targets} - allowed - {n for n, c in self.calls.items() if c})


def _per(x, n) -> float:
    return x / n if n else 0.0


def _percentile(values, q) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def worker_metrics(layers: Layers) -> dict:
    """generation, interim, stats, final_analysis and the in-process harness
    metrics, from a pass that ran the replicates in this process."""
    L = layers
    reps = L.calls["harness.run_replicate"]
    us = 1e6
    gen = "generation.generate_block"
    drop, feas = "interim.arm_dropping_analysis", "interim.feasibility_analysis"
    welch, fit = "stats.welch_t_test", "stats.fit_logistic_counts"
    build = "final_analysis.build_final_model"
    fits = L.counts[fit]
    subjects = sum(L.counts[gen])
    replicate_us = [d * us for d in L.durations["harness.run_replicate"]]
    return {
        "generation.calls_per_rep": _per(L.calls[gen], reps),
        "generation.subjects_per_rep": _per(subjects, reps),
        "generation.us_per_rep": _per(L.total[gen] * us, reps),
        "generation.ns_per_subject": _per(L.total[gen] * 1e9, subjects),
        "interim.drop_calls_per_rep": _per(L.calls[drop], reps),
        "interim.feas_calls_per_rep": _per(L.calls[feas], reps),
        "interim.self_us_per_rep": _per((L.self_time[drop] + L.self_time[feas]) * us, reps),
        "interim.degenerate_tests": sum(L.counts[welch]),
        "stats.welch_calls_per_rep": _per(L.calls[welch], reps),
        "stats.welch_self_us_per_call": _per(L.self_time[welch] * us, L.calls[welch]),
        "stats.t_sf_us_per_call": _per(L.total["stats.t_sf"] * us, L.calls["stats.t_sf"]),
        "stats.irls_fits_per_rep": _per(len(fits), reps),
        "stats.irls_iters_per_fit": _per(sum(n for n, _ in fits), len(fits)),
        "stats.irls_us_per_fit": _per(L.total[fit] * us, L.calls[fit]),
        "stats.irls_nonconverged": sum(1 for _, ok in fits if not ok),
        "stats.lr_tests_per_rep": _per(L.calls["stats.lr_test"], reps),
        "stats.chi2_sf_us_per_call": _per(
            L.total["stats.chi_square_sf"] * us, L.calls["stats.chi_square_sf"]
        ),
        "final_analysis.build_us_per_rep": _per(L.total[build] * us, reps),
        "final_analysis.self_us_per_rep": _per(
            (L.self_time[build] + sum(L.self_time[g] for g in GATEKEEPERS)) * us, reps
        ),
        "final_analysis.us_per_rep": _per(
            (L.total[build] + sum(L.total[g] for g in GATEKEEPERS)) * us, reps
        ),
        "final_analysis.share_terminated": _per(L.calls["final_analysis.analyze_terminated"], reps),
        "final_analysis.share_one_arm": _per(L.calls["final_analysis.gatekeep_one_retained"], reps),
        "final_analysis.share_both_arms": _per(L.calls["final_analysis.gatekeep_both_retained"], reps),
        "harness.replicate_us_p50": _percentile(replicate_us, 50),
        "harness.replicate_us_p99": _percentile(replicate_us, 99),
        "harness.self_us_per_rep": _per(L.self_time["harness.run_replicate"] * us, reps),
        "harness.aggregate_us_per_rep": _per(
            (L.total["harness.run_grid_detail"] - L.total["harness.run_replicate"]) * us, reps
        ),
    }


def cli_metrics(layers: Layers) -> dict:
    """cli and reporting metrics, per ``fast-trials simulate`` call."""
    L = layers
    runs = L.calls["cli.main"]
    return {
        "reporting.results_write_ms": _per(L.total["reporting.write_results_csv"] * 1e3, runs),
        "reporting.trace_write_ms": _per(L.total["reporting.write_trace_csv"] * 1e3, runs),
        "reporting.trace_bytes": _per(sum(L.counts["reporting.write_trace_csv"]), runs),
        "reporting.manifest_write_ms": _per(L.total["reporting.write_manifest"] * 1e3, runs),
        "cli.main_s": statistics.median(L.durations["cli.main"]) if runs else 0.0,
    }
