"""Command-line front end.

``fast-trials simulate`` runs the interim-timing grid for every scenario in
a JSON config and writes results.csv plus a run manifest (and per-scenario
replicate traces with ``--trace``). ``fast-trials report`` renders the
Figure-style heatmap panels from a results.csv into an SVG.

Exit codes: 0 success, 2 invalid config/flags/input schema, 3 I/O failure,
4 simulation failed (a replicate of a validated scenario raised; nothing is
written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .design import ScenarioValidationError, load_scenarios, scenario_to_dict, validate_scenario
from .harness import TRACE_FIELDS, open_pool, run_grid_detail
from .interim import SchedulingError
from .reporting import (
    RESULTS_SCHEMA_VERSION,
    ReportError,
    config_hash,
    read_results_csv,
    render_heatmaps_svg,
    write_manifest,
    write_results_csv,
    write_trace_csv,
)
from .stats import FittingError, InputError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_SIMULATION = 4

THREADS_ENV = "FAST_TRIALS_THREADS"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fast-trials",
        description="Simulate operating characteristics of a seamless phase 2/3 "
        "factorial adaptive trial design over a grid of interim-analysis timings.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the timing grid for each scenario")
    sim.add_argument("--config", required=True, help="scenario JSON (one object or a list)")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--replicates", type=int, help="override replicates for every scenario")
    sim.add_argument("--seed", type=int, help="override base_seed for every scenario")
    sim.add_argument(
        "--threads",
        type=int,
        help=f"worker processes (default: ${THREADS_ENV} or 1); results do not depend on this",
    )
    sim.add_argument("--trace", action="store_true", help="write per-replicate trace CSVs")

    rep = sub.add_parser("report", help="render heatmap panels from a results.csv")
    rep.add_argument("--in", dest="results", required=True, help="results.csv from simulate")
    rep.add_argument("--svg", required=True, help="output SVG path")
    return parser


def _resolve_threads(value) -> int:
    if value is not None:
        return max(1, int(value))
    env = os.environ.get(THREADS_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ScenarioValidationError([f"{THREADS_ENV}: not an integer: {env!r}"])
    return 1


def _cmd_simulate(args) -> int:
    try:
        scenarios = load_scenarios(args.config)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return EXIT_INVALID
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ScenarioValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    try:
        if args.replicates is not None or args.seed is not None:
            overrides = {}
            if args.replicates is not None:
                overrides["replicates"] = args.replicates
            if args.seed is not None:
                overrides["base_seed"] = args.seed
            scenarios = [
                validate_scenario(dataclasses.replace(s, **overrides)) for s in scenarios
            ]
        threads = _resolve_threads(args.threads)
    except ScenarioValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    started = datetime.now(timezone.utc).isoformat()
    all_results = []
    per_scenario = []
    traces_by_scenario = {}
    # One pool serves every scenario; leaving the block shuts it down, on
    # the exit-4 return too.
    with open_pool(scenarios, threads) as pool:
        for scenario in scenarios:
            try:
                results, traces = run_grid_detail(
                    scenario, threads=threads, collect_traces=args.trace, pool=pool
                )
            except (SchedulingError, InputError, FittingError) as exc:
                print(f"error: simulation failed in scenario {scenario.scenario_id}: {exc}", file=sys.stderr)
                return EXIT_SIMULATION
            all_results.extend(results)
            if args.trace:
                traces_by_scenario[scenario.scenario_id] = traces
            per_scenario.append(
                {
                    "scenario_id": scenario.scenario_id,
                    "base_seed": scenario.base_seed,
                    "replicates": scenario.replicates,
                    "n_cells": len(results),
                    "n_effective": sum(r.n_replicates_effective for r in results),
                    "n_failed": sum(r.n_failed for r in results),
                    "n_clamped_outcomes": sum(r.n_clamped for r in results),
                    "n_gating_violations": sum(r.n_gating_violations for r in results),
                }
            )
    finished = datetime.now(timezone.utc).isoformat()

    manifest = {
        "tool": "fast-trials",
        "tool_version": __version__,
        "results_schema_version": RESULTS_SCHEMA_VERSION,
        "config_hash": config_hash([scenario_to_dict(s) for s in scenarios]),
        "threads": threads,
        "started_at": started,
        "finished_at": finished,
        "scenarios": per_scenario,
    }

    try:
        os.makedirs(args.out, exist_ok=True)
        write_results_csv(all_results, os.path.join(args.out, "results.csv"))
        write_manifest(os.path.join(args.out, "manifest.json"), manifest)
        for sid, rows in traces_by_scenario.items():
            write_trace_csv(rows, TRACE_FIELDS, os.path.join(args.out, f"trace_scenario_{sid}.csv"))
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(all_results)} grid cells to {os.path.join(args.out, 'results.csv')}")
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        rows = read_results_csv(args.results)
    except FileNotFoundError:
        print(f"error: results file not found: {args.results}", file=sys.stderr)
        return EXIT_INVALID
    except ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        render_heatmaps_svg(rows, args.svg)
    except ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: cannot write SVG: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote heatmaps to {args.svg}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    return _cmd_report(args)


if __name__ == "__main__":
    raise SystemExit(main())
