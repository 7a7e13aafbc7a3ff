"""One round of a workload, with its output check.

A round runs a workload's scenarios once, over every grid cell, at a fixed
replicate count and with a base seed of its own. It leaves results.csv in
an output directory, the way ``fast-trials simulate`` does, and the check
reads that file back with the engine's own parser.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import resource
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import reference
from workloads import Workload, round_seed

from fast_trials import cli, harness, reporting
from fast_trials.design import load_scenarios


@dataclass
class Round:
    attempted: int
    failed: int = 0
    wall_s: Optional[float] = None  # None when the round raised
    cpu_s: float = 0.0  # this process's CPU over the timed call
    speed: float = 1.0  # the machine's speed around the round (reference.py)
    worker_cpu_s: float = 0.0  # CPU of the processes that ran the replicates
    sha256: Optional[str] = None
    error: Optional[str] = None  # why the round raised; its replicates count as failed
    problems: list = field(default_factory=list)  # failed output checks
    branches: Counter = field(default_factory=Counter)
    trace_rows: int = 0


def n_cells(scenarios) -> int:
    return sum(len(s.n_drop_grid) * len(s.n_feas_grid) for s in scenarios)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _timed(call):
    """Run ``call``; return its result, wall time, own CPU and reaped
    children's CPU."""
    children, cpu, start = _children_cpu(), time.process_time(), time.perf_counter()
    result = call()
    wall = time.perf_counter() - start
    return result, wall, time.process_time() - cpu, _children_cpu() - children


def _library_round(wl: Workload, scenarios, base_seed, threads, out: Path):
    configs = [dataclasses.replace(s, base_seed=base_seed, replicates=wl.replicates) for s in scenarios]
    results, *times = _timed(
        lambda: [oc for c in configs for oc in harness.run_grid_detail(c, threads=threads)[0]]
    )
    reporting.write_results_csv(results, out / "results.csv")
    branches = Counter()
    for oc in results:
        branches.update(oc.branch_counts)
    return times, sum(oc.n_gating_violations for oc in results), branches, 0


def _cli_round(wl: Workload, scenarios, base_seed, threads, out: Path):
    argv = [
        "simulate", "--config", str(wl.config), "--out", str(out),
        "--replicates", str(wl.replicates), "--seed", str(base_seed),
        "--threads", str(threads), "--trace",
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        code, *times = _timed(lambda: cli.main(argv))
    if code != cli.EXIT_OK:
        raise RuntimeError(f"fast-trials simulate exited with code {code}")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    branches = Counter()
    rows = 0
    for s in scenarios:
        with open(out / f"trace_scenario_{s.scenario_id}.csv", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                branches[row["branch"]] += 1
                rows += 1
    return times, sum(s["n_gating_violations"] for s in manifest["scenarios"]), branches, rows


def _check(path: Path, cells: int, replicates: int) -> tuple:
    """Problems found in results.csv, and its failed replicates."""
    try:
        results = reporting.read_results_csv(path)
    except (OSError, reporting.ReportError) as exc:
        return [f"results.csv unreadable: {exc}"], 0
    problems = [] if len(results) == cells else [f"results.csv has {len(results)} rows for {cells} cells"]
    for r in results:
        if r["n_effective"] + r["n_failed"] != replicates:
            problems.append(
                f"cell ({r['scenario_id']}, {r['n_drop']}, {r['n_feas']}): n_effective + n_failed "
                f"= {r['n_effective'] + r['n_failed']}, expected {replicates}"
            )
    return problems, sum(r["n_failed"] for r in results)


def run_round(wl: Workload, scenarios, base_seed: int, out: Path,
              threads: Optional[int] = None, via_cli: Optional[bool] = None) -> Round:
    """Run one round and check its output; a round that raises counts
    every replicate it attempted as failed."""
    threads = wl.threads if threads is None else threads
    via_cli = wl.via_cli if via_cli is None else via_cli
    cells = n_cells(scenarios)
    rnd = Round(attempted=cells * wl.replicates)
    try:
        times, violations, branches, rows = (_cli_round if via_cli else _library_round)(
            wl, scenarios, base_seed, threads, out
        )
    except Exception as exc:  # the benchmark goes on and reports the failure
        rnd.failed = rnd.attempted
        rnd.error = f"round with base seed {base_seed} raised {type(exc).__name__}: {exc}"
        return rnd

    rnd.wall_s, rnd.cpu_s, children_cpu = times
    # A pool's workers are reaped when it shuts down, inside the timed call.
    rnd.worker_cpu_s = children_cpu if threads > 1 else rnd.cpu_s
    rnd.branches, rnd.trace_rows = branches, rows
    path = out / "results.csv"
    rnd.sha256 = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    rnd.problems, failed = _check(path, cells, wl.replicates)
    if violations:
        rnd.problems.append(f"{violations} gating violations")
    if via_cli and rows != rnd.attempted:
        rnd.problems.append(f"{rows} trace rows for {rnd.attempted} replicates")
    rnd.failed = rnd.attempted if rnd.problems else failed
    return rnd


class Rounds:
    """Every round of one run, each with its own base seed and output
    directory, and the machine's speed timed between rounds."""

    def __init__(self, wl, seed: int, out: Path):
        self.wl, self.seed, self.out = wl, seed, out
        self.scenarios = load_scenarios(wl.config)
        self.all = []
        self._speed = None
        self._measure = reference.speed if wl.threads == 1 else reference.speed_all_cpus

    def one(self, **kwargs):
        before = self._measure() if self._speed is None else self._speed
        out = self.out / f"round_{len(self.all)}"
        out.mkdir()
        rnd = run_round(self.wl, self.scenarios, round_seed(self.seed, len(self.all)), out, **kwargs)
        shutil.rmtree(out)
        self._speed = self._measure()
        rnd.speed = (before + self._speed) / 2
        self.all.append(rnd)
        return rnd

    def for_seconds(self, seconds: float, **kwargs) -> list:
        start, done = time.perf_counter(), []
        while not done or time.perf_counter() - start < seconds:
            done.append(self.one(**kwargs))
        return done
