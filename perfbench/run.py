"""fast-trials benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the engine is imported from ``src/``.
Set-up is timed in fresh processes (setup_probe.py), the workload in one
more (measure.py). Earlier lines of stdout give the run stamp and details;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. Exits non-zero, printing
no result, when the engine's sources are missing or a step crashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import HERE, ROOT, WORKLOADS, round_seed

SETUP_PROBES = 8  # timed fresh-process set-ups before and again after the workload
DEADLINE_S = 170  # the whole run, probes included, ends before this


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _commit():
    """HEAD of the checkout when it is a git repository, else None; never
    looks at directories above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    """Hash of the engine's sources, which identifies the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _python(args, env, timeout) -> dict:
    """Run a Python script of the benchmark; its last stdout line is JSON."""
    out = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=timeout)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{args[0]} exited with code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _probes(wl, seed, env, n=SETUP_PROBES) -> list:
    args = [str(HERE / "setup_probe.py"), str(wl.config), str(wl.replicates), str(round_seed(seed, 0))]
    return [_python(args, env, 60) for _ in range(n)]


def main() -> None:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    wl = WORKLOADS[args.workload]
    if not (ROOT / "src" / "fast_trials" / "__init__.py").is_file() or not wl.config.is_file():
        raise SystemExit(f"no engine sources or scenario file under {ROOT}: nothing to benchmark")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    load_start = _loadavg()
    _probes(wl, args.seed, env, n=1)  # fills __pycache__, which users pay once
    probes = _probes(wl, args.seed, env)
    budget = DEADLINE_S - 15 - (time.monotonic() - started)
    report = _python([str(HERE / "measure.py"), "--workload", wl.name, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)], env, budget)
    # Probes on both sides of the workload sample two stretches of the
    # machine's background load.
    probes += _probes(wl, args.seed, env)
    # Set-up times are scaled to the machine's nominal speed, like the rounds.
    setup = {k: statistics.median(p[k] * (1.0 if k == "speed" else p["speed"]) for p in probes)
             for k in probes[0]}

    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        values = {**report.pop("per_layer"), **{k: v for k, v in setup.items() if k != "setup_s"}}
        wanted = spec["per_layer"]
    else:
        values = {
            "replicates_per_s": report["replicates_per_s"],
            "setup_s": setup["setup_s"],
            "peak_rss_mb": report["peak_rss_mb"],
            "completed_share": 1.0 - failed / attempted,
        }
        wanted = spec["end_to_end"]
    stamp = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": report.pop("numpy"),
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
        "setup": setup,
    }
    print(json.dumps({"stamp": stamp, "run": report}))
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for error in report["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not report["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
