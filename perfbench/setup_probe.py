"""Time a fresh process's set-up for one workload: import the engine and
its CLI, load the workload's scenario file, and validate the scenarios with
a round's replicate count and seed, as ``fast-trials simulate`` does with
its overrides. Prints one JSON object.

Usage: setup_probe.py <scenario file> <replicates> <base seed>
"""

import dataclasses
import importlib
import json
import sys
from time import perf_counter


def main() -> None:
    path, replicates, base_seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    start = perf_counter()
    cli = importlib.import_module("fast_trials.cli")
    imported = perf_counter()
    scenarios = cli.load_scenarios(path)
    loaded = perf_counter()
    for s in scenarios:
        cli.validate_scenario(dataclasses.replace(s, replicates=replicates, base_seed=base_seed))
    validated = perf_counter()
    import reference

    reference.speed()  # warms the kernel up; the fresh process's first call runs cold
    print(json.dumps({
        "setup_s": validated - start,
        "speed": reference.speed(),
        "cli.import_ms": (imported - start) * 1e3,
        "design.load_ms": (loaded - imported) * 1e3,
        "design.validate_ms": (validated - loaded) * 1e3,
    }))


if __name__ == "__main__":
    main()
