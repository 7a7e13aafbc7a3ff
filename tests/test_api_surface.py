"""The public surface: every exported name resolves, and so does every
engine function the benchmark's tracing wraps, so a refactor that removes
or renames one fails here instead of in a traced benchmark run."""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import fast_trials

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = sorted(f"fast_trials.{m.name}" for m in pkgutil.iter_modules(fast_trials.__path__))


@pytest.mark.parametrize("name", ["fast_trials", *MODULES])
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "tracing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("tracing")
    for name in ("workloads", "tracing"):
        sys.modules.pop(name, None)


def test_traced_functions_resolve_to_callables(tracing):
    targets = (*tracing.WORKER_SIDE, *tracing.PARENT_SIDE, tracing.GRID_IN_CLI, tracing.GRID_IN_LIBRARY)
    missing = [
        f"{module.__name__}.{attr} (span {span})"
        for module, attr, span, _ in targets
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_one_replicate_per_branch_reaches_every_traced_function(tracing):
    """A refactor that stops calling a wrapped function by the name the
    tracing patches (say, fitting without ``fit_logistic_counts``) would
    leave that layer's metrics empty; one replicate on each final branch
    must call every wrapped function."""
    from fast_trials import harness
    from fast_trials.design import load_scenarios

    root = PERFBENCH.parent
    cases = {
        "domain_a_terminated": root / "scenarios" / "null.json",
        "one_arm_retained": root / "scenarios" / "first_arm_effective.json",
        "both_arms_retained": PERFBENCH / "scenarios" / "both_arms.json",
    }
    runs = []
    for branch, path in cases.items():
        config = load_scenarios(path)[0]
        cell = (config.n_drop_grid[0], config.n_feas_grid[-1])
        seed = next(s for s in range(200) if harness.run_replicate(config, *cell, s).branch.value == branch)
        runs.append((config, cell, seed))
    branches = set()
    with tracing.Recorder(tracing.WORKER_SIDE) as recorder:
        for config, cell, seed in runs:
            branches.add(harness.run_replicate(config, *cell, seed).branch.value)
    assert branches == set(cases)
    assert tracing.Layers(recorder.spans).never_called(recorder) == []
