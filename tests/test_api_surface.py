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
