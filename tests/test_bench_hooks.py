"""The benchmark's tracer wraps names in `knnmt` by attribute name, and its
workloads import names from it. A change that deletes or renames one of
those names fails here, not only in a benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    yield
    for name in ("tracing", "workloads", "oracles"):
        sys.modules.pop(name, None)


def snapshot(traced):
    """Every knnmt binding the tracer may replace: each traced class entry,
    and each module attribute named like a traced function."""
    modules = [m for n, m in sys.modules.items() if n == "knnmt" or n.startswith("knnmt.")]
    seen = {}
    for owner, attr, _, _ in traced:
        if isinstance(owner, type):
            seen[owner, attr] = owner.__dict__[attr]
        else:
            for module in modules:
                if hasattr(module, attr):
                    seen[module, attr] = getattr(module, attr)
    return seen


def test_tracer_wraps_every_traced_name_and_restores_it(bench_modules):
    tracing = importlib.import_module("tracing")
    importlib.import_module("workloads")
    before = snapshot(tracing.TRACED)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        installed = {(owner, attr) for owner, attr, _ in tracer._installed}
        assert {(owner, attr) for owner, attr, _, _ in tracing.TRACED} <= installed
        for owner, attr in installed:
            entry = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert hasattr(getattr(entry, "__func__", entry), "__wrapped__"), (owner, attr)
    finally:
        tracer.uninstall()
    assert snapshot(tracing.TRACED) == before
