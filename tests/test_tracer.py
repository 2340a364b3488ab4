"""The benchmark's tracer (``perfbench/tracer.py``) wraps names that one
``dirlaw`` module imports from another.  A refactor that drops one of
them breaks every traced benchmark run, so this checks, without running
a workload, that every wrapper installs and comes off again."""

import importlib
from pathlib import Path

import dirlaw
import dirlaw.cli  # noqa: F401  (the CLI loads every module it wraps)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_wrapper(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    tr = tracer.Tracer()
    patched = []
    try:
        tracer.instrument(tr, dirlaw)
        patched = list(tr._patches)
        assert len(patched) == 32
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in patched)
    finally:
        tr.restore()
    assert not tr._patches
    assert all(getattr(owner, attr) is original
               for owner, attr, original in patched)
