"""The benchmark's tracer wraps program functions by name: every name it
lists must still resolve, or a traced run fails at install time."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("name", sorted(tracing.SPANS))
def test_span_targets_resolve(name):
    mod, attr, cls = tracing.SPANS[name]
    owner = importlib.import_module(f"semicover.{mod}")
    if cls is None:
        assert callable(getattr(owner, attr, None)), name
    else:
        assert attr in vars(getattr(owner, cls)), name


@pytest.mark.parametrize("name", sorted(tracing.COUNTERS))
def test_counter_targets_are_own_class_entries(name):
    mod, attr, classes = tracing.COUNTERS[name]
    owner = importlib.import_module(f"semicover.{mod}")
    for cls in classes:
        assert attr in vars(getattr(owner, cls)), (name, cls)


def test_value_profile_resolves():
    assert callable(importlib.import_module("semicover.cones").value_profile)
