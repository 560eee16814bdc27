"""The benchmark's tracer wraps program functions by name: every name it
lists must still resolve, or a traced run fails at install time."""

import importlib
import importlib.util
import sys
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


INPUTS = Path(__file__).resolve().parent.parent / "inputs"


def _wrappable():
    """{(owner, attribute): value} for every attribute the tracer may
    replace: its class targets and every name in a semicover module."""
    targets = [(mod, attr, (cls,)) for mod, attr, cls in tracing.SPANS.values() if cls]
    targets += tracing.COUNTERS.values()
    out = {}
    for mod, attr, classes in targets:
        for cls in classes:
            klass = getattr(importlib.import_module(f"semicover.{mod}"), cls)
            out[klass, attr] = vars(klass)[attr]
    for name, module in list(sys.modules.items()):
        if name == "semicover" or name.startswith("semicover."):
            out.update(((module, key), value) for key, value in vars(module).items())
    return out


def test_traced_requests_fill_the_layer_counts_and_restore(capsys):
    # one `witness` and one `sigma` request under the tracer, as a traced
    # benchmark run makes them: the ball and member-set layers are counted,
    # and uninstalling puts every wrapped attribute back
    cli = importlib.import_module("semicover.cli")
    before = _wrappable()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_request(1.0)
        assert cli.main(["witness", "--model", "z^1xC2", "--A", str(INPUTS / "zc2_nonneg.cone"),
                         "--B", str(INPUTS / "zc2_nonpos.cone"), "--radius", "3"]) == 0
        tracer.begin_request(1.0)
        assert cli.main(["sigma", "--exhaustive", "--table", str(INPUTS / "S3.tbl")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.metrics(0, 1.0)
    assert metrics["groups.ball.elements"]["value"] > 0
    assert metrics["cones.ball_members.calls"]["value"] > 0
    after = _wrappable()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
