"""The benchmark's tracer (`perfbench/tracer.py`) wraps engine methods by
name, reading each from its class's own `__dict__`.  A method that moves to
a base class, or is renamed, would break `perfbench/run.py --trace 1`; these
tests name it first."""

import importlib
import importlib.util
import inspect
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
TRACED = [(layer, cls, method)
          for layer, classes in TRACER.METHODS.items()
          for cls, methods in classes.items()
          for method in methods]


def test_every_traced_layer_is_an_engine_module():
    for layer in TRACER.LAYERS:
        importlib.import_module(f"lakat.{layer}")
    assert set(TRACER.METHODS) <= set(TRACER.LAYERS)


@pytest.mark.parametrize("layer, cls, method", TRACED, ids=[".".join(t) for t in TRACED])
def test_traced_method_is_defined_in_its_own_class(layer, cls, method):
    module = importlib.import_module(f"lakat.{layer}")
    assert method in getattr(module, cls).__dict__


class _Reads(dict):
    """A zero-default mapping that records every key read from it."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().get(key, 0)


def _metric_names():
    """Every span name that Tracer.metrics() reads, plus the names with an
    after-hook: the names a per-layer metric counts."""
    tracer = TRACER.Tracer(enabled=True)
    tracer.calls, tracer.inclusive, tracer.edges = _Reads(), _Reads(), _Reads()
    tracer.metrics()
    names = tracer.calls.read | tracer.inclusive.read | set(TRACER._AFTER)
    for edge in tracer.edges.read:
        names.update(edge)
    return sorted(names)


METRIC_NAMES = _metric_names()


def test_metrics_read_span_names():
    assert "bucket.check_context_membership" in METRIC_NAMES
    assert "store.MemoryStore.get" in METRIC_NAMES


@pytest.mark.parametrize("name", METRIC_NAMES)
def test_counted_span_name_is_wrapped_by_the_tracer(name):
    """A `layer.function` name must be a public module-level function of its
    layer, and a `layer.Class.method` name one of the traced methods, so a
    rename fails here instead of reading a per-layer metric as zero."""
    layer, *rest = name.split(".")
    assert layer in TRACER.LAYERS
    module = importlib.import_module(f"lakat.{layer}")
    if len(rest) == 1:
        function = vars(module).get(rest[0])
        assert inspect.isfunction(function) and not rest[0].startswith("_"), name
        assert function.__module__ == module.__name__, f"{name} is imported, not defined there"
    else:
        cls, method = rest
        assert method in TRACER.METHODS[layer][cls], name
