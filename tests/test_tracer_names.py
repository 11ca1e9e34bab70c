"""The benchmark's tracer (`perfbench/tracer.py`) wraps engine methods by
name, reading each from its class's own `__dict__`.  A method that moves to
a base class, or is renamed, would break `perfbench/run.py --trace 1`; these
tests name it first."""

import importlib
import importlib.util
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
