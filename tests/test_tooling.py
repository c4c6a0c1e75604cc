"""The benchmark's span tracer wraps library functions by name; they must exist."""

import importlib
from pathlib import Path

from l2growth.covers import CoverInstance

REPO = Path(__file__).resolve().parents[1]


def test_traced_layer_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO))
    spans = importlib.import_module("perfbench.spans")
    for layer, module_name, names, _counter in spans.FUNCTION_LAYERS:
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}: {module_name}.{name}"
    for layer, method, _counter, _before in spans.METHOD_LAYERS:
        assert callable(CoverInstance.__dict__.get(method)), f"{layer}: CoverInstance.{method}"
