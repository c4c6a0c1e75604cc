"""Checks on the library's shape: the names the benchmark's span tracer wraps
exist, and the runtime imports stay within the standard library, numpy and scipy."""

import ast
import importlib
import sys
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


def test_runtime_imports_are_stdlib_numpy_scipy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy"}
    sources = sorted((REPO / "src" / "l2growth").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"
