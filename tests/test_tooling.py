"""Checks on the library's shape: the names the benchmark's span tracer wraps
exist, no public function takes a cover beside its complex and quotient, every
parameter of a public function is read, the runtime imports stay within the
standard library, numpy and scipy, no module raises more builtin exceptions
than its entry in ``BUILTIN_RAISES``, and every package the tests import is
declared in the ``test`` extra."""

import ast
import builtins
import importlib
import inspect
import re
import sys
import textwrap
from pathlib import Path

import pytest

import l2growth
from l2growth.covers import CoverInstance

REPO = Path(__file__).resolve().parents[1]


def _imports(path: Path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            yield node.lineno, name.split(".")[0]


def test_traced_layer_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO))
    spans = importlib.import_module("perfbench.spans")
    for layer, module_name, names, _counter in spans.FUNCTION_LAYERS:
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}: {module_name}.{name}"
    # the pre-call hooks and counters read CoverInstance attributes: run them on a cover
    cover = l2growth.instantiate(l2growth.torus_complex(1),
                                 l2growth.quotient(l2growth.FreeAbelian(1),
                                                   l2growth.LatticeSubgroup([[5]])))
    args = {"__init__": (cover, cover.cx, cover.quotient), "eigenvalues": (cover, 0),
            "normalized_trace": (cover, l2growth.Poly([0, 1]), 0)}
    for layer, method, counter, before in spans.METHOD_LAYERS:
        assert callable(CoverInstance.__dict__.get(method)), f"{layer}: CoverInstance.{method}"
        state = before(args[method], {}) if before else None
        result = getattr(CoverInstance, method)(*args[method])
        if before:
            assert (state, before(args[method], {})) == (True, False), layer  # fills a cache
        if counter:
            counts = counter(spans.Call(spans.Tracer(), method, args[method], {}, result, state))
            assert counts and min(counts.values()) >= 0, layer


def test_no_public_callable_takes_a_cover():
    # a cover passed beside (cx, quot) need not be theirs; every function
    # builds its own, which shares the instantiations and ranks of its quotient
    checked = 0
    for name in l2growth.__all__:
        obj = getattr(l2growth, name)
        if callable(obj):
            assert "cover" not in inspect.signature(obj).parameters, name
            checked += 1
    assert checked > 40


def _unread_parameters(fn):
    """The parameters of a plain function that its body never reads."""
    node = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
    args = node.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a]
    read = {n.id for stmt in node.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [p for p in params if p not in read]


def test_every_parameter_of_a_public_function_is_read():
    unread, checked = {}, 0
    for name in l2growth.__all__:
        obj = getattr(l2growth, name)
        if inspect.isfunction(obj):
            checked += 1
            if _unread_parameters(obj):
                unread[name] = _unread_parameters(obj)
    assert unread == {}
    assert checked > 30


def test_runtime_imports_are_stdlib_numpy_scipy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy"}
    sources = sorted((REPO / "src" / "l2growth").glob("*.py"))
    assert sources
    for path in sources:
        for line, name in _imports(path):
            assert name in allowed, f"{path.name}:{line} imports {name}"


# raises of builtin exception classes per module: every refusal is an
# L2GrowthError subclass now, and a module not listed may have none either
BUILTIN_RAISES = {"exact.py": 0, "group_ring.py": 0, "groups.py": 0, "pattern.py": 0,
                  "polynomials.py": 0, "spectral.py": 0, "stripes.py": 0}


def _builtin_raises(path: Path):
    """Lines of ``raise`` statements of builtin Exception classes, abstract-method
    ``NotImplementedError`` aside."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
        name = getattr(exc.func if isinstance(exc, ast.Call) else exc, "id", None)
        cls = getattr(builtins, name or "", None)
        if (isinstance(cls, type) and issubclass(cls, Exception)
                and cls is not NotImplementedError):
            yield node.lineno


def test_builtin_raises_do_not_grow():
    sources = sorted((REPO / "src" / "l2growth").glob("*.py"))
    counts = {path.name: len(list(_builtin_raises(path))) for path in sources}
    assert set(BUILTIN_RAISES) <= set(counts)
    grown = {name: (n, BUILTIN_RAISES.get(name, 0)) for name, n in counts.items()
             if n > BUILTIN_RAISES.get(name, 0)}
    assert grown == {}, "module: (builtin raises, allowed)"


def test_imports_under_tests_are_declared_in_the_test_extra():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in requirements}
    sources = sorted((REPO / "tests").rglob("*.py"))
    local = {path.stem for path in sources}  # conftest, cyclotomic_oracle, ...
    allowed = set(sys.stdlib_module_names) | declared | local | {"l2growth"}
    for path in sources:
        for line, name in _imports(path):
            assert name in allowed, f"{path.name}:{line} imports undeclared {name}"
