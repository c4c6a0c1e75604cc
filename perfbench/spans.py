"""Span tracer for the benchmark's traced run.

The tracer measures the layers of ``l2growth`` from outside: it replaces the
public functions of each module (and the timed ``CoverInstance`` methods on
the class) with wrappers that record a span per call, and puts every
original back afterwards.  Nothing under ``src/`` knows about it.

A span is ``(name, layer, start, end, parent, task)``.  A call made from
inside a span of the same layer is not recorded separately, so each layer
counts its entries, not its internal recursion (``rank_certified`` calling
``kernel_certified`` is one ``exact.rank`` call).  A layer's self time is the
duration of its spans minus the time covered by their direct child spans.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp

TASK = "task"

# -- counters ---------------------------------------------------------------
# A counter maps one finished call to {counter name: amount}.  ``before`` is
# what the layer's optional pre-call hook returned.


class Call(NamedTuple):
    tracer: "Tracer"
    name: str
    args: tuple
    kwargs: dict
    result: object
    before: object


def _shape_nnz(a) -> Tuple[int, int, int]:
    if sp.issparse(a):
        return a.shape[0], a.shape[1], int(a.nnz)
    arr = np.asarray(a)
    return arr.shape[0], arr.shape[1], int(np.count_nonzero(arr))


def _content_key(a) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    if sp.issparse(a):
        m = a.tocsr()
        h.update(repr(m.shape).encode())
        for part in (m.indptr, m.indices, m.data):
            h.update(np.ascontiguousarray(part).tobytes())
    else:
        arr = np.ascontiguousarray(np.asarray(a, dtype=np.int64))
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.digest()


def _count_rank(call: Call) -> dict:
    a = call.args[0] if call.args else call.kwargs["a"]
    nrows, ncols, nnz = _shape_nnz(a)
    rank = {"rank_certified": lambda r: r,
            "nullity_certified": lambda r: ncols - r,
            "kernel_certified": lambda r: ncols - r[0]}[call.name](call.result)
    key = _content_key(a)
    seen = call.tracer.seen_matrices
    repeat = key in seen
    seen.add(key)
    return {"entries": nrows * ncols, "nnz": nnz,
            "full_rank_calls": int(rank == min(nrows, ncols)),
            "repeat_calls": int(repeat)}


def _eig_before(args, kwargs) -> bool:
    cover, q = args[0], (args[1] if len(args) > 1 else kwargs["q"])
    # CoverInstance caches spectra; only a call that fills the cache computes
    return q not in cover._eigs


def _count_density(call: Call) -> dict:
    if call.result.members:  # density_by_quotients: one member per quotient
        return {"samples": sum(order for order, _est in call.result.members)}
    return {"samples": int(call.result.provenance.detail or 0)}


# (layer, module, function names, counter)
FUNCTION_LAYERS = [
    ("document.parse", "l2growth.document", ("parse_complex", "parse_subgroup"), None),
    ("groups.quotient", "l2growth.groups", ("quotient",),
     lambda c: {"elements": int(c.result.order)}),
    ("groups.word_metric", "l2growth.groups",
     ("short_length", "quotient_diameter", "element_order", "ball_volume"), None),
    ("group_ring.trace", "l2growth.group_ring", ("evaluate_polynomial", "gamma_trace"), None),
    ("group_ring.laplacian", "l2growth.group_ring", ("laplacian",), None),
    ("exact.rank", "l2growth.exact",
     ("rank_certified", "kernel_certified", "nullity_certified"), _count_rank),
    ("pattern.characters", "l2growth.pattern", ("betti_by_characters",),
     lambda c: {"count": int(c.result[1].lattice_size)}),
    ("pattern.exact_kernel", "l2growth.pattern", ("exact_kernel_dimension",),
     lambda c: {"useful": int(c.result > 0)}),
    ("spectral.density", "l2growth.spectral", ("density_zn", "density_by_quotients"),
     _count_density),
    ("spectral.bound", "l2growth.spectral",
     ("gap_bound", "ns_bound", "sublog_bound", "betti_bound_general",
      "eig_count_bound", "uniform_gap_exponent", "j_bound", "certify_gap"), None),
    ("cli", "l2growth.cli", ("main",), None),
]

# (layer, method name on CoverInstance, counter, pre-call hook)
METHOD_LAYERS = [
    ("covers.instantiate", "__init__",
     lambda c: {"nnz": sum(int(c.args[0].boundary(q).nnz) for q in c.args[0].cx.boundaries)},
     None),
    ("covers.eig", "eigenvalues",
     lambda c: {"flops_computed": len(c.result) ** 3 if c.before else 0}, _eig_before),
    ("covers.trace", "normalized_trace", None, None),
]

# Per-layer metrics reported by the traced run: every layer gets calls and
# self_s; these are the extra counters, with how each is reduced.
COUNTERS = {
    "groups.quotient": ("elements",),
    "covers.instantiate": ("nnz",),
    "covers.eig": ("flops_computed",),
    "exact.rank": ("entries", "nnz", "full_rank_calls", "repeat_calls"),
    "pattern.characters": ("count",),
    "spectral.density": ("samples",),
}
RATIOS = {"pattern.exact_kernel.useful_ratio": ("pattern.exact_kernel", "useful")}

LAYERS = [layer for layer, *_ in FUNCTION_LAYERS] + [layer for layer, *_ in METHOD_LAYERS]


class Tracer:
    """In-memory span recorder; spans are written out only at the end."""

    def __init__(self):
        self.spans: List[list] = []   # [name, layer, start, end, parent, task, counts]
        self._stack: List[int] = []
        self.task: Optional[int] = None
        self.seen_matrices = set()

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.task, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def begin_task(self, task_id: int) -> int:
        self.task = task_id
        self.seen_matrices = set()
        return self._open(TASK, TASK)

    def end_task(self, index: int) -> None:
        self._close(index)
        self.task = None

    def wrap(self, layer: str, fn: Callable, counter=None, before=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][1] == layer:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            index = tracer._open(fn.__qualname__, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None:
                tracer.spans[index][6] = counter(
                    Call(tracer, fn.__name__, args, kwargs, result, state))
            return result

        return wrapper

    # -- results -----------------------------------------------------------
    def layer_metrics(self) -> Dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] is not None:
                child_time[span[4]] += span[3] - span[2]
        calls = {layer: 0 for layer in LAYERS}
        self_s = {layer: 0.0 for layer in LAYERS + ["driver"]}
        counts: Dict[str, Dict[str, int]] = {layer: {} for layer in LAYERS}
        for i, (_name, layer, start, end, _parent, _task, cnt) in enumerate(self.spans):
            own = (end - start) - child_time[i]
            if layer == TASK:
                self_s["driver"] += own
                continue
            calls[layer] += 1
            self_s[layer] += own
            for key, amount in (cnt or {}).items():
                counts[layer][key] = counts[layer].get(key, 0) + amount
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            for c in COUNTERS.get(layer, ()):
                out[f"{layer}.{c}"] = counts[layer].get(c, 0)
        for name, (layer, key) in RATIOS.items():
            base = calls[layer]
            out[name] = counts[layer].get(key, 0) / base if base else 0.0
        out["driver.self_s"] = self_s["driver"]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, layer, start, end, parent, task, cnt in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start,
                                     "end": end, "parent": parent, "task": task,
                                     "counts": cnt}) + "\n")


class _Patch:
    """One replaced reference: an attribute of a module or class, or a dict slot."""

    def __init__(self, owner, key, original, replacement):
        self.owner, self.key, self.original = owner, key, original
        self.replacement = replacement

    def _is_dict(self) -> bool:
        return isinstance(self.owner, dict)

    def apply(self) -> None:
        if self._is_dict():
            self.owner[self.key] = self.replacement
        else:
            setattr(self.owner, self.key, self.replacement)

    def restore(self) -> None:
        if self._is_dict():
            self.owner[self.key] = self.original
        else:
            setattr(self.owner, self.key, self.original)

    def current(self):
        if self._is_dict():
            return self.owner[self.key]
        if isinstance(self.owner, type):
            return self.owner.__dict__[self.key]
        return getattr(self.owner, self.key)

    def describe(self) -> str:
        owner = getattr(self.owner, "__name__", type(self.owner).__name__)
        return f"{owner}.{self.key}"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "l2growth" or name.startswith("l2growth."))]


def install(tracer: Tracer) -> List[_Patch]:
    """Wrap every layer function wherever an l2growth module holds it.

    A function imported by name (``from .groups import quotient``), under an
    alias (``spectral.make_quotient``) or inside a module-level dict is found
    by identity, so every path into the layer goes through the wrapper.
    """
    from l2growth.covers import CoverInstance

    patches: List[_Patch] = []
    modules = _package_modules()
    for layer, module_name, names, counter in FUNCTION_LAYERS:
        module = sys.modules[module_name]
        for fn_name in names:
            original = getattr(module, fn_name)
            wrapper = tracer.wrap(layer, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append(_Patch(mod, key, original, wrapper))
                    elif isinstance(value, dict):
                        patches += [_Patch(value, k, original, wrapper)
                                    for k, v in value.items() if v is original]
    for layer, method, counter, before in METHOD_LAYERS:
        original = CoverInstance.__dict__[method]
        patches.append(_Patch(CoverInstance, method, original,
                              tracer.wrap(layer, original, counter, before)))
    for patch in patches:
        patch.apply()
    return patches


def uninstall(patches: List[_Patch]) -> List[str]:
    """Put every original back; return the references that are still wrong."""
    for patch in reversed(patches):
        patch.restore()
    return [p.describe() for p in patches if p.current() is not p.original]
