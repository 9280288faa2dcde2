"""Outside-in span recorder for the approxk layers.

`Recorder.install()` replaces every public function of each layer module,
and the public methods of the classes in `CLASSES`, with a wrapper that
records one span per call: (name, start_ns, end_ns, parent index, operand
shape, attributes).  Names imported elsewhere with `from .x import y`, and
function values held in module-level dicts (the CLI's check table), are
rebound too, so a call reaches the wrapper whichever module makes it.
Nothing under `src/` changes; `uninstall()` puts every original back.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over the spans named after it.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import inspect
import json
import sys
import time

import numpy as np

# every module of the package that does work; `scenarios` only builds inputs
# but is wrapped so its time is not charged to the caller
LAYERS = ("matcore", "subalg", "wedderburn", "funcalc", "loops", "ops",
          "boundary", "kprod", "cli", "scenarios")
CLASSES = {
    "subalg": ("Subspace", "Subalg"),
    "boundary": ("MatrixSide", "LoopSide"),
    "loops": ("LoopElem",),
}
# operators count as public methods; they are named without underscores
OPERATORS = {"__init__": "init", "__matmul__": "matmul", "__add__": "add",
             "__sub__": "sub", "__rmul__": "rmul", "__neg__": "neg"}
BOOKKEEPING = "trace.bookkeeping"

_now = time.perf_counter_ns


def _digest(alg) -> bytes:
    """Content key of a subalgebra: its ambient size and orthonormal basis."""
    basis = np.ascontiguousarray(np.asarray(alg.basis, dtype=complex))
    h = hashlib.blake2b(basis.tobytes(), digest_size=16)
    h.update(str(alg.ambient_dim).encode())
    return h.digest()


def _intersect_key(bound, result):
    a = bound.arguments
    return (_digest(a["s"]), _digest(a["t"]), a.get("tol"))


def _decompose_key(bound, result):
    a = bound.arguments
    return (_digest(a["s"]), a.get("tol"), a.get("seed"))


def _rounding_method(bound, result):
    return result[1].method


def _t_steps(bound, result):
    return result.t_steps


# attributes read from a call's arguments or result, by span name
HOOKS = {
    "subalg.intersect": _intersect_key,
    "wedderburn.decompose": _decompose_key,
    "funcalc.riesz_idempotent": _rounding_method,
    "boundary.whitehead_split": _t_steps,
}


class Recorder:
    """Span store plus the patching that feeds it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._shaped: tuple = ()

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("recorder already installed")
        loops = importlib.import_module("approxk.loops")
        subalg = importlib.import_module("approxk.subalg")
        self._shaped = (loops.LoopElem, subalg.Subspace)
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"approxk.{layer}")
            for name, obj in list(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
            for cname in CLASSES.get(layer, ()):
                cls = getattr(mod, cname, None)
                if cls is not None:
                    self._wrap_class(cls, f"{layer}.{cname}")
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "approxk" and not mod_name.startswith("approxk."):
                continue
            for name, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._undo.append((mod, name, val, "attr"))
                    setattr(mod, name, wrappers[val])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._undo.append((val, key, item, "item"))
                            val[key] = wrappers[item]

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, obj in list(vars(cls).items()):
            label = OPERATORS.get(attr, None if attr.startswith("_") else attr)
            if label is None:
                continue
            if isinstance(obj, classmethod):
                new = classmethod(self._wrap(obj.__func__, f"{prefix}.{label}"))
            elif inspect.isfunction(obj):
                new = self._wrap(obj, f"{prefix}.{label}")
            else:
                continue  # properties and plain attributes stay as they are
            self._undo.append((cls, attr, obj, "attr"))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for target, key, original, kind in reversed(self._undo):
            if kind == "attr":
                setattr(target, key, original)
            else:
                target[key] = original
        self._undo.clear()

    def _shape(self, args):
        loop_elem, subspace = self._shaped
        for a in args[:2]:
            if type(a) is np.ndarray:
                return a.shape
            try:  # `self` of an __init__ has no fields yet
                if isinstance(a, loop_elem):
                    return a.samples.shape
                if isinstance(a, subspace):
                    return (a.ambient_dim, a.ambient_dim, a.dim)
            except AttributeError:
                continue
        return None

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        shape = self._shape
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, shape(args), None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _now()
                stack.pop()
            if hook is not None:
                # charged to a span of its own so no layer's self time grows
                t0 = _now()
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[5] = hook(bound, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    span[5] = None  # the call's signature or result changed
                spans.append([BOOKKEEPING, t0, _now(), span[3], None, None])
            return result

        return wrapper

    # -- output -----------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-name calls, inclusive and self nanoseconds, and attributes."""
        spans = self.spans
        child = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        by_name: dict[str, dict] = {}
        for i, s in enumerate(spans):
            agg = by_name.get(s[0])
            if agg is None:
                agg = by_name[s[0]] = {"calls": 0, "total_ns": 0, "self_ns": 0,
                                       "attrs": []}
            dur = s[2] - s[1]
            agg["calls"] += 1
            agg["total_ns"] += dur
            agg["self_ns"] += dur - child[i]
            if s[5] is not None:
                agg["attrs"].append(s[5])
        return by_name

    def span_cache_builds(self) -> tuple[int, int]:
        """(calls, calls that built a basis) of `MatrixSide.span_for`: a call
        built one when a `Subspace` was constructed anywhere beneath it."""
        spans = self.spans
        calls = sum(1 for s in spans if s[0] == "boundary.MatrixSide.span_for")
        built = set()
        for s in spans:
            if s[0] != "subalg.Subspace.init":
                continue
            p = s[3]
            while p >= 0:
                if spans[p][0] == "boundary.MatrixSide.span_for":
                    built.add(p)
                p = spans[p][3]
        return calls, len(built)

    def write(self, path: str, meta: dict) -> None:
        """Write every span as gzipped JSON: names are interned, times are
        nanoseconds from the first span's start."""
        names: dict[str, int] = {}
        base = self.spans[0][1] if self.spans else 0
        rows = []
        for s in self.spans:
            idx = names.setdefault(s[0], len(names))
            rows.append([idx, s[1] - base, s[2] - base, s[3],
                         list(s[4]) if s[4] is not None else None])
        doc = dict(meta, names=list(names), fields=[
            "name", "start_ns", "end_ns", "parent", "shape"], spans=rows)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
