"""Span tracing of the ringroots package, installed from outside it.

`Tracer.install` replaces every public function and method of the
package's modules with a wrapper, everywhere the package binds it: the
defining module, each module that imported the name (``existence.rank``
as well as ``linalg.rank``) and the class dictionaries (``Matrix.__mul__``).
`Tracer.remove` puts every original back.  Wrappers record nothing
unless the tracer is active, so the benchmark's own output checks,
which also call into the package, stay out of the spans.

Two kinds of wrapper exist.  A span wrapper records name, start, end,
parent and operation id into flat arrays kept in memory.  A count
wrapper only counts calls; it is used for the hottest leaf calls
(scalar arithmetic, constructors, membership checks), whose time then
counts as self time of the calling span.
"""

from __future__ import annotations

import dataclasses
import gzip
import inspect
import json
import sys
import time
from array import array

PACKAGE = "ringroots"

# Dunder methods worth a wrapper: the arithmetic and the constructors.
# Comparison, hashing and truth tests run inside dict lookups and `if`
# tests everywhere and would only add noise.
WRAPPED_DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__neg__", "__pow__",
})


def _count_only(module: str, attr: str) -> bool:
    return module == "scalars" or attr in ("__init__", "contains", "check")


def package_modules() -> list:
    """Every imported module of the package, sorted by name."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _targets(modules):
    """(span name, owner, attribute, original, count_only, kind) for every
    public function and method the package defines."""
    out = []
    for mod in modules:
        short = _short(mod.__name__)
        for name, obj in sorted(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                out.append((f"{short}.{name}", mod, name, obj,
                            _count_only(short, name), "function"))
            elif inspect.isclass(obj) and not name.startswith("_"):
                for attr, val in sorted(vars(obj).items()):
                    if attr.startswith("__"):
                        if attr not in WRAPPED_DUNDERS:
                            continue
                        if attr == "__init__" and dataclasses.is_dataclass(obj):
                            continue
                    elif attr.startswith("_"):
                        continue
                    if isinstance(val, classmethod):
                        kind = "classmethod"
                    elif isinstance(val, staticmethod):
                        kind = "staticmethod"
                    elif inspect.isfunction(val):
                        kind = "method"
                    else:
                        continue
                    out.append((f"{short}.{name}.{attr}", obj, attr, val,
                                _count_only(short, attr), kind))
    return out


def _mark(wrapper, func):
    wrapper.__wrapped__ = func
    wrapper.__name__ = func.__name__
    wrapper.__qualname__ = func.__qualname__
    wrapper.bench_wrapper = True
    return wrapper


class Tracer:
    """Wraps the package's callables and records spans while active."""

    def __init__(self, probes=None):
        # probes: span name -> callable(tracer, args, result), run after
        # the call returns, for metrics that need an argument or result.
        self.probes = dict(probes or {})
        self.active = False
        self.names: list[str] = []
        self.counts: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.facts: dict[str, float] = {}
        self._stack = [-1]
        self._op = -1
        self._op_sid = self._name_id("bench.op")
        self._installed = []

    # -- installation -------------------------------------------------

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        by_original = {}
        for span, owner, attr, original, count_only, kind in _targets(modules):
            func = original.__func__ if kind in ("classmethod", "staticmethod") else original
            sid = self._name_id(span)
            wrapper = (self._count_wrapper if count_only else self._span_wrapper)(func, sid)
            if kind == "classmethod":
                wrapper = classmethod(wrapper)
            elif kind == "staticmethod":
                wrapper = staticmethod(wrapper)
            self._bind(owner, attr, original, wrapper)
            if kind == "function":
                by_original[id(original)] = (original, wrapper)
        # Rebind names that other modules imported with `from x import f`,
        # and functions held in module-level dispatch tables.
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = by_original.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bind(mod, name, obj, hit[1])
                elif type(obj) is dict:
                    for key, val in list(obj.items()):
                        hit = by_original.get(id(val))
                        if hit is not None and hit[0] is val:
                            obj[key] = hit[1]
                            self._installed.append((obj, key, val))
        return self

    def _bind(self, owner, attr, original, wrapper):
        if vars(owner).get(attr) is original:
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._installed):
            if type(owner) is dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._installed.clear()
        self.active = False

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.counts.append(0)
        return len(self.names) - 1

    # -- wrappers -----------------------------------------------------

    def _count_wrapper(self, func, sid):
        tracer, counts = self, self.counts

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[sid] += 1
            return func(*args, **kwargs)

        return _mark(wrapper, func)

    def _span_wrapper(self, func, sid):
        tracer, now, stack = self, time.perf_counter, self._stack
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        probe = self.probes.get(self.names[sid])

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            i = len(names)
            names.append(sid)
            parents.append(stack[-1])
            ops.append(tracer._op)
            ends.append(0.0)
            stack.append(i)
            starts.append(now())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[i] = now()
                stack.pop()
            if probe is not None:
                probe(tracer, args, result)
            return result

        return _mark(wrapper, func)

    # -- recording ----------------------------------------------------

    def add_fact(self, key: str, value: float):
        """Accumulate a fact the benchmark measured itself; keys ending in
        `_max` keep the maximum, all others the sum."""
        if key.endswith("_max"):
            self.facts[key] = max(self.facts.get(key, value), value)
        else:
            self.facts[key] = self.facts.get(key, 0) + value

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as operation `op_id` under a root span."""
        sid = self._op_sid
        self._op = op_id
        i = len(self.span_name)
        self.span_name.append(sid)
        self.span_parent.append(-1)
        self.span_op.append(op_id)
        self.span_end.append(0.0)
        self._stack.append(i)
        self.active = True
        self.span_start.append(time.perf_counter())
        try:
            return fn(*args)
        finally:
            self.span_end[i] = time.perf_counter()
            self.active = False
            self._stack.pop()

    # -- analysis -----------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.
        Count-only names have calls and zero times.  Self time is a span's
        duration minus the durations of its direct children."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": self.counts[sid], "total_s": 0.0, "self_s": 0.0}
               for sid, name in enumerate(self.names)}
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
        return out

    def ops_with(self, span: str) -> set:
        """Ids of operations that contain at least one span named `span`."""
        try:
            sid = self.names.index(span)
        except ValueError:
            return set()
        return {self.span_op[i] for i in range(len(self.span_name)) if self.span_name[i] == sid}

    def total_in_ops(self, span: str, op_ids: set) -> float:
        """Inclusive seconds of spans named `span` inside the given operations."""
        try:
            sid = self.names.index(span)
        except ValueError:
            return 0.0
        return sum(self.span_end[i] - self.span_start[i]
                   for i in range(len(self.span_name))
                   if self.span_name[i] == sid and self.span_op[i] in op_ids)

    def write(self, path):
        """Write every span (name, op, parent, start, end) as gzipped JSON."""
        base = self.span_start[0] if self.span_start else 0.0
        doc = {
            "names": self.names,
            "counts": self.counts,
            "columns": ["name", "op", "parent", "start_s", "end_s"],
            "spans": [
                [self.span_name[i], self.span_op[i], self.span_parent[i],
                 round(self.span_start[i] - base, 9), round(self.span_end[i] - base, 9)]
                for i in range(len(self.span_name))
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def installed_wrappers() -> list[str]:
    """Names of benchmark wrappers still bound anywhere in the package."""
    found = []
    for mod in package_modules():
        for name, obj in vars(mod).items():
            if getattr(obj, "bench_wrapper", False):
                found.append(f"{mod.__name__}.{name}")
            if type(obj) is dict:
                found.extend(f"{mod.__name__}.{name}[{key!r}]" for key, val in obj.items()
                             if getattr(val, "bench_wrapper", False))
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, val in vars(obj).items():
                    val = getattr(val, "__func__", val)
                    if getattr(val, "bench_wrapper", False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found
