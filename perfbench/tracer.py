"""Span tracer that wraps a package's public functions at every import site.

`Tracer.install` replaces each public function and method defined in the
named modules with a wrapper that records a span. Because `from .x import f`
copies the binding, a function is patched in every loaded module of the
package that binds it (its own module, importers, the package root), so a
call is traced whichever name it goes through. `Tracer.uninstall` puts every
original object back and `find_wrapped` proves it by identity.

Spans are lists `[name, start_ns, end_ns, parent_index, request]` kept in
memory; `write_spans` writes them out once, when the run ends.
"""

import functools
import gzip
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

OBSERVE = "trace.observe"  # time spent in observers, kept out of the caller's self time


def public_targets(package: str, modules) -> list:
    """(span name, owner, attribute, function) for every public function and
    plain method defined in `package.<module>` for each named module."""
    targets = []
    for short in modules:
        mod = importlib.import_module(f"{package}.{short}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                targets.append((f"{short}.{name}", mod, name, obj))
            elif inspect.isclass(obj):
                for mname, meth in vars(obj).items():
                    if not mname.startswith("_") and inspect.isfunction(meth):
                        targets.append((f"{short}.{obj.__name__}.{mname}", obj, mname, meth))
    return targets


def _package_modules(package: str) -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def find_wrapped(package: str) -> list:
    """Every (module or class, attribute) of the package still bound to a wrapper."""
    found = []
    for mod in _package_modules(package):
        for attr, val in list(vars(mod).items()):
            if hasattr(val, "__traced__"):
                found.append((mod.__name__, attr))
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                found += [
                    (f"{mod.__name__}.{val.__name__}", m)
                    for m, v in vars(val).items() if hasattr(v, "__traced__")
                ]
    return found


class Tracer:
    """Records spans for calls into a package's public functions.

    observers maps a span name to fn(args, kwargs, result, span); it runs
    after the call returns, for counters measured where the work happens.
    Its own time is recorded as an OBSERVE child of the caller's span.
    """

    def __init__(self, package: str, modules, observers=None):
        self.package = package
        self.modules = list(modules)
        self.observers = dict(observers or {})
        self.spans: list = []
        self.request = None  # id of the current request or step, set by the caller
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        targets = public_targets(self.package, self.modules)
        functions = {}
        for span_name, owner, attr, fn in targets:
            wrapper = self._wrap(span_name, fn)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                functions[id(fn)] = (fn, wrapper)
        for mod in _package_modules(self.package):
            for attr, val in list(vars(mod).items()):
                hit = functions.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def patched_sites(self) -> list:
        """(module or class, attribute, original function) for every patch."""
        return list(self._patches)

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observer = self.observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observer is not None:
                start = clock()
                observer(args, kwargs, result, span)
                spans.append([OBSERVE, start, clock(), span[3], self.request])
            return result

        wrapper.__traced__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            yield span
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()


def self_times(spans) -> list:
    """Per span: its duration minus the part of it covered by its children (ns)."""
    children = [[] for _ in spans]
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        covered, cursor = 0, start
        for k_start, k_end in sorted(kids):
            k_start, k_end = max(k_start, cursor), min(k_end, end)
            if k_end > k_start:
                covered += k_end - k_start
                cursor = k_end
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict:
    """name -> {"calls", "self_ns", "total_ns"} over all spans."""
    out: dict = {}
    for span, self_ns in zip(spans, self_times(spans)):
        row = out.setdefault(span[0], {"calls": 0, "self_ns": 0, "total_ns": 0})
        row["calls"] += 1
        row["self_ns"] += self_ns
        row["total_ns"] += span[2] - span[1]
    return out


def write_spans(spans, path) -> None:
    """Gzipped, tab-separated: index, name, start_ns, end_ns, parent index, request."""
    with gzip.open(path, "wt", compresslevel=1) as f:
        f.write("index\tname\tstart_ns\tend_ns\tparent\trequest\n")
        for i, (name, start, end, parent, request) in enumerate(spans):
            f.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{request}\n")
