"""Span tracer that times calls into the tlsperm package from outside.

Every public function defined in a package module is wrapped at every module
binding that refers to it. Patching only the defining module would miss calls
made through ``from .linalg import as_matrix``-style imports, which bind the
function object into the importing module's namespace.

Spans are kept in flat arrays while a pass runs and aggregated or written
only after the run. A span's self time is its duration minus the time covered
by its direct children; the run is single-threaded, so children nest inside
their parent's interval.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "tlsperm"

# Package modules; each is one layer and the prefix of its span names.
LAYERS = ("model", "linalg", "tls", "estimators", "lap", "evaluation", "matio", "cli")

# Functions whose span name is shorter than "<layer>.<function>"; per-layer
# metric names in BENCHMARK.json cite these spans.
_ALIASES = {
    "tls_objective": "tls.objective",
    "tls_fit": "tls.fit",
    "solve_lap": "lap",
}


def span_name(layer: str, fname: str) -> str:
    if fname in _ALIASES:
        return _ALIASES[fname]
    if layer == "cli" and fname.startswith("write_"):
        return "cli.write"
    return f"{layer}.{fname}"


@contextmanager
def patched(replace):
    """Rebind every public function of the package modules, at every module
    binding that refers to it, to replace(layer, name, function); a None
    from replace leaves that function alone. Restores the bindings on exit."""
    replacements = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for fname, obj in vars(mod).items():
            if (not fname.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                new = replace(layer, fname, obj)
                if new is not None:
                    replacements[id(obj)] = (obj, new)
    done = []
    for modname, mod in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                done.append((mod, attr, obj))
    try:
        yield
    finally:
        for mod, attr, obj in done:
            setattr(mod, attr, obj)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, instance."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.instance = array("l")
        self.current_instance = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.instance.append(self.current_instance)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def installed(self):
        """Trace every binding of every public package function; restore on exit."""
        return patched(lambda layer, fname, fn: self._wrap(span_name(layer, fname), fn))

    def aggregate(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        n = len(self)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nid = np.frombuffer(self.name_id, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        calls = np.bincount(nid, minlength=len(self.names))
        totals = np.bincount(nid, weights=self_time, minlength=len(self.names))
        return {name: (int(calls[i]), float(totals[i])) for i, name in enumerate(self.names)}

    def write(self, path, header: str) -> None:
        """Write every span with the run header; arrays share one row per span."""
        np.savez_compressed(
            path,
            header=np.array(header),
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            instance=np.frombuffer(self.instance, dtype=np.int64),
        )
