"""Span tracing for traced benchmark runs, done entirely from the benchmark side.

While a traced operation runs, the public functions of the layer modules
are swapped for timing wrappers and every ``GameDomain`` handed to
``engine`` is wrapped in a proxy; the benchmark also opens spans around its
own calls into ``engine`` and ``domains``.  An untraced run installs none of
this.

Each span has a name (``layer.function``), a start, an end and a parent.
Spans are kept in memory in flat arrays and written out at the end of the
run.  Aggregates are folded in as each span closes, so no second pass over
millions of spans is needed:

* per span name: the number of calls, and the inclusive time of the calls
  not nested directly inside a call of the same name;
* per layer: self time (span time minus the time of its child spans) and
  the inclusive time of the layer's outermost spans (those whose parent
  belongs to another layer, or that have no parent);
* a few size probes on results (word length, matrix entry bits, braid length).
"""

from __future__ import annotations

import array
import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable

# Modules whose public functions are wrapped, by short layer name.
LAYER_MODULES = ("pcp", "automata", "freegroup", "wordgames", "matrices", "braids")


def _max_entry_bits(m) -> int:
    return max(abs(x).bit_length() for row in m for x in row)


# Size probes on the result of a wrapped function: span name -> (probe key, size function).
SIZE_PROBES: dict[str, tuple[str, Callable[[Any], int]]] = {
    "freegroup.concat": ("freegroup.max_word_len", lambda w: len(w.letters)),
    "matrices.mat_mul": ("matrices.max_entry_bits", _max_entry_bits),
    "braids.concat": ("braids.max_len", lambda b: len(b.letters)),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._layer_of: list[str] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self.reset()

    # --- recording ---

    def reset(self) -> None:
        """Drop every recorded span and aggregate (span names stay registered)."""
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.calls = [0] * len(self.names)
        self.incl = [0.0] * len(self.names)
        self.layer_self: dict[str, float] = {}
        self.layer_incl: dict[str, float] = {}
        self.maxima: dict[str, int] = {}
        self._stack: list[list] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self._layer_of.append(name.split(".", 1)[0])
            self.calls.append(0)
            self.incl.append(0.0)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A callable that records one span named ``name`` around each call of ``fn``."""
        nid = self._id(name)
        layer = self._layer_of[nid]
        probe = SIZE_PROBES.get(name)
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][1] if stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [nid, idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
                tracer.calls[nid] += 1
                tracer.layer_self[layer] = tracer.layer_self.get(layer, 0.0) + dur - frame[2]
                if stack:
                    parent = stack[-1]
                    parent[2] += dur
                    if parent[0] != nid:
                        tracer.incl[nid] += dur
                    if tracer._layer_of[parent[0]] != layer:
                        tracer.layer_incl[layer] = tracer.layer_incl.get(layer, 0.0) + dur
                else:
                    tracer.incl[nid] += dur
                    tracer.layer_incl[layer] = tracer.layer_incl.get(layer, 0.0) + dur
            if probe is not None:
                key, size = probe
                value = size(result)
                if value > tracer.maxima.get(key, 0):
                    tracer.maxima[key] = value
            return result

        return traced

    def call(self, name: str, fn: Callable, *args):
        return self.wrap(name, fn)(*args)

    def domain(self, domain) -> "TracedDomain":
        return TracedDomain(domain, self)

    # --- module patching ---

    def prepare(self, modules: dict[str, Any]) -> None:
        """Build the wrappers for every public function of the given layer modules."""
        for layer, module in modules.items():
            for attr, obj in sorted(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    self._patches.append((module, attr, obj, self.wrap(f"{layer}.{attr}", obj)))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    # --- reading the aggregates ---

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.incl[nid]

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the four raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": [
                ["name", self.span_name.typecode],
                ["parent", self.span_parent.typecode],
                ["start", self.span_start.typecode],
                ["end", self.span_end.typecode],
            ],
            "byteorder": "native",
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(out)


class TracedDomain:
    """A GameDomain proxy whose apply/is_target/canonical_key record spans.

    Any other attribute is forwarded, so that an optional domain hook the
    engine looks for is seen the same way in traced and untraced runs.
    """

    def __init__(self, domain, tracer: Tracer) -> None:
        self._domain = domain
        self.name = domain.name
        self.initial_config = domain.initial_config
        self.move_count = domain.move_count
        self.move_label = domain.move_label
        self.apply = tracer.wrap("domains.apply", domain.apply)
        self.is_target = tracer.wrap("domains.is_target", domain.is_target)
        self.canonical_key = tracer.wrap("domains.canonical_key", domain.canonical_key)

    def __getattr__(self, attr: str):
        return getattr(self._domain, attr)
