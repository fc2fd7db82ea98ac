"""Spans around wfcheck's public functions, installed from outside the package.

``Tracer.install()`` replaces each function named in ``LAYER_FUNCTIONS`` by a
wrapper on its module; ``uninstall()`` puts the originals back.  wfcheck's
modules call each other through module attributes (``qcore.project``,
``it.exact_joint``, ``checks.parity_search``), so nested calls are traced
too and every span knows the span that caused it.

A span is ``[name, start, end, parent, item]``; spans stay in memory and are
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYER_FUNCTIONS = {
    "scenario": ("parse", "validate", "dumps"),
    "interpret": ("exact_joint", "run", "sample_tallies", "predicted_distribution", "perspective"),
    "qcore": ("project", "born_distribution", "apply_local", "build_premeasurement",
              "lifted_basis", "partial_trace", "tensor", "schmidt"),
    "checks": ("ghz_check", "epr_correlation_check", "cpl_probability_check", "parity_search"),
    "cli": ("main",),
}
LAYERS = tuple(LAYER_FUNCTIONS)

# kernel calls whose first argument is the state they read
STATE_READERS = frozenset({"qcore.project", "qcore.born_distribution", "qcore.apply_local"})

# points an outermost interpret call delivers: table rows, or one sampled history
POINTS = {
    "interpret.exact_joint": len,
    "interpret.sample_tallies": len,
    "interpret.predicted_distribution": len,
    "interpret.run": lambda _: 1,
    "interpret.perspective": lambda _: 1,
}


class Tracer:
    def __init__(self, modules: dict):
        self._modules = modules
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = None
        self.origin = perf_counter()

    def install(self) -> None:
        for layer, names in LAYER_FUNCTIONS.items():
            module = self._modules[layer]
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    self._originals.append((module, name, fn))
                    setattr(module, name, self._wrap(f"{layer}.{name}", fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()

    def _outermost(self, layer: str, parent: int) -> bool:
        while parent >= 0:
            span = self.spans[parent]
            if span[0].startswith(layer + "."):
                return False
            parent = span[3]
        return True

    def _wrap(self, name: str, fn):
        layer = name.partition(".")[0]
        reads_state = name in STATE_READERS
        points = POINTS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.item]
            stack.append(len(spans))
            spans.append(span)
            if reads_state and args:
                counts["qcore.state_bytes"] += args[0].amplitudes.nbytes
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if points is not None and self._outermost(layer, parent):
                counts["interpret.points"] += points(result)
            return result

        return traced

    def summarize(self, first: int, last: int) -> dict[str, float]:
        """Calls, milliseconds and per-layer self milliseconds of spans[first:last]."""
        covered: Counter = Counter()
        for span in self.spans[first:last]:
            if span[3] >= first:
                covered[span[3]] += span[2] - span[1]
        out: Counter = Counter()
        for index in range(first, last):
            name, start, end, _, _ = self.spans[index]
            out[f"{name}.calls"] += 1
            out[f"{name}.ms"] += (end - start) * 1e3
            out[f"{name.partition('.')[0]}.self_ms"] += (end - start - covered[index]) * 1e3
        return dict(out)

    def write(self, path: Path) -> None:
        """One line per span: id, name, start and end in microseconds since the
        tracer was made, parent id (-1 for none) and the item it belongs to."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart_us\tend_us\tparent\titem\n")
            for index, (name, start, end, parent, item) in enumerate(self.spans):
                handle.write(f"{index}\t{name}\t{(start - self.origin) * 1e6:.1f}\t"
                             f"{(end - self.origin) * 1e6:.1f}\t{parent}\t{item}\n")
