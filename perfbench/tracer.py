"""Span tracer that wraps the public functions of the dmdc modules.

The tracer lives entirely in the benchmark: it replaces each public
module-level function of a traced module with a timing wrapper, both on
the module itself and in every ``dmdc`` namespace that imported the
function by name (``from .rom import transfer_singular_values`` in
``dmdc.cli``, the re-exports in ``dmdc/__init__``). The program's source
is not touched.

A wrapper records a span only while a root span opened by the benchmark
is active, so correctness checks that call the library between passes
are not traced. Spans are kept in memory and summarised per root span.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# The layers of the program, one per module. Functions of a module that
# is not listed here get no span, so their time counts to the caller's
# layer and the self times still sum to the root span.
LAYERS = ("cli", "io", "linalg", "dmd", "dmdc", "rom", "synth")


@dataclass(eq=False)
class Span:
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _rom_frequencies(result) -> int:
    """Frequencies one rom response call evaluated, read from its result.

    ``transfer_singular_values`` returns one row of singular values per
    frequency (a 1-D array for a scalar frequency); ``frequency_response``
    returns a curve carrying its frequency grid.
    """
    omegas = getattr(result, "omegas", None)
    if omegas is not None:
        return int(omegas.size)
    shape = getattr(result, "shape", ())
    return 1 if len(shape) <= 1 else int(shape[0])


# Counts taken at a function's boundary: span name -> (counter, amount).
# A count is taken only on a span whose parent is in another layer, so a
# rom function that calls another rom function is not counted twice.
COUNTERS = {
    "io.read_matrix_csv": ("io.csv_cells_read", lambda r: int(r.size)),
    "linalg.truncated_svd": ("linalg.svd_calls", lambda r: 1),
    "linalg.numerical_rank": ("linalg.svd_calls", lambda r: 1),
    "rom.transfer_singular_values": ("rom.frequencies_evaluated", _rom_frequencies),
    "rom.frequency_response": ("rom.frequencies_evaluated", _rom_frequencies),
}


class Tracer:
    """Records spans of wrapped dmdc functions under benchmark root spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration
        return span

    @contextmanager
    def span(self, name: str, layer: str):
        """Open a span around the block; a span with no parent is a root."""
        idx = self._open(name, layer)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        counter = COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            parent_layer = tracer.spans[tracer._stack[-1]].layer
            idx = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None and parent_layer != layer:
                tracer.spans[idx].count = counter[1](result)
            return result

        for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
            setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every traced ``dmdc`` module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            modname = f"dmdc.{layer}"
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == modname
                ):
                    wrappers[id(obj)] = (obj, self._wrap(layer, obj))
        for modname, ns in list(sys.modules.items()):
            if modname != "dmdc" and not modname.startswith("dmdc."):
                continue
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])

    def uninstall(self) -> None:
        """Put every original function back where it was found."""
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    def summary(self, root: Span) -> "SpanSummary":
        """Summarise the spans opened under the closed root span ``root``."""
        first = next(i for i in range(len(self.spans) - 1, -1, -1)
                     if self.spans[i] is root)
        spans = [root]
        for span in self.spans[first + 1:]:
            if span.parent is None:
                break
            spans.append(span)
        return SpanSummary(self, spans)


@dataclass
class SpanSummary:
    """Figures derived from one root span and the spans under it."""

    tracer: Tracer
    spans: list[Span]

    @property
    def total_s(self) -> float:
        return self.spans[0].duration

    def _parent_layer(self, span: Span) -> str | None:
        return None if span.parent is None else self.tracer.spans[span.parent].layer

    def self_by_layer(self) -> dict[str, float]:
        """Self time per layer; the values sum to the root's duration."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.layer] = out.get(span.layer, 0.0) + span.self_s
        return out

    def by_name(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def by_layer(self, layer: str) -> float:
        """Time inside ``layer``, counting each entry from another layer once."""
        return sum(
            s.duration for s in self.spans
            if s.layer == layer and self._parent_layer(s) != layer
        )

    def counts(self) -> dict[str, int]:
        out = {key: 0 for key, _ in COUNTERS.values()}
        for span in self.spans:
            if span.name in COUNTERS:
                key = COUNTERS[span.name][0]
                out[key] += span.count
        return out
