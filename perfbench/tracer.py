"""Outside-in tracer for the ``artpta`` layers.

The package binds names at import time (``producer.transfer``,
``consumer.project_in``, ``tamper.analyze_inter``, the ``artpta`` namespace
itself, ...), so wrapping a function in its defining module alone would miss
most calls.  ``Tracer.installed`` replaces every binding of each traced
function in every loaded ``artpta`` module, counts ``PointsToGraph``
constructions through its ``__post_init__``, and restores every original on
exit.  Nothing inside the package is changed on disk.

Spans are kept in flat arrays (name, parent, start, end) while the workload
runs and are aggregated or written out only afterwards.  Calls are strictly
nested on one thread, so a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterator

# (span name, defining module, attribute).  The span name's first component
# is the layer.
TRACED: tuple[tuple[str, str, str], ...] = (
    ("ir.parse_program", "artpta.ir", "parse_program"),
    ("ir.build_cfg", "artpta.ir", "build_cfg"),
    ("ir.build_call_graph", "artpta.ir", "build_call_graph"),
    ("ptg.transfer", "artpta.ptg", "transfer"),
    ("ptg.meet", "artpta.ptg", "meet"),
    ("ptg.meet_all", "artpta.ptg", "meet_all"),
    ("ptg.subsumes", "artpta.ptg", "subsumes"),
    ("ptg.project_in", "artpta.ptg", "project_in"),
    ("ptg.project_out", "artpta.ptg", "project_out"),
    ("ptg.reachable_field_edges", "artpta.ptg", "reachable_field_edges"),
    ("ptg.restrict_to_summary", "artpta.ptg", "restrict_to_summary"),
    ("producer.analyze_inter", "artpta.producer", "analyze_inter"),
    ("producer.validate_result", "artpta.producer", "validate_result"),
    ("producer.emit_artwork", "artpta.producer", "emit_artwork"),
    ("producer.optimize_artwork", "artpta.producer", "optimize_artwork"),
    ("artwork.encode", "artpta.artwork", "encode"),
    ("artwork.decode", "artpta.artwork", "decode"),
    ("consumer.regen_inter", "artpta.consumer", "regen_inter"),
    ("tamper.tamper", "artpta.tamper", "tamper"),
    ("corpus.generate_corpus", "artpta.corpus", "generate_corpus"),
)

# Per-span values kept from a call's arguments and result.
OBSERVE: dict[str, Callable[[tuple, object], object]] = {
    "producer.analyze_inter": lambda args, r: r.iteration_count,
    "consumer.regen_inter": lambda args, r: (r.transfer_applications, r.safe),
    "artwork.decode": lambda args, r: args[0].count(b"\n  "),  # edge lines parsed
    "tamper.tamper": lambda args, r: args[1].value,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.values: dict[int, object] = {}
        self.graphs_built = 0
        self._stack = [-1]

    def kind_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.kind)

    def _open(self, kid: int) -> int:
        i = len(self.kind)
        self.kind.append(kid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself, e.g. around one timed op."""
        i = self._open(self.kind_id(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        kid = self.kind_id(name)
        observe = OBSERVE.get(name)
        open_, close, values = self._open, self._close, self.values

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(kid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if observe is not None:
                values[i] = observe(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every binding of every traced function; restore on exit."""
        from artpta.ptg import PointsToGraph

        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "artpta" or n.startswith("artpta."))
        ]
        patched: list[tuple[object, str, object]] = []
        post_init = PointsToGraph.__post_init__

        def counted_post_init(graph) -> None:
            self.graphs_built += 1
            post_init(graph)

        try:
            for name, module, attr in TRACED:
                original = getattr(sys.modules[module], attr)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for key in [k for k, v in vars(m).items() if v is original]:
                        patched.append((m, key, original))
                        setattr(m, key, wrapper)
            patched.append((PointsToGraph, "__post_init__", post_init))
            PointsToGraph.__post_init__ = counted_post_init
            yield self
        finally:
            for owner, key, original in reversed(patched):
                setattr(owner, key, original)

    # -- analysis, after the run ------------------------------------------

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.start, self.end)]

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        dur = self.durations()
        child = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        names = self.names
        for i, k in enumerate(self.kind):
            name = names[k]
            calls[name] += 1
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
        return {
            n: {"calls": calls[n], "total_s": total[n] / 1e9, "self_s": own[n] / 1e9}
            for n in calls
        }

    def nearest(self, i: int, name: str) -> int:
        """Index of the closest enclosing span called ``name``, or -1."""
        kid = self._ids.get(name, -1)
        p = self.parent[i]
        while p >= 0 and self.kind[p] != kid:
            p = self.parent[p]
        return p

    def indices(self, name: str) -> list[int]:
        kid = self._ids.get(name, -1)
        return [i for i, k in enumerate(self.kind) if k == kid]

    def write(self, path: str) -> None:
        """One line per span: id, parent, name, start ns, end ns, value."""
        names, values = self.names, self.values
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\tname\tstart_ns\tend_ns\tvalue\n")
            for i, (k, p, s, e) in enumerate(zip(self.kind, self.parent, self.start, self.end)):
                f.write(f"{i}\t{p}\t{names[k]}\t{s}\t{e}\t{values.get(i, '')}\n")
