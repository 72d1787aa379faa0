"""The compact analysis artifact and its bit-exact text codec (format ART/1),
plus the naive whole-dump baseline encoding and size statistics.

File layout (UTF-8, LF line endings, all sections always present except the
optional pool, entries and edges sorted)::

    ART/1
    [pool]            # only when duplicated graphs are shared
    g0:
      main/0 -> main:4
    [loop]
    m:main l:5 = g0
    m:main l:9 = {
      main:1 .f-> main:3
    }
    [in]
    m:foo = {
    }
    [out]
    m:foo = g0

Decoding validates syntax and that every referenced method, slot, label, and
allocation site exists in the program; semantic tampering (structurally valid
but wrong values) is deliberately not detectable here and is the consumer's
job.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import MalformedArtworkError, UnknownReferenceError
from .ir import ENTRY, EXIT, Alloc, Program, ProgramIndex
from .ptg import (
    FieldEdge,
    NullObject,
    ObjectId,
    Placeholder,
    PointsToGraph,
    Site,
    VarEdge,
    parse_edge_line,
    render_edges,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .equations import AnalysisResult

MAGIC = "ART/1"
NAIVE_MAGIC = "NAIVE/1"


@dataclass(frozen=True)
class Artwork:
    """Three invariant maps: loop-header OUT values keyed by (method, label),
    IN summaries keyed by method, and OUT summaries of recursive methods.

    Maps always hold graphs; ``dedup_pool`` lists graphs that the encoder
    writes once and references by index.  A decoded artwork may violate
    program-level expectations only through values, never structure.
    """

    i_loop: dict[tuple[str, int], PointsToGraph]
    i_in: dict[str, PointsToGraph]
    i_out: dict[str, PointsToGraph]
    dedup_pool: tuple[PointsToGraph, ...] | None = None

    @staticmethod
    def empty() -> "Artwork":
        return Artwork(i_loop={}, i_in={}, i_out={}, dedup_pool=None)


@dataclass(frozen=True)
class ArtworkStats:
    bytes_art: int
    bytes_naive: int
    loop_entries: int
    in_entries: int
    out_entries: int
    dedup_savings: int
    bytes_art_compressed: int
    bytes_naive_compressed: int


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _graph_block(g: PointsToGraph, head: str) -> list[str]:
    lines = [head + " {"]
    lines.extend("  " + e for e in render_edges(g))
    lines.append("}")
    return lines


def _entry_lines(head: str, g: PointsToGraph, pool_index: dict[PointsToGraph, int]) -> list[str]:
    idx = pool_index.get(g)
    if idx is not None:
        return [f"{head} = g{idx}"]
    return _graph_block(g, f"{head} =")


def encode(a: Artwork) -> bytes:
    """Canonical, deterministic encoding; ``decode(encode(a), p) == a``."""
    pool_index: dict[PointsToGraph, int] = {}
    lines = [MAGIC]
    if a.dedup_pool:
        lines.append("[pool]")
        for k, g in enumerate(a.dedup_pool):
            pool_index[g] = k
            lines.append(f"g{k}:")
            lines.extend("  " + e for e in render_edges(g))
    lines.append("[loop]")
    for (method, label) in sorted(a.i_loop):
        lines.extend(_entry_lines(f"m:{method} l:{label}", a.i_loop[(method, label)], pool_index))
    lines.append("[in]")
    for method in sorted(a.i_in):
        lines.extend(_entry_lines(f"m:{method}", a.i_in[method], pool_index))
    lines.append("[out]")
    for method in sorted(a.i_out):
        lines.extend(_entry_lines(f"m:{method}", a.i_out[method], pool_index))
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

_LOOP_KEY_RE = re.compile(r"^m:([A-Za-z_][A-Za-z0-9_]*) l:([0-9]+) = (.+)$")
_METHOD_KEY_RE = re.compile(r"^m:([A-Za-z_][A-Za-z0-9_]*) = (.+)$")


class _Reader:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.i = 0
        # Parsed edge lines; an artifact repeats most of its edges across
        # entries, so each distinct line is parsed once.
        self.edges: dict[str, tuple[str, VarEdge | FieldEdge]] = {}

    def peek(self) -> str | None:
        return self.lines[self.i] if self.i < len(self.lines) else None

    def take(self) -> str:
        line = self.peek()
        if line is None:
            raise MalformedArtworkError("unexpected end of file")
        self.i += 1
        return line

    def edge(self, text: str) -> tuple[str, VarEdge | FieldEdge]:
        parsed = self.edges.get(text)
        if parsed is None:
            try:
                parsed = parse_edge_line(text)
            except ValueError as exc:
                raise MalformedArtworkError(str(exc)) from exc
            self.edges[text] = parsed
        return parsed

    def read_edges(self) -> PointsToGraph:
        """The graph of the edge lines from here up to the first line that
        is not one."""
        var_edges = set()
        field_edges = set()
        while (line := self.peek()) is not None and line.startswith("  "):
            self.i += 1
            kind, edge = self.edge(line[2:])
            (var_edges if kind == "var" else field_edges).add(edge)
        return PointsToGraph(frozenset(var_edges), frozenset(field_edges))

    def read_block_edges(self) -> PointsToGraph:
        g = self.read_edges()
        line = self.peek()
        if line is None:
            raise MalformedArtworkError("unterminated graph block")
        if line != "}":
            raise MalformedArtworkError(f"expected edge line or '}}', got {line!r}")
        self.take()
        return g


def _resolve_value(value: str, reader: _Reader, pool: list[PointsToGraph]) -> PointsToGraph:
    if value == "{":
        return reader.read_block_edges()
    if re.fullmatch(r"g[0-9]+", value):
        idx = int(value[1:])
        if idx >= len(pool):
            raise MalformedArtworkError(f"reference to undefined pool graph g{idx}")
        return pool[idx]
    raise MalformedArtworkError(f"expected graph block or pool reference, got {value!r}")


def parse_artwork(data: bytes) -> Artwork:
    """Syntax-only parse of an ART/1 file (no program to validate against)."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedArtworkError("not valid UTF-8") from exc
    if not text.endswith("\n"):
        raise MalformedArtworkError("missing trailing newline")
    reader = _Reader(text.split("\n")[:-1])
    if reader.take() != MAGIC:
        raise MalformedArtworkError(f"missing {MAGIC} header")

    pool: list[PointsToGraph] = []
    if reader.peek() == "[pool]":
        reader.take()
        while reader.peek() is not None and reader.peek().startswith("g"):
            head = reader.take()
            if head != f"g{len(pool)}:":
                raise MalformedArtworkError(f"bad pool graph header {head!r}")
            pool.append(reader.read_edges())

    if reader.take() != "[loop]":
        raise MalformedArtworkError("expected [loop] section")
    i_loop: dict[tuple[str, int], PointsToGraph] = {}
    while reader.peek() is not None and reader.peek() != "[in]":
        m = _LOOP_KEY_RE.match(reader.take())
        if m is None:
            raise MalformedArtworkError("bad [loop] entry")
        key = (m.group(1), int(m.group(2)))
        if key in i_loop:
            raise MalformedArtworkError(f"duplicate loop entry {key}")
        i_loop[key] = _resolve_value(m.group(3), reader, pool)

    if reader.take() != "[in]":
        raise MalformedArtworkError("expected [in] section")
    i_in: dict[str, PointsToGraph] = {}
    while reader.peek() is not None and reader.peek() != "[out]":
        m = _METHOD_KEY_RE.match(reader.take())
        if m is None:
            raise MalformedArtworkError("bad [in] entry")
        if m.group(1) in i_in:
            raise MalformedArtworkError(f"duplicate in entry {m.group(1)}")
        i_in[m.group(1)] = _resolve_value(m.group(2), reader, pool)

    if reader.take() != "[out]":
        raise MalformedArtworkError("expected [out] section")
    i_out: dict[str, PointsToGraph] = {}
    while reader.peek() is not None:
        m = _METHOD_KEY_RE.match(reader.take())
        if m is None:
            raise MalformedArtworkError("bad [out] entry")
        if m.group(1) in i_out:
            raise MalformedArtworkError(f"duplicate out entry {m.group(1)}")
        i_out[m.group(1)] = _resolve_value(m.group(2), reader, pool)

    return Artwork(i_loop=i_loop, i_in=i_in, i_out=i_out, dedup_pool=tuple(pool) or None)


class _References:
    """Checks the variables and objects an artifact mentions against a
    program, each distinct one once per artifact."""

    def __init__(self, index: ProgramIndex):
        self.methods = index.methods
        self.alloc_labels = {
            name: {s.label for s in m.body if isinstance(s.instr, Alloc)}
            for name, m in index.methods.items()
        }
        self.known: set[object] = set()

    def check_object(self, o: ObjectId, where: str) -> None:
        if o in self.known or isinstance(o, NullObject):
            return
        if isinstance(o, Placeholder):
            m = self.methods.get(o.method)
            if m is None or o.index >= len(m.params):
                raise UnknownReferenceError(f"{where}: unknown placeholder {o.method}?{o.index}")
        else:
            assert isinstance(o, Site)
            if o.method not in self.methods or o.label not in self.alloc_labels[o.method]:
                raise UnknownReferenceError(
                    f"{where}: object {o.method}:{o.label} is not an allocation site"
                )
        self.known.add(o)

    def check_graph(self, g: PointsToGraph, where: str) -> None:
        for v, o in g.var_edges:
            if v not in self.known:
                m = self.methods.get(v.method)
                if m is None or v.slot > m.var_count:
                    raise UnknownReferenceError(
                        f"{where}: unknown variable slot {v.method}/{v.slot}"
                    )
                self.known.add(v)
            self.check_object(o, where)
        for s, _, t in g.field_edges:
            self.check_object(s, where)
            self.check_object(t, where)


def decode(data: bytes, p: Program) -> Artwork:
    """Parse and validate an artifact against a program.

    Raises MalformedArtworkError on syntax breakage and UnknownReferenceError
    when a method, slot, label, or summary key does not exist in ``p`` (an
    OUT-summary key must name a method on a call-graph cycle).
    """
    a = parse_artwork(data)
    index = ProgramIndex.of(p)
    refs = _References(index)
    methods = refs.methods
    for (name, label), g in a.i_loop.items():
        if name not in methods:
            raise UnknownReferenceError(f"[loop]: unknown method '{name}'")
        if label not in index.stmts[name]:
            raise UnknownReferenceError(f"[loop]: no statement {name}:{label}")
        refs.check_graph(g, f"[loop] {name}:{label}")
    for name, g in a.i_in.items():
        if name not in methods:
            raise UnknownReferenceError(f"[in]: unknown method '{name}'")
        refs.check_graph(g, f"[in] {name}")
    for name, g in a.i_out.items():
        if name not in methods:
            raise UnknownReferenceError(f"[out]: unknown method '{name}'")
        if not index.call_graph.is_recursive_method(name):
            raise UnknownReferenceError(f"[out]: method '{name}' is not recursive")
        refs.check_graph(g, f"[out] {name}")
    return a


# ---------------------------------------------------------------------------
# Naive whole-dump encoding (size baseline and results-dump format)
# ---------------------------------------------------------------------------


def naive_encode(result: "AnalysisResult") -> bytes:
    """Dump the OUT value of every program point; the storage baseline the
    compact artifact is measured against, and the ``--dump-results`` format."""
    by_method: dict[str, dict] = {}
    for (name, node), g in result.out.items():
        by_method.setdefault(name, {})[node] = g
    lines = [NAIVE_MAGIC]
    for name in sorted(by_method):
        points = by_method[name]
        lines.append(f"[method {name}]")
        if ENTRY in points:
            lines.extend(_graph_block(points[ENTRY], "entry ="))
        for label in sorted(k for k in points if isinstance(k, int)):
            lines.extend(_graph_block(points[label], f"l:{label} ="))
        if EXIT in points:
            lines.extend(_graph_block(points[EXIT], "exit ="))
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_naive(data: bytes) -> dict[tuple[str, str], tuple[str, ...]]:
    """Parse a naive dump into {(method, point): sorted edge lines}; used by
    the structural diff."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedArtworkError("not valid UTF-8") from exc
    if not text.endswith("\n"):
        raise MalformedArtworkError("missing trailing newline")
    reader = _Reader(text.split("\n")[:-1])
    if reader.take() != NAIVE_MAGIC:
        raise MalformedArtworkError(f"missing {NAIVE_MAGIC} header")
    out: dict[tuple[str, str], tuple[str, ...]] = {}
    method = None
    while reader.peek() is not None:
        line = reader.take()
        m = re.fullmatch(r"\[method ([A-Za-z_][A-Za-z0-9_]*)\]", line)
        if m:
            method = m.group(1)
            continue
        m = re.fullmatch(r"(entry|exit|l:[0-9]+) = \{", line)
        if m is None or method is None:
            raise MalformedArtworkError(f"bad dump line {line!r}")
        edges = []
        while True:
            inner = reader.take()
            if inner == "}":
                break
            if not inner.startswith("  "):
                raise MalformedArtworkError(f"bad dump edge line {inner!r}")
            edges.append(inner[2:])
        out[(method, m.group(1))] = tuple(sorted(edges))
    return out


def stats(p: Program, a: Artwork, result: "AnalysisResult") -> ArtworkStats:
    """Sizes and entry counts; ``dedup_savings`` is the byte reduction the
    pool achieves over inlining every graph."""
    art_bytes = encode(a)
    naive_bytes = naive_encode(result)
    savings = 0
    if a.dedup_pool:
        unpooled = Artwork(i_loop=a.i_loop, i_in=a.i_in, i_out=a.i_out, dedup_pool=None)
        savings = len(encode(unpooled)) - len(art_bytes)
    return ArtworkStats(
        bytes_art=len(art_bytes),
        bytes_naive=len(naive_bytes),
        loop_entries=len(a.i_loop),
        in_entries=len(a.i_in),
        out_entries=len(a.i_out),
        dedup_savings=savings,
        bytes_art_compressed=len(zlib.compress(art_bytes, 9)),
        bytes_naive_compressed=len(zlib.compress(naive_bytes, 9)),
    )
