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

The decoder is one walk over the file's lines.  Each distinct edge line is
parsed, and checked against the program, once per artifact (an artifact
repeats most lines across entries); each block's graph is then built straight
into the two index maps from those parsed lines, with no edge sets
(``ptg.graph_of_set_edges``).  Errors are reported deterministically: a
syntax error anywhere wins, at its first line; otherwise the first entry at
fault in [loop], [in], [out] order, its key before its graph, then the first
[pool] graph at fault that no entry reports, and within a graph the first bad
edge line in file order, its left side before its right.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import MalformedArtworkError, UnknownReferenceError
from .ir import ENTRY, EXIT, Alloc, Program, ProgramIndex
from .ptg import (
    NULL_OBJECT,
    FieldEdge,
    ObjectId,
    Placeholder,
    PointsToGraph,
    SetEdge,
    Site,
    VarEdge,
    graph_of_set_edges,
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
    idx = pool_index.get(g) if pool_index else None
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


def _pool_saving(pool: tuple[PointsToGraph, ...], uses: dict[PointsToGraph, int]) -> int:
    """Bytes ``encode`` saves by writing each graph of ``pool`` once, as
    ``gK:`` plus its edge lines under a ``[pool]`` header, and each of its
    ``uses[g]`` entries as ``= gK`` instead of as a ``= {`` ... ``}`` block
    of the same edge lines; computed without encoding."""
    saving = -len("[pool]\n")
    for k, g in enumerate(pool):
        edge_bytes = len("".join(f"  {e}\n" for e in render_edges(g)).encode("utf-8"))
        ref = len(f"g{k}")
        inline = len("{") + edge_bytes + len("}\n")
        saving += uses[g] * (inline - ref) - (ref + len(":\n") + edge_bytes)
    return saving


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

_LOOP_KEY_RE = re.compile(r"^m:([A-Za-z_][A-Za-z0-9_]*) l:([0-9]+) = (.+)$")
_METHOD_KEY_RE = re.compile(r"^m:([A-Za-z_][A-Za-z0-9_]*) = (.+)$")
_POOL_REF_RE = re.compile(r"g[0-9]+")

# (section, entry key pattern, the line that ends the section)
_SECTIONS = (
    ("loop", _LOOP_KEY_RE, "[in]"),
    ("in", _METHOD_KEY_RE, "[out]"),
    ("out", _METHOD_KEY_RE, None),
)


def _lines(data: bytes, magic: str) -> list[str]:
    """The lines of a UTF-8, newline-terminated file whose first line is
    ``magic``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedArtworkError("not valid UTF-8") from exc
    if not text.endswith("\n"):
        raise MalformedArtworkError("missing trailing newline")
    lines = text.split("\n")
    lines.pop()
    if lines[0] != magic:
        raise MalformedArtworkError(f"missing {magic} header")
    return lines


class _References:
    """Checks the variables and objects an artifact mentions against a
    program; each distinct object once per artifact."""

    def __init__(self, p: Program):
        self.methods = {m.name: m for m in p.methods}
        self.alloc_labels = {
            m.name: {s.label for s in m.body if isinstance(s.instr, Alloc)} for m in p.methods
        }
        self.objects: dict[ObjectId, str | None] = {NULL_OBJECT: None}

    def object(self, o: ObjectId) -> str | None:
        """Why ``o`` does not exist in the program, or None when it does."""
        if o in self.objects:
            return self.objects[o]
        bad = None
        if isinstance(o, Placeholder):
            m = self.methods.get(o.method)
            if m is None or o.index >= len(m.params):
                bad = f"unknown placeholder {o.method}?{o.index}"
        else:
            assert isinstance(o, Site)
            labels = self.alloc_labels.get(o.method)
            if labels is None or o.label not in labels:
                bad = f"object {o.method}:{o.label} is not an allocation site"
        self.objects[o] = bad
        return bad

    def edge(self, kind: str, edge: VarEdge | FieldEdge) -> str | None:
        """Why an edge names something the program lacks (its left side
        first), or None."""
        if kind == "var":
            v = edge[0]
            m = self.methods.get(v.method)
            if m is None or v.slot > m.var_count:
                return f"unknown variable slot {v.method}/{v.slot}"
        else:
            bad = self.object(edge[0])
            if bad is not None:
                return bad
        return self.object(edge[-1])


class _EdgeLines(dict):
    """The edge lines of one artifact, parsed: each whole line maps to its
    edge with a singleton target set (see ``ptg.graph_of_set_edges``).  An
    artifact repeats most of its edges across entries, so each distinct line
    is parsed, and checked against the program when there is one, once; a
    line that names something the program lacks is kept in ``bad`` with the
    reason."""

    def __init__(self, refs: _References | None):
        super().__init__()
        self.refs = refs
        self.bad: dict[str, str] = {}

    def __missing__(self, line: str) -> SetEdge:
        if not line.startswith("  "):
            raise MalformedArtworkError(f"expected edge line or '}}', got {line!r}")
        try:
            kind, edge = parse_edge_line(line[2:])
        except ValueError as exc:
            raise MalformedArtworkError(str(exc)) from exc
        if self.refs is not None:
            bad = self.refs.edge(kind, edge)
            if bad is not None:
                self.bad[line] = bad
        parsed = self[line] = (*edge[:-1], frozenset(edge[-1:]))  # (v, {o}) or (s, f, {t})
        return parsed

    def graph(self, lines: list[str]) -> tuple[PointsToGraph, str | None]:
        """The graph of ``lines`` and why its first bad line is bad (None
        when no line is)."""
        g = graph_of_set_edges(map(self.__getitem__, lines))
        bad = self.bad
        if bad and not bad.keys().isdisjoint(lines):
            return g, next(bad[line] for line in lines if line in bad)
        return g, None


_Value = tuple[PointsToGraph, str | None]


def _entry_value(
    lines: list[str], i: int, text: str, edges: _EdgeLines, pool: list[_Value]
) -> tuple[_Value, int]:
    """The graph an entry's ``= text`` denotes, and the index of the line
    after the entry."""
    if text == "{":
        try:
            end = lines.index("}", i)
        except ValueError:
            end = len(lines)
        value = edges.graph(lines[i:end])  # rejects the first line that is no edge
        if end == len(lines):
            raise MalformedArtworkError("unterminated graph block")
        return value, end + 1
    if _POOL_REF_RE.fullmatch(text):
        k = int(text[1:])
        if k >= len(pool):
            raise MalformedArtworkError(f"reference to undefined pool graph g{k}")
        return pool[k], i
    raise MalformedArtworkError(f"expected graph block or pool reference, got {text!r}")


def _read_artwork(data: bytes, refs: _References | None) -> tuple[Artwork, dict[tuple, str]]:
    """Parse an ART/1 file in one walk over its lines.  Returns the artwork
    and, for each entry or pool graph with a line ``refs`` rejects, why its
    first such line is bad, keyed by ``(section, entry key)`` or
    ``("pool", K)``."""
    lines = _lines(data, MAGIC)
    n = len(lines)
    edges = _EdgeLines(refs)
    i = 1
    pool: list[_Value] = []
    if i < n and lines[i] == "[pool]":
        i += 1
        while i < n and lines[i].startswith("g"):
            if lines[i] != f"g{len(pool)}:":
                raise MalformedArtworkError(f"bad pool graph header {lines[i]!r}")
            i = end = i + 1
            while end < n and lines[end].startswith("  "):
                end += 1
            pool.append(edges.graph(lines[i:end]))
            i = end

    sections: list[dict] = []
    bad: dict[tuple, str] = {}
    for name, key_re, next_header in _SECTIONS:
        if i == n:
            raise MalformedArtworkError("unexpected end of file")
        if lines[i] != f"[{name}]":
            raise MalformedArtworkError(f"expected [{name}] section")
        i += 1
        entries: dict = {}
        while i < n and lines[i] != next_header:
            m = key_re.match(lines[i])
            if m is None:
                raise MalformedArtworkError(f"bad [{name}] entry")
            key = (m.group(1), int(m.group(2))) if name == "loop" else m.group(1)
            if key in entries:
                raise MalformedArtworkError(f"duplicate {name} entry {key}")
            value, i = _entry_value(lines, i + 1, m.group(m.lastindex), edges, pool)
            entries[key], why = value
            if why is not None:
                bad[(name, key)] = why
        sections.append(entries)
    for k, (_, why) in enumerate(pool):
        if why is not None:
            bad[("pool", k)] = why
    i_loop, i_in, i_out = sections
    a = Artwork(i_loop=i_loop, i_in=i_in, i_out=i_out, dedup_pool=tuple(g for g, _ in pool) or None)
    return a, bad


def parse_artwork(data: bytes) -> Artwork:
    """Syntax-only parse of an ART/1 file (no program to validate against)."""
    return _read_artwork(data, None)[0]


def decode(data: bytes, p: Program) -> Artwork:
    """Parse and validate an artifact against a program.

    Raises MalformedArtworkError on syntax breakage and UnknownReferenceError
    when a method, slot, label, or summary key does not exist in ``p`` (an
    OUT-summary key must name a method on a call-graph cycle).  A [loop] key
    must name a statement of its method, not necessarily a loop header; the
    consumer reads only header keys and ignores the rest.  Pool graphs are
    checked too, whether or not an entry references them.  A syntax error
    anywhere wins; otherwise the first entry at fault is reported, in [loop],
    [in], [out] order, its key before its graph (a bad pool graph an entry
    references is reported through that entry), then the first bad pool
    graph as ``[pool] gK``.
    """
    a, bad = _read_artwork(data, _References(p))
    index = ProgramIndex.of(p)
    methods = index.methods

    def check_graph(section: str, key: object, where: str) -> None:
        why = bad.get((section, key))
        if why is not None:
            raise UnknownReferenceError(f"{where}: {why}")

    for name, label in a.i_loop:
        if name not in methods:
            raise UnknownReferenceError(f"[loop]: unknown method '{name}'")
        if label not in index.stmts[name]:
            raise UnknownReferenceError(f"[loop]: no statement {name}:{label}")
        check_graph("loop", (name, label), f"[loop] {name}:{label}")
    for name in a.i_in:
        if name not in methods:
            raise UnknownReferenceError(f"[in]: unknown method '{name}'")
        check_graph("in", name, f"[in] {name}")
    for name in a.i_out:
        if name not in methods:
            raise UnknownReferenceError(f"[out]: unknown method '{name}'")
        if not index.call_graph.is_recursive_method(name):
            raise UnknownReferenceError(f"[out]: method '{name}' is not recursive")
        check_graph("out", name, f"[out] {name}")
    for k in range(len(a.dedup_pool or ())):
        check_graph("pool", k, f"[pool] g{k}")
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


_DUMP_METHOD_RE = re.compile(r"\[method ([A-Za-z_][A-Za-z0-9_]*)\]")
_DUMP_POINT_RE = re.compile(r"(entry|exit|l:[0-9]+) = \{")


def parse_naive(data: bytes) -> dict[tuple[str, str], tuple[str, ...]]:
    """Parse a naive dump into {(method, point): sorted edge lines}; used by
    the structural diff."""
    lines = _lines(data, NAIVE_MAGIC)
    n = len(lines)
    out: dict[tuple[str, str], tuple[str, ...]] = {}
    method = None
    i = 1
    while i < n:
        line = lines[i]
        i += 1
        m = _DUMP_METHOD_RE.fullmatch(line)
        if m:
            method = m.group(1)
            continue
        m = _DUMP_POINT_RE.fullmatch(line)
        if m is None or method is None:
            raise MalformedArtworkError(f"bad dump line {line!r}")
        end = i
        while end < n and lines[end] != "}":
            if not lines[end].startswith("  "):
                raise MalformedArtworkError(f"bad dump edge line {lines[end]!r}")
            end += 1
        if end == n:
            raise MalformedArtworkError("unexpected end of file")
        out[(method, m.group(1))] = tuple(sorted(line[2:] for line in lines[i:end]))
        i = end + 1
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
