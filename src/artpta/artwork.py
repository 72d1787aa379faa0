"""The compact analysis artifact and its bit-exact text codec (format ART/5),
plus the naive whole-dump baseline encoding and size statistics.

File layout (UTF-8, LF line endings, all sections always present, entries
sorted)::

    ART/5
    [loop]
    main:5 {
      /0 :4 :9
      /1 :4
      :4 .f :9 null
    }
    main:9 ^
    - /1 :4
    + /1 :9 null
    [in]
    foo {
      main:1 .f main:3
    }
    [out]
    foo ^

An entry header is its key, then ``{`` or ``^``: ``M:L`` for the loop
header at label L of method M, and ``M`` for the IN or OUT summary of M. A
``[loop]`` entry holds what the loop adds at its header: the consumer
applies the header's flow equation ``f_h`` to the header's forward meet
``F`` (``equations.forward_in``), which it has computed when it reaches the
header, and the header's OUT is ``meet(f_h(F), entry)``.  Emission writes
the header's fixed-point OUT less ``f_h(F)``, which every fixed point's OUT
holds, ``f_h`` being monotone; a deleted entry reads as the empty graph.
The codec does not read this meaning: decode builds a ``[loop]`` entry as a
plain graph, as it builds every other.  Each edge line is one binding of a
graph, with no arrow: a variable and all its targets, or an object, a field
token ``.f`` and all its targets; a key with a ``/`` is a variable.  Inside
an entry of method M, an identifier of M is written without M's name: a
variable slot as ``/k``, an allocation site as ``:label`` and a placeholder
as ``?i``.  Every other identifier keeps its full text (``main:1`` in an
entry of ``foo``, and the previous entry's variables in an edit across
methods), as does ``null``; the full text of an identifier of M is also
read, as the same identifier.  Targets and lines are sorted by their full
text, as ``render_edges`` sorts them.  The syntax is ``ART/4``'s; only the
meaning of a ``[loop]`` entry changed, from the header's whole OUT to what
the loop adds to ``f_h(F)``.  A block writes each binding once, variables
first, each group sorted.  An entry written ``^`` holds the value of the
entry before it in file order, across section headers, with the targets of
each ``- `` line removed from its key and those of each ``+ `` line added;
with no such lines it is the same graph.  The first entry cannot be one.
``encode`` writes the ``- `` lines first, one per key, then the ``+ ``
lines, each group sorted.  A line has at least one target and names none
twice (``main:1`` and ``:1`` in an entry of ``main`` are one target).  A
field name is an ASCII identifier, ``[A-Za-z_][A-Za-z0-9_]*``; a line with
any other is a syntax error, whichever path below reads it, and so is an
arrow.  Only spaces (U+0020) separate a line's tokens: a tab, ``\\x1c`` or
any other whitespace between two tokens is a syntax error too.  There is no
reader for ``ART/4``, ``ART/3``, ``ART/2`` or ``ART/1``, the formats this
one replaced.

Decoding validates syntax and that every referenced method, slot, label, and
allocation site exists in the program; semantic tampering (structurally valid
but wrong values) is deliberately not detectable here and is the consumer's
job.  An edit line that removes a target its key's value lacks, or adds one
it has, is a syntax error: decode applies the edit lines in order, and each
of their targets must change the value.

The encoder writes each entry's lines in full text with ``ptg.render_block``
or ``ptg.render_edits``, which keep nothing between calls (an edit entry's
``- `` lines are the bindings of ``ptg.difference(previous, g)``, and its
``+ `` lines those of ``ptg.difference(g, previous)``), then drops the
entry's method name from them, a text replacement that every token allows
because each is written after a space.  The decoder is one walk over the
file's lines.  An artifact repeats most binding lines across entries, so
each distinct line of an entry of method M is parsed once per artifact into
its key and one set of its targets, and every side is looked up in the
table an entry of M reads by: the program's identifiers keyed by full
text, plus those of M keyed by scoped text
(``ir.identifier_tables``, built once per ``decode`` call; a line written as
the table renders its sides is looked up by its text, unparsed).  A side
the table lacks is a reference the program does not have, and a side it
holds is replaced by the table's own object, so a decoded artifact holds
one object per identifier.  Every graph is then built by ``ptg.edited``,
which stores a line's set as it is: a block's as the empty graph with its
lines added, an edit entry's as the previous entry's graph with its lines
applied in order, so what it does not edit stays shared.  Edit lines are
checked target by target against one running map, from each key of the
previous entry's value to its targets.  Once an entry is at fault, no more
graphs are built, so the work stays linear in the file however many
entries it holds.  Errors are reported deterministically: a syntax error
anywhere wins, at its first line; otherwise the first entry at fault in
[loop], [in], [out] order, its key before its graph, and within a graph the
first bad line in file order, its key before its targets and its targets in
line order.  File order is the check order, so a bad line is reported at
the first entry that holds it, never at a ``^`` after it.  A syntax error
quotes the line as written; an unknown reference, and an edit that removes
an absent edge or adds a present one, name each identifier in full
(``unknown variable slot main/9``).
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from .errors import MalformedArtworkError, UnknownReferenceError
from .ir import (
    ENTRY,
    EXIT,
    Identifier,
    Placeholder,
    Program,
    ProgramIndex,
    VarId,
    gc_paused,
    identifier_tables,
)
from .ptg import (
    EMPTY,
    NULL_OBJECT,
    Objects,
    PointsToGraph,
    SetEdge,
    edited,
    parse_binding_line,
    render_block,
    render_edge,
    render_edges,
    render_edits,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .equations import AnalysisResult

MAGIC = "ART/5"
NAIVE_MAGIC = "NAIVE/1"


@dataclass(frozen=True)
class Artwork:
    """Three invariant maps: what each loop adds at its header, keyed by
    (method, label) (see the module docstring), IN summaries keyed by
    method, and OUT summaries of recursive methods.

    The maps are the whole value: which entries are written ``^``, with
    or without edits, is ``encode``'s rule, so equal maps always have the
    same bytes.  A decoded
    artwork may violate program-level expectations only through values,
    never structure.

    ``fixed_point``, set only by ``producer.emit_artwork``, is the validated
    result the maps were written from, and it keeps every value of that
    result alive; ``written`` is what emission wrote from it: the program,
    then per map one tuple of its keys and values, interleaved in order.
    Neither is part of the value: equality and ``repr`` skip them and
    ``dataclasses.replace`` drops them.
    """

    i_loop: dict[tuple[str, int], PointsToGraph]
    i_in: dict[str, PointsToGraph]
    i_out: dict[str, PointsToGraph]
    fixed_point: AnalysisResult | None = field(default=None, init=False, repr=False, compare=False)
    written: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def empty() -> "Artwork":
        return Artwork(i_loop={}, i_in={}, i_out={})


@dataclass(frozen=True)
class ArtworkStats:
    bytes_art: int
    bytes_naive: int
    loop_entries: int
    in_entries: int
    out_entries: int
    bytes_art_compressed: int
    bytes_naive_compressed: int


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


@gc_paused
def encode(a: Artwork) -> bytes:
    """Canonical, deterministic encoding: the bytes are a function of the
    three maps alone, and ``decode(encode(a), p) == a``.  Each entry after
    the first is written ``^`` followed by its edits from the previous
    entry, in file order across sections, when those are no more lines than
    the entry has bindings (so at least one line fewer than its block);
    every other entry is written as its block.  An entry equal to the
    previous one is a bare ``^``.  Lines are written by
    ``ptg.render_block`` and ``ptg.render_edits`` in full text, then scoped
    to the entry's method."""
    chunks = [MAGIC + "\n"]
    prev = None
    for header, entries in (
        ("[loop]", [(m, f"{m}:{l}", g) for (m, l), g in sorted(a.i_loop.items())]),
        ("[in]", [(m, m, g) for m, g in sorted(a.i_in.items())]),
        ("[out]", [(m, m, g) for m, g in sorted(a.i_out.items())]),
    ):
        chunks.append(header + "\n")
        for method, head, g in entries:
            edits = None if prev is None else render_edits(prev, g)
            if edits is None:
                chunks.append(f"{head} {{\n{_scoped(render_block(g), method)}}}\n")
            else:
                chunks.append(f"{head} ^\n{_scoped(edits, method)}")
            prev = g
    return "".join(chunks).encode("utf-8")


def _scoped(lines: str, method: str) -> str:
    """Edge lines of an entry of ``method`` with that name dropped from each
    of its identifiers: every token is written after a space, and a method
    name holds no ``/``, ``:`` or ``?``."""
    return lines.replace(f" {method}/", " /").replace(f" {method}:", " :").replace(f" {method}?", " ?")


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

_LOOP_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):([0-9]+) (.+)$")
_METHOD_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*) (.+)$")

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


def _unknown(o: Identifier) -> str:
    """Why an identifier the program lacks is bad, by its type."""
    if isinstance(o, VarId):
        return f"unknown variable slot {o.method}/{o.slot}"
    if isinstance(o, Placeholder):
        return f"unknown placeholder {o.method}?{o.index}"
    return f"object {o.method}:{o.label} is not an allocation site"


class _Table(dict):
    """What an entry of one method looks its lines up in: the method's own
    identifiers by scoped text (``/0``, ``:1``, ``?0``), and on a miss
    whatever ``ids`` holds (a full text, or an identifier by value), kept
    once found.  ``table[key]`` is None for a key neither holds.  It holds
    what the file names, so a decode of many entry methods costs no copy of
    ``ids`` per method."""

    def __init__(self, own: dict, ids: dict):
        super().__init__(own)
        self.ids = ids

    def __missing__(self, key):
        found = self.ids.get(key)
        if found is not None:
            self[key] = found
        return found


class _EdgeLines(dict):
    """The edge lines of the entries of method ``scope`` in one artifact,
    parsed: each whole line, with its two-space indent, maps to ``(key,
    objs, edge)``: its key (a variable ``v``, or ``(s, f)``), its targets in
    one frozenset, and the two as the edge ``(v, objs)`` or ``(s, f,
    objs)`` that ``ptg.edited`` takes and stores as it is.  A scoped
    identifier (``/0``, ``:1``, ``?0``) is one of ``scope``.  An artifact
    repeats most of its lines across entries, so each distinct (scope,
    line) is parsed once and its set is shared by every graph that holds
    the binding.  When there is a program, every side of the line is
    replaced by its entry in ``ids``, the table an entry of ``scope`` reads
    by (see ``decode``), so equal identifiers are one object: a line
    written as the table renders its sides is looked up by text, any other
    is parsed and looked up by value.  A line with a side the table lacks
    is kept in ``bad`` with the reason, for the first such side: its key
    before its targets, targets in line order."""

    def __init__(self, ids: _Table | None, scope: str):
        super().__init__()
        self.ids = ids
        self.scope = scope
        self.bad: dict[str, str] = {}

    def __missing__(self, line: str) -> tuple[Any, Objects, SetEdge]:
        ids, objs = self.ids, None
        parts = line.split(" ", 3)  # the indent's two empty fields, the key, the rest
        if ids is not None and len(parts) == 4 and not parts[0] and not parts[1]:
            left, rest, fname = ids[parts[2]], parts[3], None
            if left.__class__ is not VarId:  # an object's key: its field token next
                token, _, rest = rest.partition(" ")
                fname = token[1:]
                if token[:1] != "." or not (fname.isascii() and fname.isidentifier()) or left is NULL_OBJECT:
                    left = None
            # only a variable's text holds a "/", and no target is a variable
            if left is not None and "/" not in rest:
                texts = rest.split(" ")
                objs = frozenset(map(ids.__getitem__, texts))
                if len(objs) < len(texts) or None in objs:
                    objs = None
        if objs is None:
            if not line.startswith("  "):
                raise MalformedArtworkError(f"expected edge line or '}}', got {line!r}")
            try:
                left, fname, targets = parse_binding_line(line[2:], self.scope)
            except ValueError as exc:
                raise MalformedArtworkError(str(exc)) from exc
            if ids is not None:
                sides = [left, *targets]
                found = [ids[o] for o in sides]
                if None in found:
                    self.bad[line] = _unknown(sides[found.index(None)])
                else:
                    left, *targets = found
            objs = frozenset(targets)
        if fname is None:
            parsed = self[line] = (left, objs, (left, objs))
        else:
            parsed = self[line] = ((left, fname), objs, (left, fname, objs))
        return parsed

    def why(self, lines: list[str]) -> str | None:
        """Why the first bad line of ``lines`` is bad (None when no line
        is)."""
        bad = self.bad
        if bad and not bad.keys().isdisjoint(lines):
            return next(bad[line] for line in lines if line in bad)
        return None


def _bad_edit(line: str, sign: str, have, scope: str) -> MalformedArtworkError:
    """The error for edit line ``sign + line[2:]`` of an entry of method
    ``scope``, one of whose targets ``have`` holds (an addition) or lacks (a
    removal): the first such target in line order, as ``render_edge``
    writes that one edge."""
    left, fname, targets = parse_binding_line(line, scope)
    t = next(t for t in targets if (t in have) == (sign == "+"))
    verb = "adds a present" if sign == "+" else "removes an absent"
    edge = render_edge((left, t) if fname is None else (left, fname, t))
    return MalformedArtworkError(f"edit {verb} edge {edge!r}")


def _read_artwork(
    data: bytes,
    tables: Callable[[str], _Table] | None,
    check: Callable[[str, Any], str | None] | None = None,
) -> tuple[Artwork, str | None]:
    """Parse an ART/5 file in one walk over its lines.

    Returns the artwork and why its first entry at fault is, or None.  An
    entry is at fault when ``check(section, key)`` (when given) says why its
    key is bad, or when one of its own lines names an identifier that
    ``tables(method)`` (when given), the table an entry of its method reads
    by, lacks.  From the first such entry on, no graph is built:
    the artwork holds the entries before it, and that entry too when only
    its graph is at fault.  The rest of the file is still read, for its
    syntax and its edits, against one running map from each key of the
    previous entry's value to a mutable set of its targets, so the walk
    stays linear in the lines whatever the entries are."""
    lines = _lines(data, MAGIC)
    n = len(lines)
    by_scope: dict[str, _EdgeLines] = {}
    i = 1
    block: list | None = None  # the parsed lines of the last block
    # the previous entry's value, key -> targets, made when an edit needs it
    live: dict | None = None
    g = None  # the previous entry's graph, while graphs are built
    fault: str | None = None
    sections: list[dict] = []
    for name, key_re, next_header in _SECTIONS:
        if i == n:
            raise MalformedArtworkError("unexpected end of file")
        if lines[i] != f"[{name}]":
            raise MalformedArtworkError(f"expected [{name}] section")
        i += 1
        entries: dict = {}
        later: set = set()  # the keys of entries after the first at fault
        while i < n and lines[i] != next_header:
            m = key_re.match(lines[i])
            if m is None:
                raise MalformedArtworkError(f"bad [{name}] entry")
            try:
                key = (m.group(1), int(m.group(2))) if name == "loop" else m.group(1)
            except ValueError:  # past the interpreter's digit limit
                raise MalformedArtworkError(f"[loop] label too long ({len(m.group(2))} digits)") from None
            if key in entries or key in later:
                raise MalformedArtworkError(f"duplicate {name} entry {key}")
            i += 1
            scope = m.group(1)
            edges = by_scope.get(scope)
            if edges is None:
                edges = by_scope[scope] = _EdgeLines(None if tables is None else tables(scope), scope)
            text = m.group(m.lastindex)
            if text == "{":
                try:
                    end = lines.index("}", i)
                except ValueError:
                    end = n
                own = lines[i:end]
                block = list(map(edges.__getitem__, own))  # rejects the first line that is no edge
                if end == n:
                    raise MalformedArtworkError("unterminated graph block")
                i = end + 1
                live = None
            elif text != "^":
                raise MalformedArtworkError(f"expected graph block or '^', got {text!r}")
            elif block is None:
                raise MalformedArtworkError("'^' in the first entry")
            else:
                own = []  # each edit's binding line, indented as in a block
                edits = []
                while i < n and lines[i].startswith(("- ", "+ ")):
                    sign, line = lines[i][0], "  " + lines[i][2:]
                    binding, objs, edge = edges[line]
                    if live is None:
                        live = _live(block)
                    have = live.get(binding)
                    if sign == "+":
                        if have is None:
                            live[binding] = set(objs)
                        elif have.isdisjoint(objs):
                            have |= objs
                        else:
                            raise _bad_edit(line, sign, have, scope)
                    elif have is not None and objs <= have:
                        have -= objs
                    else:
                        raise _bad_edit(line, sign, have or (), scope)
                    own.append(line)
                    edits.append((sign, edge))
                    i += 1
            if fault is not None or (check is not None and (fault := check(name, key))):
                later.add(key)
                continue
            if text == "{":
                g = edited(EMPTY, [("+", edge) for _, _, edge in block])
            elif edits:
                g = edited(g, edits)
            entries[key] = g
            why = edges.why(own)
            if why is not None:
                where = f"{key[0]}:{key[1]}" if name == "loop" else key
                fault = f"[{name}] {where}: {why}"
        sections.append(entries)
    i_loop, i_in, i_out = sections
    return Artwork(i_loop=i_loop, i_in=i_in, i_out=i_out), fault


def _live(block: list) -> dict:
    """A block's value as a map from each key to a mutable set of its
    targets (the union of the key's lines, if it has several)."""
    live: dict = {}
    for key, objs, _ in block:
        have = live.get(key)
        if have is None:
            live[key] = set(objs)
        else:
            have |= objs
    return live


@gc_paused
def parse_artwork(data: bytes) -> Artwork:
    """Syntax-only parse of an ART/5 file (no program to validate against).
    Every entry's graph is built, an edit entry's over shallow copies of
    the previous entry's maps, so the cost is linear in the artwork it
    returns, which may be much larger than the file."""
    return _read_artwork(data, None)[0]


@gc_paused
def decode(data: bytes, p: Program) -> Artwork:
    """Parse and validate an artifact against a program.

    Raises MalformedArtworkError on syntax breakage, including a line with
    no target or with a target twice and an edit line that removes a
    target its key's value lacks or adds one it has, and
    UnknownReferenceError when a method, slot, label, or summary key does
    not exist in ``p`` (an OUT-summary key must name a method on a
    call-graph cycle).  Binding lines are mapped through
    ``ir.identifier_tables(p)``, which this call builds once, plus the null
    object, which belongs to every program: an entry of method M reads the
    identifiers of M by their scoped text and every identifier by its full
    text (a ``_Table`` per method the file has entries of, holding what the
    file names).  The decoded graphs hold the table's objects.  A [loop]
    key must name a statement of its method, not necessarily a loop header;
    the consumer reads only header keys and reports the rest as ignored.  A
    syntax error anywhere wins; otherwise the first entry at fault is
    reported, in [loop], [in], [out] order, its key before its graph (so a
    bad line is reported at the first entry that holds it, not at a ``^``
    entry after it), and within the graph the first bad line, its key
    before its targets and its targets in line order.

    The cost is linear in the file's lines plus, for each entry the program
    has, a shallow copy of its two maps and a rebuild of each target set
    its edit lines touch, all within one graph over the program's
    identifiers: graphs are built only until the first entry at fault (see
    ``_read_artwork``), and the program has each key at most once.
    """
    ids, scoped = identifier_tables(p)
    ids[NULL_OBJECT] = ids["null"] = NULL_OBJECT
    labels = {m.name: {s.label for s in m.body} for m in p.methods}

    def check(section: str, key) -> str | None:
        name, label = key if section == "loop" else (key, None)
        if name not in labels:
            return f"[{section}]: unknown method '{name}'"
        if section == "loop" and label not in labels[name]:
            return f"[loop]: no statement {name}:{label}"
        return None

    a, fault = _read_artwork(data, lambda method: _Table(scoped.get(method, {}), ids), check)
    call_graph = ProgramIndex.of(p).call_graph
    for name in a.i_out:
        if not call_graph.is_recursive_method(name):
            raise UnknownReferenceError(f"[out]: method '{name}' is not recursive")
    if fault is not None:
        raise UnknownReferenceError(fault)
    return a


# ---------------------------------------------------------------------------
# Naive whole-dump encoding (size baseline and results-dump format)
# ---------------------------------------------------------------------------


def naive_encode(result: "AnalysisResult") -> bytes:
    """Dump the OUT value of every program point, one ``render_edges`` line
    per edge; the storage baseline the compact artifact is measured
    against, and the ``--dump-results`` format."""
    by_method: dict[str, dict] = {}
    for (name, node), g in result.out.items():
        by_method.setdefault(name, {})[node] = g
    chunks = [NAIVE_MAGIC + "\n"]
    for name in sorted(by_method):
        points = by_method[name]
        chunks.append(f"[method {name}]\n")
        heads = [ENTRY] if ENTRY in points else []
        heads += sorted(k for k in points if isinstance(k, int))
        heads += [EXIT] if EXIT in points else []
        for k in heads:
            head = f"l:{k}" if isinstance(k, int) else k
            lines = "".join([f"  {line}\n" for line in render_edges(points[k])])
            chunks.append(f"{head} = {{\n{lines}}}\n")
    return "".join(chunks).encode("utf-8")


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
    """Sizes and entry counts."""
    art_bytes = encode(a)
    naive_bytes = naive_encode(result)
    return ArtworkStats(
        bytes_art=len(art_bytes),
        bytes_naive=len(naive_bytes),
        loop_entries=len(a.i_loop),
        in_entries=len(a.i_in),
        out_entries=len(a.i_out),
        bytes_art_compressed=len(zlib.compress(art_bytes, 9)),
        bytes_naive_compressed=len(zlib.compress(naive_bytes, 9)),
    )
