"""Points-to graphs: the analysis lattice, transfer functions, and the
project-in / project-out call macros.

A graph holds variable edges ``(VarId, ObjectId)`` and heap edges
``(ObjectId, field, ObjectId)``; the meet of the analysis is set union and
``subsumes`` is componentwise containment.  Variables get strong updates,
object fields get weak updates (an abstract object may summarize many
concrete ones).  All values are immutable and safe to share.

A graph is stored as two index maps rather than as edge sets:

* ``VarId -> frozenset[ObjectId]`` (the variable's points-to set), and
* ``ObjectId -> {field -> frozenset[ObjectId]}`` (the heap).

No empty set or empty field map is ever stored, so two graphs with the same
edges have equal maps and ``==`` is plain map equality.  The maps are never
mutated once a graph holds them, so graphs share them freely: a strong
update copies the variable map and rebinds one key while sharing the heap
map, a field store copies only the source objects it touches, and a meet
whose second operand adds nothing returns the first operand itself.  A
lookup (``pts``, ``field_targets``) is one or two dictionary probes, and
the edge-set views ``var_edges`` / ``field_edges`` are built on first use.
The hash is taken over the two maps (each value set caches its own hash) and
kept in the graph, so hashing never builds the edge views either.  Because
the heap is keyed by source object, the one structural rule -- no field edge
leaves the null object -- is a single key test, checked on every
construction.

``graph_of_set_edges`` builds the maps straight from parsed edge lines,
``(v, {o})`` for a variable edge and ``(s, f, {t})`` for a field edge,
sharing each line's singleton set: the artifact decoder's path, which never
builds edge sets.

Variables and objects are small values that hash and compare in C:
``VarId``, ``Site`` and ``Placeholder`` are named tuples whose last field is
a constant kind tag, so ``VarId("m", 1)``, ``Site("m", 1)`` and
``Placeholder("m", 1)`` differ while each keeps its ``method`` /
``slot`` / ``label`` / ``index`` attributes; the tag is never rendered.
``NULL_OBJECT`` is the one ``NullObject`` and hashes by identity.  Equal
identifiers built anywhere (parsed, by a transfer function, by ``tamper``)
are equal values, so there is no intern table: a process-wide table would
let untrusted artifacts grow memory without bound, and the tuples are
already cheap to hash.

Canonical text rendering (also the artifact file's edge syntax)::

    main/0 -> main:4          # variable (method/slot) -> object
    main:4 .f-> null          # object .field-> object

Objects render as ``method:label`` (allocation site), ``null`` (the one
null object), or ``method?i`` (placeholder for reference parameter i, used
by the intra-procedural entry convention).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, TypeVar, Union

from .errors import ArityMismatchError
from .ir import (
    Alloc,
    AssignNull,
    Call,
    Copy,
    FieldLoad,
    FieldStore,
    LabeledStatement,
    Method,
    Return,
)


class VarId(NamedTuple):
    """Stack slot ``slot`` of ``method`` (the parameters, then the locals,
    then the return carrier)."""

    method: str
    slot: int
    kind: str = "var"  # constant tag: never pass it

    def __repr__(self) -> str:
        return f"VarId(method={self.method!r}, slot={self.slot!r})"


class Site(NamedTuple):
    """The abstract object allocated at ``method:label``."""

    method: str
    label: int
    kind: str = "site"  # constant tag: never pass it

    def __repr__(self) -> str:
        return f"Site(method={self.method!r}, label={self.label!r})"


class Placeholder(NamedTuple):
    """Stand-in object for reference parameter ``index`` of ``method`` in
    intra-procedural analysis, where no caller heap is available."""

    method: str
    index: int
    kind: str = "placeholder"  # constant tag: never pass it

    def __repr__(self) -> str:
        return f"Placeholder(method={self.method!r}, index={self.index!r})"


class NullObject:
    """The single abstract object all null references point to: one
    instance, so it compares and hashes by identity."""

    __slots__ = ()

    def __new__(cls) -> "NullObject":
        return NULL_OBJECT

    def __repr__(self) -> str:
        return "NullObject()"


NULL_OBJECT: NullObject = object.__new__(NullObject)

ObjectId = Union[Site, NullObject, Placeholder]

VarEdge = tuple[VarId, ObjectId]
FieldEdge = tuple[ObjectId, str, ObjectId]

# Index maps.  Values are never empty and a map is never mutated once a
# graph holds it.
Objects = frozenset[ObjectId]
VarIndex = dict[VarId, Objects]
FieldIndex = dict[str, Objects]
HeapIndex = dict[ObjectId, FieldIndex]

NO_OBJECTS: Objects = frozenset()
_NULL_ONLY: Objects = frozenset((NULL_OBJECT,))


class PointsToGraph:
    """An immutable points-to graph over shared index maps.

    ``PointsToGraph(var_edges, field_edges)`` and ``PointsToGraph.of`` build
    the index from edges; the lattice operations below build graphs directly
    from maps.  Both paths run ``__post_init__``.
    """

    __slots__ = ("_vars", "_heap", "_var_edges", "_field_edges", "_hash")

    def __init__(self, var_edges: Iterable[VarEdge], field_edges: Iterable[FieldEdge]) -> None:
        var_edges = frozenset(var_edges)
        field_edges = frozenset(field_edges)
        vars_: dict[VarId, set[ObjectId]] = {}
        for v, o in var_edges:
            vars_.setdefault(v, set()).add(o)
        heap: dict[ObjectId, dict[str, set[ObjectId]]] = {}
        for s, f, t in field_edges:
            heap.setdefault(s, {}).setdefault(f, set()).add(t)
        self._vars: VarIndex = {v: frozenset(objs) for v, objs in vars_.items()}
        self._heap: HeapIndex = {
            s: {f: frozenset(ts) for f, ts in fields.items()} for s, fields in heap.items()
        }
        self._var_edges: frozenset[VarEdge] | None = var_edges
        self._field_edges: frozenset[FieldEdge] | None = field_edges
        self._hash: int | None = None
        self.__post_init__()

    def __post_init__(self) -> None:
        """The structural check, run on every construction: no field edge
        leaves the null object (one key test, as the heap is keyed by source
        object)."""
        if NULL_OBJECT in self._heap:
            raise ValueError("field edge with null source")

    @staticmethod
    def of(
        var_edges: Iterable[VarEdge] = (), field_edges: Iterable[FieldEdge] = ()
    ) -> PointsToGraph:
        return PointsToGraph(var_edges, field_edges)

    @property
    def var_edges(self) -> frozenset[VarEdge]:
        if self._var_edges is None:
            self._var_edges = frozenset(
                (v, o) for v, objs in self._vars.items() for o in objs
            )
        return self._var_edges

    @property
    def field_edges(self) -> frozenset[FieldEdge]:
        if self._field_edges is None:
            self._field_edges = frozenset(_heap_edges(self._heap))
        return self._field_edges

    def pts(self, v: VarId) -> frozenset[ObjectId]:
        return self._vars.get(v, NO_OBJECTS)

    def field_targets(self, o: ObjectId, f: str) -> frozenset[ObjectId]:
        fields = self._heap.get(o)
        return NO_OBJECTS if fields is None else fields.get(f, NO_OBJECTS)

    def kill_var(self, v: VarId) -> frozenset[VarEdge]:
        return frozenset(
            (w, o) for w, objs in self._vars.items() if w != v for o in objs
        )

    def objects(self) -> frozenset[ObjectId]:
        objs: set[ObjectId] = set(self._heap)
        for targets in self._vars.values():
            objs |= targets
        for fields in self._heap.values():
            for targets in fields.values():
                objs |= targets
        return frozenset(objs)

    def is_empty(self) -> bool:
        return not self._vars and not self._heap

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PointsToGraph):
            return NotImplemented
        return self._vars == other._vars and self._heap == other._heap

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((
                frozenset(self._vars.items()),
                frozenset((o, frozenset(fields.items())) for o, fields in self._heap.items()),
            ))
        return h

    def __repr__(self) -> str:
        return f"PointsToGraph(var_edges={self.var_edges!r}, field_edges={self.field_edges!r})"


def _graph(vars_: VarIndex, heap: HeapIndex) -> PointsToGraph:
    """A graph over existing index maps (which it then shares)."""
    g = object.__new__(PointsToGraph)
    g._vars = vars_
    g._heap = heap
    g._var_edges = g._field_edges = g._hash = None
    g.__post_init__()
    return g


# An edge to a set of objects: ``(v, objs)`` or ``(s, f, objs)`` with
# ``objs`` a non-empty frozenset; one parsed edge line is one with a
# singleton set.
SetEdge = Union[tuple[VarId, Objects], tuple[ObjectId, str, Objects]]


def graph_of_set_edges(edges: Iterable[SetEdge]) -> PointsToGraph:
    """The graph of ``edges``, in any order and with repeats, built straight
    into the index maps (no edge sets).  The given sets are shared where a
    variable or an (object, field) pair occurs once; repeats are unioned in
    one growing set, so the cost stays linear in the edges."""
    vars_: VarIndex = {}
    heap: HeapIndex = {}
    grown: list[tuple[dict, object]] = []  # (map, key) holding a growing set
    for edge in edges:
        if len(edge) == 2:
            key, objs = edge
            index = vars_
        else:
            s, key, objs = edge
            index = heap.get(s)
            if index is None:
                heap[s] = {key: objs}
                continue
        have = index.get(key)
        if have is None:
            index[key] = objs
        elif have.__class__ is set:
            have |= objs
        else:
            index[key] = set(have) | objs
            grown.append((index, key))
    for index, key in grown:
        index[key] = frozenset(index[key])
    return _graph(vars_, heap)


def _heap_edges(heap: HeapIndex) -> Iterable[FieldEdge]:
    for s, fields in heap.items():
        for f, targets in fields.items():
            for t in targets:
                yield (s, f, t)


EMPTY = _graph({}, {})

K = TypeVar("K")


def _union_sets(a: dict[K, Objects], b: dict[K, Objects]) -> dict[K, Objects]:
    """Key-wise union of two set-valued maps; ``a`` itself when ``b`` adds
    nothing, ``b`` itself when ``a`` is empty."""
    if not b or a is b:
        return a
    if not a:
        return b
    out = None
    for k, objs in b.items():
        have = a.get(k)
        if have is None:
            new = objs
        elif have is objs or objs <= have:
            continue
        else:
            new = have | objs
        if out is None:
            out = dict(a)
        out[k] = new
    return a if out is None else out


def _union_heaps(a: HeapIndex, b: HeapIndex) -> HeapIndex:
    if not b or a is b:
        return a
    if not a:
        return b
    out = None
    for o, fields in b.items():
        have = a.get(o)
        new = fields if have is None else _union_sets(have, fields)
        if new is have:
            continue
        if out is None:
            out = dict(a)
        out[o] = new
    return a if out is None else out


def _covers_sets(big: dict[K, Objects], small: dict[K, Objects]) -> bool:
    if big is small:
        return True
    if len(small) > len(big):
        return False
    for k, objs in small.items():
        have = big.get(k)
        if have is None or (have is not objs and not objs <= have):
            return False
    return True


def _covers_heaps(big: HeapIndex, small: HeapIndex) -> bool:
    if big is small:
        return True
    if len(small) > len(big):
        return False
    for o, fields in small.items():
        have = big.get(o)
        if have is None or not _covers_sets(have, fields):
            return False
    return True


def meet(g1: PointsToGraph, g2: PointsToGraph) -> PointsToGraph:
    """The analysis meet: componentwise set union."""
    return _union_graphs((g1, g2))


def meet_all(graphs: Iterable[PointsToGraph]) -> PointsToGraph:
    return _union_graphs(graphs)


def _union_graphs(graphs: Iterable[PointsToGraph]) -> PointsToGraph:
    """Meet of any number of graphs (EMPTY for none).  Returns the first
    input itself when the others add nothing to it."""
    it = iter(graphs)
    result: PointsToGraph | None = next(it, EMPTY)
    vars_, heap = result._vars, result._heap
    for g in it:
        new_vars = _union_sets(vars_, g._vars)
        new_heap = _union_heaps(heap, g._heap)
        if new_vars is vars_ and new_heap is heap:
            continue  # g adds nothing
        vars_, heap = new_vars, new_heap
        result = g if new_vars is g._vars and new_heap is g._heap else None
    return _graph(vars_, heap) if result is None else result


def subsumes(g1: PointsToGraph, g2: PointsToGraph) -> bool:
    """True iff g2 is a subgraph of g1."""
    return g1 is g2 or (
        _covers_sets(g1._vars, g2._vars) and _covers_heaps(g1._heap, g2._heap)
    )


def var_id(m: Method, name: str) -> VarId:
    return VarId(m.name, m.slot_of[name])


def ret_var(m: Method) -> VarId:
    return VarId(m.name, m.ret_slot)


def entry_graph(m: Method) -> PointsToGraph:
    """Intra-procedural entry value: each reference parameter points to its
    own placeholder object; no heap edges."""
    return PointsToGraph.of(
        (VarId(m.name, i), Placeholder(m.name, i)) for i in range(len(m.params))
    )


def _with_heap(g: PointsToGraph, heap: HeapIndex) -> PointsToGraph:
    return g if heap is g._heap else _graph(g._vars, heap)


def _rebind(g: PointsToGraph, x: VarId, objs: Objects, heap: HeapIndex) -> PointsToGraph:
    """Strong update: ``x`` points to exactly ``objs`` over ``heap``; shares
    every other binding with ``g`` (and is ``g`` itself when nothing moves)."""
    old = g._vars.get(x, NO_OBJECTS)
    if old is objs or old == objs:
        return _with_heap(g, heap)
    vars_ = dict(g._vars)
    if objs:
        vars_[x] = objs
    else:
        del vars_[x]
    return _graph(vars_, heap)


def transfer(s: LabeledStatement, g: PointsToGraph, m: Method) -> PointsToGraph:
    """Flow function of a non-call statement.

    Alloc, Copy, AssignNull, and FieldLoad strongly update their target
    variable; FieldStore weakly updates the heap; Return feeds the method's
    return carrier; Branch/Goto/Nop/void-Return are the identity.
    Dereferencing null or an empty points-to set contributes nothing.
    """
    instr = s.instr
    if isinstance(instr, Alloc):
        return _rebind(g, var_id(m, instr.x), frozenset((Site(m.name, s.label),)), g._heap)
    if isinstance(instr, Copy):
        return _rebind(g, var_id(m, instr.x), g.pts(var_id(m, instr.y)), g._heap)
    if isinstance(instr, AssignNull):
        return _rebind(g, var_id(m, instr.x), _NULL_ONLY, g._heap)
    if isinstance(instr, FieldStore):
        targets = g.pts(var_id(m, instr.y))
        if not targets:
            return g
        heap = g._heap
        for o in g.pts(var_id(m, instr.x)):
            if isinstance(o, NullObject):
                continue
            fields = heap.get(o)
            new_fields = _union_sets(fields or {}, {instr.f: targets})
            if new_fields is fields:
                continue
            if heap is g._heap:
                heap = dict(heap)
            heap[o] = new_fields
        return _with_heap(g, heap)
    if isinstance(instr, FieldLoad):
        sources = [g.field_targets(o, instr.f) for o in g.pts(var_id(m, instr.y))]
        loaded = sources[0] if len(sources) == 1 else NO_OBJECTS.union(*sources)
        return _rebind(g, var_id(m, instr.x), loaded, g._heap)
    if isinstance(instr, Return):
        if instr.x is None:
            return g
        return _rebind(g, ret_var(m), g.pts(var_id(m, instr.x)), g._heap)
    if isinstance(instr, Call):
        raise ValueError("call statements are handled by the analysis engines")
    return g  # Branch / Goto / Nop


def reachable_field_edges(g: PointsToGraph, roots: Iterable[ObjectId]) -> PointsToGraph:
    """The field edges of ``g`` transitively reachable from ``roots``, as a
    heap-only graph (a breadth-first search over the heap index; the result
    shares ``g``'s per-object field maps)."""
    heap = g._heap
    seen: set[ObjectId] = set(roots)
    frontier = list(seen)
    reached: HeapIndex = {}
    while frontier:
        nxt: list[ObjectId] = []
        for o in frontier:
            fields = heap.get(o)
            if fields is None:
                continue
            reached[o] = fields
            for targets in fields.values():
                for t in targets:
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
        frontier = nxt
    return _graph({}, reached)


def project_in(
    g_at_callsite: PointsToGraph, caller: Method, s: LabeledStatement, callee: Method
) -> PointsToGraph:
    """Map the caller's state into the callee: formal_i points to whatever
    actual_i points to, plus the heap reachable from the actuals."""
    call = s.instr
    assert isinstance(call, Call)
    if len(call.args) != len(callee.params):
        raise ArityMismatchError(
            f"call at {caller.name}:{s.label} passes {len(call.args)} argument(s) "
            f"to '{callee.name}' which takes {len(callee.params)}"
        )
    formals: VarIndex = {}
    for i, arg in enumerate(call.args):
        objs = g_at_callsite.pts(var_id(caller, arg))
        if objs:
            formals[VarId(callee.name, i)] = objs
    reachable = reachable_field_edges(g_at_callsite, NO_OBJECTS.union(*formals.values()))
    return _graph(formals, reachable._heap)


def project_out(
    summary: PointsToGraph,
    caller: Method,
    s: LabeledStatement,
    g_at_callsite: PointsToGraph,
) -> PointsToGraph:
    """Fold a callee OUT-summary back into the call-site state: union the
    summary's heap (weak), and strongly rebind the receiver variable from the
    summary's return edges when the call binds one."""
    call = s.instr
    assert isinstance(call, Call)
    heap = _union_heaps(g_at_callsite._heap, summary._heap)
    if call.bind is None:
        return _with_heap(g_at_callsite, heap)
    # A well-formed summary's variable edges are exactly its return edges.
    returned = NO_OBJECTS.union(*summary._vars.values())
    return _rebind(g_at_callsite, var_id(caller, call.bind), returned, heap)


def restrict_to_summary(exit_graph: PointsToGraph, m: Method) -> PointsToGraph:
    """OUT-summary of a method: drop every variable edge except the return
    carrier's, keep the whole heap."""
    r = ret_var(m)
    returned = exit_graph._vars.get(r)
    vars_ = {} if returned is None else {r: returned}
    if len(vars_) == len(exit_graph._vars):
        return exit_graph
    return _graph(vars_, exit_graph._heap)


# ---------------------------------------------------------------------------
# Canonical rendering (defines graph equality for golden files)
# ---------------------------------------------------------------------------


def render_object(o: ObjectId) -> str:
    if isinstance(o, Site):
        return f"{o.method}:{o.label}"
    if isinstance(o, Placeholder):
        return f"{o.method}?{o.index}"
    return "null"


def render_edge(edge: VarEdge | FieldEdge) -> str:
    """The text of one edge, as ``render_edges`` writes it."""
    if len(edge) == 2:
        v, o = edge
        return f"{v.method}/{v.slot} -> {render_object(o)}"
    s, f, t = edge
    return f"{render_object(s)} .{f}-> {render_object(t)}"


def render_edges(g: PointsToGraph) -> list[str]:
    """One line per edge: sorted variable edges, then sorted field edges."""
    var_lines = sorted(
        f"{v.method}/{v.slot} -> {render_object(o)}"
        for v, objs in g._vars.items()
        for o in objs
    )
    field_lines = sorted(
        f"{render_object(s)} .{f}-> {render_object(t)}" for (s, f, t) in _heap_edges(g._heap)
    )
    return var_lines + field_lines


def render_graph(g: PointsToGraph) -> str:
    return "\n".join(render_edges(g))


def parse_object(text: str) -> ObjectId:
    if text == "null":
        return NULL_OBJECT
    if "?" in text:
        method, _, idx = text.partition("?")
        if not method or not idx.isdigit():
            raise ValueError(f"bad object {text!r}")
        return Placeholder(method, int(idx))
    method, sep, label = text.partition(":")
    if not sep or not method or not label.isdigit():
        raise ValueError(f"bad object {text!r}")
    return Site(method, int(label))


def parse_edge_line(line: str) -> tuple[str, VarEdge | FieldEdge]:
    """Parse one rendered edge line; returns ('var', edge) or ('field', edge)."""
    parts = line.split()
    if len(parts) != 3:
        raise ValueError(f"bad edge line {line!r}")
    lhs, op, rhs = parts
    if op == "->":
        method, sep, slot = lhs.partition("/")
        if not sep or not method or not slot.isdigit():
            raise ValueError(f"bad variable {lhs!r}")
        return "var", (VarId(method, int(slot)), parse_object(rhs))
    if op.startswith(".") and op.endswith("->"):
        fname = op[1:-2]
        if not fname:
            raise ValueError(f"bad field edge {line!r}")
        src = parse_object(lhs)
        if isinstance(src, NullObject):
            raise ValueError("field edge with null source")
        return "field", (src, fname, parse_object(rhs))
    raise ValueError(f"bad edge line {line!r}")


def parse_edges(lines: Iterable[str]) -> PointsToGraph:
    """The graph of rendered edge lines, in any order."""
    return graph_of_set_edges((*e[:-1], frozenset(e[-1:])) for _, e in map(parse_edge_line, lines))
