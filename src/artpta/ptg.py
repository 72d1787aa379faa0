"""Points-to graphs: the analysis lattice, transfer functions, and the
project-in / project-out call macros.

A graph holds variable edges ``(VarId, ObjectId)`` and heap edges
``(ObjectId, field, ObjectId)``; the meet of the analysis is set union and
``subsumes`` is componentwise containment, which the meet decides: it
returns its first operand itself exactly when the second adds nothing.
Variables get strong updates, object fields get weak updates (an abstract
object may summarize many concrete ones).  All values are immutable and
safe to share.

A graph is stored as two index maps rather than as edge sets:

* ``VarId -> frozenset[ObjectId]`` (the variable's points-to set), and
* ``ObjectId -> {field -> frozenset[ObjectId]}`` (the heap).

``PointsToGraph`` is a ``tuple`` of the two maps, read only through its
``_vars`` and ``_heap`` properties, and only in this module.  No empty set
or empty field map is ever stored, so two graphs with the same edges have
equal maps, and ``==`` and ``!=`` are tuple comparison in C, which is map
equality.  The maps are never mutated once a graph holds them, so graphs
share them freely: a strong update copies the variable map and rebinds one
key while sharing the heap map, a field store copies only the source
objects it touches, and a meet whose second operand adds nothing returns
the first operand itself.  A flow function or meet reads each map of a
graph once, as a property read costs more than a slot's.  A lookup
(``pts``, ``field_targets``) is one or two dictionary probes, and the
edge-set views ``var_edges`` / ``field_edges`` are built anew on each read
and kept by no graph; ``edge_count``, ``variables`` and ``target_sets`` walk
the maps without building them.  ``__hash__`` hashes the two maps on each
call (each value set caches its own hash), so hashing never builds the edge
views and no graph stores it.  Because the heap is keyed by source object,
the one structural rule -- no field edge leaves the null object -- is a
single key test, ``__post_init__``, which every construction calls through
the class: ``_graph``, the edge constructor and ``copy`` / ``pickle``,
which rebuild a graph with ``_graph``.

``edited`` is the one code that fills maps from edges: it applies ordered
``('-', edge)`` / ``('+', edge)`` edits, each edge ``(v, objs)`` or
``(s, f, objs)``, to shallow copies of a graph's maps.  The edge
constructor adds its edges to the empty maps with it, the artifact decoder
builds a block as ``edited(EMPTY, +lines)`` and an edit entry as
``edited(previous, edits)``, each line with all its targets in one set,
and ``tamper`` writes each reductive mutation as one call; the constructor
and ``tamper`` put an edge ``(v, o)`` or ``(s, f, t)`` in the singleton-set
form with ``set_edge``.

Variables and objects are small values that hash and compare in C:
``VarId``, ``Site`` and ``Placeholder`` are named tuples whose last field is
a constant kind tag, so ``VarId("m", 1)``, ``Site("m", 1)`` and
``Placeholder("m", 1)`` differ while each keeps its ``method`` /
``slot`` / ``label`` / ``index`` attributes; the tag is never rendered.
``VarId``, ``Site`` and ``Placeholder`` are defined in ``ir``, whose builder
makes them, and re-exported here.  ``NULL_OBJECT`` is the one ``NullObject``
and hashes by identity.  Equal identifiers built anywhere (by the builder,
parsed from an artifact, by ``tamper``) are equal values, so there is no
intern table: a process-wide table would let untrusted artifacts grow memory
without bound, and the tuples are already cheap to hash.  ``ir.identifiers``
is no such table: decode builds it from the program on each call and looks
edge lines up in it, so no artifact text ever adds to it and it dies with
the call.

The flow functions (``transfer``, ``project_in``, ``project_out``) take a
statement's operands from the statement itself, as the builder resolved
them (``LabeledStatement.operands``): its variables' ``VarId``s, its field
name and an allocation site's object set, shared by every evaluation of that
site.  They reject, with ValueError, a statement that is not one of the
method's own: one whose operands do not start with the method's ``mark``.
That is every statement built by hand and every statement of a method built
by hand, which has no mark.

Canonical text rendering, one line per edge (``render_edges``, the
results dump and UNSAFE reports)::

    main/0 -> main:4          # variable (method/slot) -> object
    main:4 .f-> null          # object .field-> object

The artifact writes one line per binding instead, with no arrow: a variable
and all its targets (``main/0 main:4 null``), or an object, a field token
and all its targets (``main:4 .f null``).  ``render_block`` writes a
graph's, and ``render_edits`` the ``- `` / ``+ `` lines that turn one graph
into another; they stay here because only this module reads a graph's maps.
Only U+0020 separates a line's tokens.  ``parse_binding_line`` reads a
binding line.  Inside an artifact entry of method ``main`` the identifiers of
``main`` lose the method's name (``/0 :4 null``); the codec drops it from
the written lines, and ``parse_binding_line`` and ``parse_object`` read
such a scoped text when given the entry's method as ``scope``.

Objects render as ``method:label`` (allocation site), ``null`` (the one
null object), or ``method?i`` (placeholder for reference parameter i: the
artifact grammar keeps it, but no analysis writes one).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, KeysView, TypeVar, Union

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
    Operands,
    Placeholder,
    Return,
    Site,
    VarId,
    _tuple_new,
)


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
_NO_FIELDS: FieldIndex = {}
_NULL_ONLY: Objects = frozenset((NULL_OBJECT,))


class PointsToGraph(tuple):
    """An immutable points-to graph: the pair of its shared index maps.

    The pair is a ``tuple``, so ``==`` and ``!=`` are tuple comparison in
    C, which is map equality.  The package reads the maps through
    ``_vars`` and ``_heap`` alone, in this module.  ``PointsToGraph(var_edges,
    field_edges)`` and ``PointsToGraph.of`` add the edges to the empty maps
    as ``edited`` does; the lattice operations below build graphs directly
    from maps with ``_graph``, and so do ``copy`` and ``pickle``
    (``__reduce__``).  Every path runs ``__post_init__`` once, through the
    class.
    """

    __slots__ = ()

    def __new__(cls, var_edges: Iterable[VarEdge], field_edges: Iterable[FieldEdge]) -> PointsToGraph:
        edits = [("+", set_edge(e)) for edges in (var_edges, field_edges) for e in edges]
        return _graph(*_edit({}, {}, edits))

    _vars = property(itemgetter(0), doc="The variable map.")
    _heap = property(itemgetter(1), doc="The heap map.")

    def __post_init__(self) -> None:
        """The structural check, run on every construction: no field edge
        leaves the null object (one key test, as the heap is keyed by source
        object)."""
        if NULL_OBJECT in self._heap:
            raise ValueError("field edge with null source")

    def __reduce__(self) -> tuple:
        return _graph, (self._vars, self._heap)

    @staticmethod
    def of(
        var_edges: Iterable[VarEdge] = (), field_edges: Iterable[FieldEdge] = ()
    ) -> PointsToGraph:
        return PointsToGraph(var_edges, field_edges)

    @property
    def var_edges(self) -> frozenset[VarEdge]:
        return frozenset((v, o) for v, objs in self._vars.items() for o in objs)

    @property
    def field_edges(self) -> frozenset[FieldEdge]:
        return frozenset(_heap_edges(self._heap))

    def pts(self, v: VarId) -> frozenset[ObjectId]:
        return self._vars.get(v, NO_OBJECTS)

    def field_targets(self, o: ObjectId, f: str) -> frozenset[ObjectId]:
        return self._heap.get(o, _NO_FIELDS).get(f, NO_OBJECTS)

    def variables(self) -> KeysView[VarId]:
        """The variables with a non-empty points-to set (a view, no copy)."""
        return self._vars.keys()

    def target_sets(self) -> Iterator[tuple[tuple[VarId] | tuple[ObjectId, str], Objects]]:
        """Every non-empty points-to set with its key, ``(v,)`` for a
        variable's and ``(s, f)`` for an object field's, variables first;
        no edge view is built."""
        for v, objs in self._vars.items():
            yield (v,), objs
        for s, fields in self._heap.items():
            for f, objs in fields.items():
                yield (s, f), objs

    def edge_count(self) -> int:
        return sum(map(len, self._vars.values())) + _heap_size(self._heap)

    def objects(self) -> frozenset[ObjectId]:
        heap = self._heap
        objs: set[ObjectId] = set(heap)
        for targets in self._vars.values():
            objs |= targets
        for fields in heap.values():
            for targets in fields.values():
                objs |= targets
        return frozenset(objs)

    def is_empty(self) -> bool:
        return not self._vars and not self._heap

    def __hash__(self) -> int:
        return hash((
            frozenset(self._vars.items()),
            frozenset((o, frozenset(fields.items())) for o, fields in self._heap.items()),
        ))

    def __repr__(self) -> str:
        """Edges in ``render_edges`` order, so equal graphs print alike."""
        var_edges, field_edges = (
            f"frozenset({{{', '.join(map(repr, sorted(edges, key=render_edge)))}}})" if edges else "frozenset()"
            for edges in (self.var_edges, self.field_edges)
        )
        return f"PointsToGraph(var_edges={var_edges}, field_edges={field_edges})"


def _graph(vars_: VarIndex, heap: HeapIndex) -> PointsToGraph:
    """A graph over existing index maps (which it then shares)."""
    g = _tuple_new(PointsToGraph, (vars_, heap))
    g.__post_init__()
    return g


# An edge to a set of objects: ``(v, objs)`` or ``(s, f, objs)`` with
# ``objs`` a non-empty frozenset; a parsed binding line is one with all its
# targets.
SetEdge = Union[tuple[VarId, Objects], tuple[ObjectId, str, Objects]]


def set_edge(e: VarEdge | FieldEdge) -> SetEdge:
    """Edge ``e`` as ``edited`` takes it: its target in a singleton set."""
    if len(e) == 2:
        return (e[0], frozenset((e[1],)))
    return (e[0], e[1], frozenset((e[2],)))


def edited(g: PointsToGraph, edits: Iterable[tuple[str, SetEdge]]) -> PointsToGraph:
    """``g`` with ``edits`` applied in order: ``('-', edge)`` removes the
    edge's targets from its key, ``('+', edge)`` adds them.

    The new maps are shallow copies of ``g``'s, so every target set and
    field map no edit touches is shared.  An edit under a key that has no
    set yet shares the edit's own set; a touched set is rebuilt once,
    however many edits touch it, so the cost is linear in the edits plus
    the touched sets.  A set or field map left empty is dropped only after
    the last edit, so one call may empty and refill it."""
    return _graph(*_edit(g._vars, g._heap, edits))


def _edit(vars_: VarIndex, heap: HeapIndex, edits: Iterable[tuple[str, SetEdge]]) -> tuple[VarIndex, HeapIndex]:
    """The maps of ``edited``, made from ``vars_`` and ``heap``."""
    vars_ = dict(vars_)
    heap = dict(heap)
    copied: dict = {}  # source object -> its field map, copied for the new maps
    grown: list[tuple[dict, object]] = []  # (map, key) holding a mutable set
    for sign, edge in edits:
        if len(edge) == 2:
            key, objs = edge
            index = vars_
        else:
            src, key, objs = edge
            index = copied.get(src)
            if index is None:
                index = copied[src] = heap[src] = dict(heap.get(src, ()))
        have = index.get(key)
        if have.__class__ is not set:
            if have is None and sign == "+":
                index[key] = objs
                continue
            have = index[key] = set(have or ())
            grown.append((index, key))
        if sign == "-":
            have -= objs
        else:
            have |= objs
    for index, key in grown:
        if index[key]:
            index[key] = frozenset(index[key])
        else:
            del index[key]
    for src, fields in copied.items():
        if not fields:
            del heap[src]
    return vars_, heap


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


def meet(g1: PointsToGraph, g2: PointsToGraph) -> PointsToGraph:
    """The analysis meet: componentwise set union."""
    return _union_graphs((g1, g2))


def meet_all(graphs: Iterable[PointsToGraph]) -> PointsToGraph:
    return _union_graphs(graphs)


def _union_graphs(graphs: Iterable[PointsToGraph]) -> PointsToGraph:
    """Meet of any number of graphs (EMPTY for none).  Returns the first
    input itself exactly when the others add nothing to it, which is how
    ``subsumes`` decides."""
    it = iter(graphs)
    result: PointsToGraph | None = next(it, EMPTY)
    vars_, heap = result._vars, result._heap
    for g in it:
        g_vars, g_heap = g._vars, g._heap
        new_vars = _union_sets(vars_, g_vars)
        new_heap = _union_heaps(heap, g_heap)
        if new_vars is vars_ and new_heap is heap:
            continue  # g adds nothing
        vars_, heap = new_vars, new_heap
        result = g if new_vars is g_vars and new_heap is g_heap else None
    return _graph(vars_, heap) if result is None else result


def subsumes(g1: PointsToGraph, g2: PointsToGraph) -> bool:
    """True iff g2 is a subgraph of g1: exactly when their meet is g1 itself."""
    return _union_graphs((g1, g2)) is g1


def _minus_sets(a: dict[K, Objects], b: dict[K, Objects]) -> dict[K, Objects]:
    """Key-wise difference of two set-valued maps, with no empty set; a
    set ``b`` holds under the same key is passed over unread."""
    out = {}
    get = b.get
    for k, objs in a.items():
        have = get(k)
        if have is not objs:
            rest = objs if have is None else objs - have
            if rest:
                out[k] = rest
    return out


def difference(g: PointsToGraph, base: PointsToGraph) -> PointsToGraph:
    """The edges of ``g`` that ``base`` lacks (EMPTY when ``base`` subsumes
    ``g``), so ``meet(base, difference(g, base))`` is ``meet(base, g)``.
    Equal graphs are told apart in C; otherwise a target set or field map
    the two share is passed over unread, and every set or field map of
    ``g`` that ``base`` lacks is shared."""
    if g == base:
        return EMPTY
    vars_, heap = _minus_sets(g._vars, base._vars), {}
    get = base._heap.get
    for o, fields in g._heap.items():
        had = get(o)
        if had is not fields:
            rest = fields if had is None else _minus_sets(fields, had)
            if rest:
                heap[o] = rest
    return _graph(vars_, heap) if vars_ or heap else EMPTY


def var_id(m: Method, name: str) -> VarId:
    return VarId(m.name, m.slot_of[name])


def ret_var(m: Method) -> VarId:
    return VarId(m.name, m.ret_slot)


def _rebound(vars_: VarIndex, x: VarId, objs: Objects) -> VarIndex:
    """Strong update: the variable map ``vars_`` with ``x`` pointing to
    exactly ``objs``; shares every other binding (and is ``vars_`` itself
    when nothing moves)."""
    old = vars_.get(x, NO_OBJECTS)
    if old is objs or old == objs:
        return vars_
    vars_ = dict(vars_)
    if objs:
        vars_[x] = objs
    else:
        del vars_[x]
    return vars_


_NO_CALL_TRANSFER = "call statements are handled by the analysis engines"


def _not_own(s: LabeledStatement, m: Method) -> ValueError:
    return ValueError(f"not a statement of method '{m.name}': {s!r}")


def _operands(s: LabeledStatement, m: Method) -> Operands:
    """The resolved operands of ``s``, one of ``m``'s statements."""
    ops = s.operands
    if ops is None or ops[0] is not m.mark:
        raise _not_own(s, m)
    return ops


def transfer(s: LabeledStatement, g: PointsToGraph, m: Method) -> PointsToGraph:
    """Flow function of a non-call statement of ``m``.

    Alloc, Copy, AssignNull, and FieldLoad strongly update their target
    variable; FieldStore weakly updates the heap; Return feeds the method's
    return carrier; Branch/Goto/Nop/void-Return are the identity.
    Dereferencing null or an empty points-to set contributes nothing.
    """
    # ``_operands``, inlined: this is the engines' most frequent call
    ops = s.operands
    if ops is None or ops[0] is not m.mark:
        raise _not_own(s, m)
    _, kind, x, y, f = ops
    # each map is read once: a read goes through a property
    vars_ = g._vars
    if kind is Alloc:
        new = _rebound(vars_, x, y)
    elif kind is FieldStore:
        targets = vars_.get(y, NO_OBJECTS)
        if not targets:
            return g
        old = heap = g._heap
        for o in vars_.get(x, NO_OBJECTS):
            if o is NULL_OBJECT:
                continue
            fields = old.get(o)
            new_fields = _union_sets(fields or _NO_FIELDS, {f: targets})
            if new_fields is fields:
                continue
            if heap is old:
                heap = dict(old)
            heap[o] = new_fields
        return g if heap is old else _graph(vars_, heap)
    elif kind is FieldLoad:
        heap = g._heap
        sources = [heap.get(o, _NO_FIELDS).get(f, NO_OBJECTS) for o in vars_.get(y, NO_OBJECTS)]
        loaded = sources[0] if len(sources) == 1 else NO_OBJECTS.union(*sources)
        new = _rebound(vars_, x, loaded)
        return g if new is vars_ else _graph(new, heap)
    elif kind is Copy:
        new = _rebound(vars_, x, vars_.get(y, NO_OBJECTS))
    elif kind is AssignNull:
        new = _rebound(vars_, x, _NULL_ONLY)
    elif kind is Return:
        if x is None:
            return g
        new = _rebound(vars_, y, vars_.get(x, NO_OBJECTS))
    elif kind is Call:
        raise ValueError(_NO_CALL_TRANSFER)
    else:
        return g  # Branch / Goto / Nop
    return g if new is vars_ else _graph(new, g._heap)


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
    assert isinstance(s.instr, Call)
    args = _operands(s, caller)[3]
    if len(args) != len(callee.params):
        raise ArityMismatchError(
            f"call at {caller.name}:{s.label} passes {len(args)} argument(s) "
            f"to '{callee.name}' which takes {len(callee.params)}"
        )
    vars_ = g_at_callsite._vars
    formals: VarIndex = {}
    for i, arg in enumerate(args):
        objs = vars_.get(arg)
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
    assert isinstance(s.instr, Call)
    bind = _operands(s, caller)[2]
    vars_, old = g_at_callsite._vars, g_at_callsite._heap
    heap = _union_heaps(old, summary._heap)
    if bind is None:
        new = vars_
    else:
        # A well-formed summary's variable edges are exactly its return edges.
        new = _rebound(vars_, bind, NO_OBJECTS.union(*summary._vars.values()))
    return g_at_callsite if new is vars_ and heap is old else _graph(new, heap)


def restrict_to_summary(exit_graph: PointsToGraph, m: Method) -> PointsToGraph:
    """OUT-summary of a method: drop every variable edge except the return
    carrier's, keep the whole heap."""
    r = ret_var(m)
    old = exit_graph._vars
    returned = old.get(r)
    vars_ = {} if returned is None else {r: returned}
    if len(vars_) == len(old):
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


def _names(objs: Objects) -> str:
    """The rendered targets of a set, sorted and space-separated."""
    if len(objs) == 1:
        (o,) = objs
        return render_object(o)
    return " ".join(sorted(map(render_object, objs)))


def render_block(g: PointsToGraph) -> str:
    """The binding lines of ``g``, one per variable and one per (object,
    field), each with its targets sorted as ``render_edges`` sorts them
    (``main/0 main:4 null``), indented by two spaces and ended by a
    newline: the variables' lines sorted, then the field lines sorted.
    That is ``render_edges``' order, because every line starts with its
    space-terminated key (``m/s`` or ``src .f``), and a space sorts below
    every character of an identifier, as the arrow's ``-`` does."""
    var_lines = sorted([f"  {v.method}/{v.slot} {_names(objs)}\n" for v, objs in g._vars.items()])
    field_lines = sorted(
        [
            f"  {render_object(s)} .{f} {_names(ts)}\n"
            for s, fields in g._heap.items()
            for f, ts in fields.items()
        ]
    )
    return "".join(var_lines) + "".join(field_lines)


def render_edits(old: PointsToGraph, new: PointsToGraph) -> str | None:
    """The binding lines that turn ``old`` into ``new``: per key, ``- `` and
    the targets only ``old`` has, then per key ``+ `` and the targets only
    ``new`` has; each group sorted and each line ended by a newline.  None
    when there would be more lines than ``new`` has bindings.  A target set
    or field map the two graphs share is passed over unread, and each line
    is written as the diff finds it, so the work follows the keys of
    ``new`` and the bindings that differ, with no pass over either graph's
    items as a whole."""
    old_vars, new_vars, old_heap, new_heap = old._vars, new._vars, old._heap, new._heap
    same_vars = old_vars == new_vars
    if same_vars and old_heap == new_heap:
        return ""
    # No variable in common: every old variable is a "- " line.
    if old_vars and old_vars.keys().isdisjoint(new_vars):
        if len(old_vars) > sum(map(len, new_heap.values())):
            return None
    var_gone, var_came, heap_gone, heap_came = [], [], [], []
    if not same_vars:
        _map_edits(old_vars, new_vars, None, var_gone, var_came)
    shared = 0
    for src, fields in new_heap.items():
        had = old_heap.get(src)
        if had is not None:
            shared += 1
        if had is not fields:
            _map_edits(had or {}, fields, render_object(src) + " .", heap_gone, heap_came)
    if shared < len(old_heap):
        for src in old_heap.keys() - new_heap.keys():
            _map_edits(old_heap[src], {}, render_object(src) + " .", heap_gone, heap_came)
    count = len(var_gone) + len(var_came) + len(heap_gone) + len(heap_came)
    # every stored field map holds a binding, so a count this low needs no sum
    if count > len(new_vars) + len(new_heap):
        if count > len(new_vars) + sum(map(len, new_heap.values())):
            return None
    for lines in (var_gone, heap_gone, var_came, heap_came):
        lines.sort()
    return "".join(var_gone) + "".join(heap_gone) + "".join(var_came) + "".join(heap_came)


def _map_edits(had: dict, has: dict, src_head: str | None, gone: list[str], came: list[str]) -> None:
    """Append to ``gone`` the ``- `` line of each key of the map ``had``
    (key -> target set) with targets ``has`` lacks, and to ``came`` the
    ``+ `` line of each key of ``has`` with targets ``had`` lacks.  The keys
    are variables when ``src_head`` is None, and else the field names of
    the source object it renders."""
    shared = 0
    for key, objs in has.items():
        was = had.get(key)
        if was is objs:
            shared += 1
            continue
        head = f"{key.method}/{key.slot} " if src_head is None else f"{src_head}{key} "
        if was is None:
            came.append(f"+ {head}{_names(objs)}\n")
            continue
        shared += 1
        diff = was - objs
        if diff:
            gone.append(f"- {head}{_names(diff)}\n")
        diff = objs - was
        if diff:
            came.append(f"+ {head}{_names(diff)}\n")
    if shared < len(had):
        for key in had.keys() - has.keys():
            head = f"{key.method}/{key.slot} " if src_head is None else f"{src_head}{key} "
            gone.append(f"- {head}{_names(had[key])}\n")


def _heap_size(heap: HeapIndex) -> int:
    """The number of field edges of ``heap``."""
    return sum([len(ts) for fields in heap.values() for ts in fields.values()])


def _too_long(digits: str, part: str) -> ValueError:
    """The error for an integer of more digits than ``int`` converts."""
    return ValueError(f"{part} too long ({len(digits)} digits)")


def parse_object(text: str, scope: str | None = None) -> ObjectId:
    """One rendered object; with a ``scope``, an object of that method may
    be written without its name (``:3``, ``?0``).  Its integer is
    ``[0-9]+``: ``str.isdigit`` alone also takes other scripts' digits and
    superscripts, hence ``isascii`` first."""
    if text == "null":
        return NULL_OBJECT
    if "?" in text:
        method, _, idx = text.partition("?")
        method = method or scope
        if not method or not (idx.isascii() and idx.isdigit()):
            raise ValueError(f"bad object {text!r}")
        try:
            return _tuple_new(Placeholder, (method, int(idx), "placeholder"))
        except ValueError:
            raise _too_long(idx, "placeholder index") from None
    method, sep, label = text.partition(":")
    method = method or scope
    if not sep or not method or not (label.isascii() and label.isdigit()):
        raise ValueError(f"bad object {text!r}")
    try:
        return _tuple_new(Site, (method, int(label), "site"))
    except ValueError:
        raise _too_long(label, "allocation site label") from None


def parse_binding_line(
    line: str, scope: str | None = None
) -> tuple[VarId | ObjectId, str | None, list[ObjectId]]:
    """Parse one binding line: a variable ``m/s``, or an object and a field
    token ``src .f``, then one or more targets, none twice.  Returns the
    left side, the field name (None for a variable) and the targets in line
    order.  A key with a ``/`` is a variable, and any other an object.
    Tokens are separated by one or more U+0020 spaces, and no other
    whitespace: a tab or ``\\x1c`` stays inside its token, which is then a
    syntax error, and so is an arrow.  A field name is an ASCII identifier.
    A variable's slot is ``[0-9]+``, as an object's integer is; the left
    side is parsed before the targets.  With a ``scope``, a variable or an
    object of that method may be written without its name (``/0``, ``:3``,
    ``?0``); errors quote the line as written."""
    lhs, *texts = [part for part in line.split(" ") if part] or [""]
    if not texts:
        raise ValueError(f"bad edge line {line!r}")
    fname = None
    if "/" in lhs:
        method, _, slot = lhs.partition("/")
        method = method or scope
        if not method or not (slot.isascii() and slot.isdigit()):
            raise ValueError(f"bad variable {lhs!r}")
        try:
            left = _tuple_new(VarId, (method, int(slot), "var"))
        except ValueError:
            raise _too_long(slot, "variable slot") from None
    elif len(texts) > 1 and texts[0].startswith("."):
        fname = texts.pop(0)[1:]
        if not (fname.isascii() and fname.isidentifier()):
            raise ValueError(f"bad field edge {line!r}")
        left = parse_object(lhs, scope)
        if isinstance(left, NullObject):
            raise ValueError("field edge with null source")
    else:
        raise ValueError(f"bad edge line {line!r}")
    targets = [parse_object(text, scope) for text in texts]
    if len(set(targets)) < len(targets):
        seen: set[ObjectId] = set()
        for text, t in zip(texts, targets):
            if t in seen:
                raise ValueError(f"repeated target {text} in edge line {line!r}")
            seen.add(t)
    return left, fname, targets
