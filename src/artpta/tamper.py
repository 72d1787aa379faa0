"""Seeded, reproducible artifact mutations: reductive (non-conservative)
kinds that the consumer must detect, whole-entry deletion (possibly safe via
the consumer's default-value rules), and conservative edge addition.

Reductive kinds remove or replace an element actually present in the source
artifact.  The producer emits the least fixed point, so the changed entry
lacks an element the least fixed point holds there (for a ``[loop]`` entry,
one the header's flow equation does not derive from its forward value, so
the header's value lacks it too); every fixed point lies above the least
one, so the entry belongs to no fixed point and the consumer must detect
it.  An artwork whose entries are all empty has nothing to reduce.  Each
kind is one step (``_reduce``): draw an element, build the drawn entry's
new graph, replace the entry.  A draw is ``rng.choice`` over the candidates
of every entry in entry order (edges, variables and objects, edges again,
or sets of two or more targets), made from each entry's candidate count
alone (``PointsToGraph.edge_count``, ``variables``, ``objects``,
``target_sets``): only the drawn entry's candidates are listed, sorted and
rendered, and the generator is consumed as a choice from the whole list
would consume it.

AddEdge is different: an arbitrary insertion is almost never part of a fixed
point (the extra edge cascades or fails to re-appear at a checked point), so
this kind injects the edge at its entry and re-closes the flow equations over
the whole program, emitting the resulting non-least fixed point.  That is a
genuinely conservative mutation: the consumer must accept it and regenerate a
sound over-approximation.  It consequently needs the program, not just the
artifact, and assumes the source artifact was producer-emitted.  The
re-closure starts from the source's least fixed point
(``analyze_inter(_above=...)``) while the source still holds the maps
emission wrote from the fixed point it carries
(``producer.carried_fixed_point``), and from the empty graph otherwise (a
decoded or optimized source); both end at the same fixed point.  When the
source lacks entries that emission writes (it was optimized), the emitted
artifact is shrunk by ``optimize_artwork`` too, if the consumer accepts the
shrunk one, so the mutation keeps its source's shape.  A ``[loop]`` entry
holds only what the loop adds at its header, so an edge it lacks may be
one the header's flow equation already derives; the re-closed artwork then
equals its source, and the draw is made again.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate
from typing import Callable

from .artwork import Artwork
from .consumer import regen_inter
from .errors import ArtError, NothingToTamperError
from .ir import FieldLoad, FieldStore, Program, gc_paused, identifiers
from .ptg import EMPTY, NULL_OBJECT, FieldEdge, ObjectId, PointsToGraph, Site, VarEdge, VarId
from .ptg import edited, render_edge, render_object, set_edge
from .producer import analyze_inter, carried_fixed_point, emit_artwork, optimize_artwork


class TamperKind(enum.Enum):
    REMOVE_EDGE = "remove-edge"
    REMOVE_NODE = "remove-node"
    REPLACE_OBJECT = "replace-object"
    SHRINK_SET = "shrink-set"
    DELETE_ENTRY = "delete-entry"
    ADD_EDGE = "add-edge"


REDUCTIVE_KINDS = (
    TamperKind.REMOVE_EDGE,
    TamperKind.REMOVE_NODE,
    TamperKind.REPLACE_OBJECT,
    TamperKind.SHRINK_SET,
)


@dataclass(frozen=True)
class TamperSpec:
    seed: int
    kind: TamperKind
    target: str


EntryKey = tuple[str, object]  # ("loop", (method, label)) | ("in", m) | ("out", m)


def _entries(a: Artwork) -> list[tuple[EntryKey, PointsToGraph]]:
    out: list[tuple[EntryKey, PointsToGraph]] = []
    out.extend((("loop", k), a.i_loop[k]) for k in sorted(a.i_loop))
    out.extend((("in", k), a.i_in[k]) for k in sorted(a.i_in))
    out.extend((("out", k), a.i_out[k]) for k in sorted(a.i_out))
    return out


def _entry_name(key: EntryKey) -> str:
    section, k = key
    if section == "loop":
        return f"loop {k[0]}:{k[1]}"
    return f"{section} {k}"


def _with_entry(a: Artwork, key: EntryKey, g: PointsToGraph | None) -> Artwork:
    """Copy of ``a`` with one entry replaced (or removed when g is None)."""
    i_loop, i_in, i_out = dict(a.i_loop), dict(a.i_in), dict(a.i_out)
    section, k = key
    target = {"loop": i_loop, "in": i_in, "out": i_out}[section]
    if g is None:
        del target[k]
    else:
        target[k] = g
    return Artwork(i_loop=i_loop, i_in=i_in, i_out=i_out)


def _sorted_edges(g: PointsToGraph) -> list[VarEdge | FieldEdge]:
    return sorted(g.var_edges, key=render_edge) + sorted(g.field_edges, key=render_edge)


def _all_objects(a: Artwork) -> list[ObjectId]:
    objs: set[ObjectId] = set()
    for _, g in _entries(a):
        objs |= g.objects()
    return sorted(objs, key=render_object)


Change = Callable[[Artwork, random.Random, PointsToGraph, int], tuple[PointsToGraph, str]]


def _reduce(
    count: Callable[[PointsToGraph], int], nothing: str, change: Change,
    a: Artwork, rng: random.Random, program: Program | None,
) -> tuple[Artwork, str]:
    """The reductive kinds' one step.  Draw a candidate as ``rng.choice``
    draws from the list of every entry's candidates in entry order, with
    ``count(g)`` the number of entry ``g``'s, so only the drawn entry's are
    listed and sorted (``NothingToTamperError(nothing)`` when no entry has
    one); ``change(a, rng, g, i)`` builds that entry's new graph from its
    ``i``-th candidate and says what changed; the entry is replaced."""
    entries = _entries(a)
    ends = list(accumulate(count(g) for _, g in entries))
    if not ends or not ends[-1]:
        raise NothingToTamperError(nothing)
    i = rng.choice(range(ends[-1]))  # consumes the generator as choice(candidates) does
    j = bisect_right(ends, i)
    key, g = entries[j]
    mutated, what = change(a, rng, g, i - (ends[j - 1] if j else 0))
    return _with_entry(a, key, mutated), f"{_entry_name(key)} {what}"


def _remove_edge(a: Artwork, rng: random.Random, g: PointsToGraph, i: int) -> tuple[PointsToGraph, str]:
    e = _sorted_edges(g)[i]
    return edited(g, [("-", set_edge(e))]), f"edge '{render_edge(e)}'"


def _node_count(g: PointsToGraph) -> int:
    return len(g.variables()) + len(g.objects())


def _remove_node(a: Artwork, rng: random.Random, g: PointsToGraph, i: int) -> tuple[PointsToGraph, str]:
    variables = sorted(g.variables(), key=lambda v: (v.method, v.slot))
    if i < len(variables):
        v = variables[i]
        return edited(g, [("-", (v, g.pts(v)))]), f"node '{v.method}/{v.slot}'"
    node = sorted(g.objects(), key=render_object)[i - len(variables)]
    touching = [e for e in g.var_edges if e[1] == node]
    touching += [e for e in g.field_edges if node in (e[0], e[2])]
    return edited(g, [("-", set_edge(e)) for e in touching]), f"node '{render_object(node)}'"


_NO_TARGETS = "no points-to targets to replace"


def _replace_object(a: Artwork, rng: random.Random, g: PointsToGraph, i: int) -> tuple[PointsToGraph, str]:
    # every edge's target is one of the objects: with fewer than two, none has another
    objects = _all_objects(a)
    if len(objects) < 2:
        raise NothingToTamperError(_NO_TARGETS)
    e = _sorted_edges(g)[i]
    new = rng.choice([o for o in objects if o != e[-1]])
    mutated = edited(g, [("-", set_edge(e)), ("+", set_edge((*e[:-1], new)))])
    return mutated, f"edge '{render_edge(e)}' target -> {render_object(new)}"


def _shared_count(g: PointsToGraph) -> int:
    return sum(len(objs) >= 2 for _, objs in g.target_sets())


def _shrink_set(a: Artwork, rng: random.Random, g: PointsToGraph, i: int) -> tuple[PointsToGraph, str]:
    var_sets, field_sets = [], []
    for slot, objs in g.target_sets():
        if len(objs) >= 2:
            (var_sets if len(slot) == 1 else field_sets).append((slot, objs))
    var_sets.sort(key=lambda c: (c[0][0].method, c[0][0].slot))
    field_sets.sort(key=lambda c: (render_object(c[0][0]), c[0][1]))
    slot, targets = (var_sets + field_sets)[i]  # slot is (v,) or (s, f)
    if len(slot) == 1:
        label = f"{slot[0].method}/{slot[0].slot}"
    else:
        label = f"{render_object(slot[0])}.{slot[1]}"
    keep = min(targets, key=render_object)
    return edited(g, [("-", (*slot, targets - {keep}))]), f"set '{label}' kept {render_object(keep)}"


def _delete_entry(a: Artwork, rng: random.Random, program: Program | None) -> tuple[Artwork, str]:
    entries = _entries(a)
    if not entries:
        raise NothingToTamperError("no entries to delete")
    key, _ = rng.choice(entries)
    return _with_entry(a, key, None), f"{_entry_name(key)} deleted"


_ADD_EDGE_TRIES = 64


def _add_edge(a: Artwork, rng: random.Random, program: Program | None) -> tuple[Artwork, str]:
    if program is None:
        raise ValueError("add-edge tampering requires the program")
    entries = _entries(a)
    if not entries:
        raise NothingToTamperError("no entries to extend")
    methods = {m.name: m for m in program.methods}
    sites: list[ObjectId] = [o for o in identifiers(program) if isinstance(o, Site)]
    objects: list[ObjectId] = sites + [NULL_OBJECT]
    above = carried_fixed_point(program, a)  # None: re-close from the empty graph
    instrs = (s.instr for m in program.methods for s in m.body)
    fields = sorted({i.f for i in instrs if isinstance(i, (FieldStore, FieldLoad))})
    for _ in range(_ADD_EDGE_TRIES):
        key, g = rng.choice(entries)
        scope = key[1][0] if key[0] == "loop" else key[1]
        m = methods[scope]
        edge: VarEdge | FieldEdge | None = None
        if rng.random() < 0.5 and fields and sites:
            src = rng.choice(sites)
            edge = (src, rng.choice(fields), rng.choice(objects))
            if edge[2] in g.field_targets(src, edge[1]):
                edge = None
        elif m.var_count:
            v = VarId(m.name, rng.randrange(m.var_count))
            edge = (v, rng.choice(objects))
            if edge[1] in g.pts(v):
                edge = None
        if edge is None:
            continue
        inject = {key[0]: {key[1]: edited(EMPTY, [("+", set_edge(edge))])}}
        closed = analyze_inter(program, _inject=inject, _above=above)
        try:
            mutated = emit_artwork(program, closed)
        except ArtError:
            continue  # the addition does not belong to any fixed point; retry
        if _has_more_entries(mutated, a):
            # The source was optimized: shrink the same way, and keep that
            # only if the consumer still accepts it.
            shrunk = optimize_artwork(program, mutated)
            if regen_inter(program, shrunk).safe:
                mutated = shrunk
        if mutated == a:
            continue  # the header's flow equation already derives the edge; retry
        return replace(mutated), f"{_entry_name(key)} edge '{render_edge(edge)}'"  # drops the fixed point
    raise NothingToTamperError("no conservative edge addition found")


def _has_more_entries(a: Artwork, b: Artwork) -> bool:
    """True when ``a`` holds an entry key that ``b`` lacks."""
    return not (
        a.i_loop.keys() <= b.i_loop.keys()
        and a.i_in.keys() <= b.i_in.keys()
        and a.i_out.keys() <= b.i_out.keys()
    )


_KINDS: dict[TamperKind, Callable[[Artwork, random.Random, Program | None], tuple[Artwork, str]]] = {
    TamperKind.REMOVE_EDGE: partial(_reduce, PointsToGraph.edge_count, "no edges to remove", _remove_edge),
    TamperKind.REMOVE_NODE: partial(_reduce, _node_count, "no nodes to remove", _remove_node),
    TamperKind.REPLACE_OBJECT: partial(_reduce, PointsToGraph.edge_count, _NO_TARGETS, _replace_object),
    TamperKind.SHRINK_SET: partial(
        _reduce, _shared_count, "no points-to set with two or more targets", _shrink_set
    ),
    TamperKind.DELETE_ENTRY: _delete_entry,
    TamperKind.ADD_EDGE: _add_edge,
}


@gc_paused
def tamper(
    a: Artwork, kind: TamperKind, seed: int, program: Program | None = None
) -> tuple[Artwork, TamperSpec]:
    """Apply one seeded mutation; deterministic given (artifact, kind, seed).

    AddEdge re-closes the flow equations and therefore requires ``program``;
    every other kind works on the artifact alone.  The mutated artifact
    always remains structurally valid (it decodes successfully).
    """
    if not isinstance(kind, TamperKind):
        raise ValueError(kind)
    mutated, target = _KINDS[kind](a, random.Random(seed), program)
    return mutated, TamperSpec(seed=seed, kind=kind, target=target)


@dataclass(frozen=True)
class CampaignTrial:
    spec: TamperSpec
    verdict: str  # "SAFE" | "UNSAFE"
    violation_kind: str | None


@dataclass(frozen=True)
class CampaignReport:
    trials: tuple[CampaignTrial, ...]

    @property
    def n(self) -> int:
        return len(self.trials)

    @property
    def detected(self) -> int:
        return sum(1 for t in self.trials if t.verdict == "UNSAFE")

    def to_lines(self) -> list[str]:
        lines = [
            f"{t.spec.kind.value} {t.spec.target} {t.verdict}" for t in self.trials
        ]
        lines.append(f"detected {self.detected}/{self.n}")
        return lines


@gc_paused
def rq2_campaign(p: Program, a: Artwork, n: int, seed: int) -> CampaignReport:
    """Run ``n`` independent reductive tamperings against the consumer and
    report per-trial verdicts; every trial must be detected for a least
    fixed-point artifact.  A negative ``n`` raises ``ValueError``."""
    if n < 0:
        raise ValueError("trial count must be non-negative")
    rng = random.Random(seed)
    trials: list[CampaignTrial] = []
    for i in range(n):
        trial_seed = rng.getrandbits(63)
        for j in range(len(REDUCTIVE_KINDS)):
            kind = REDUCTIVE_KINDS[(i + j) % len(REDUCTIVE_KINDS)]
            try:
                mutated, spec = tamper(a, kind, trial_seed)
                break
            except NothingToTamperError:
                pass
        else:
            raise NothingToTamperError("artwork has no non-trivial element")
        outcome = regen_inter(p, mutated)
        trials.append(
            CampaignTrial(
                spec=spec,
                verdict="SAFE" if outcome.safe else "UNSAFE",
                violation_kind=None if outcome.safe else outcome.violation.kind,
            )
        )
    return CampaignReport(trials=tuple(trials))
