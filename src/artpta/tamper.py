"""Seeded, reproducible artifact mutations: reductive (non-conservative)
kinds that the consumer must detect, whole-entry deletion (possibly safe via
the consumer's default-value rules), and conservative edge addition.

Reductive kinds remove or replace an element actually present in the source
artifact.  Because the producer emits the least fixed point, the mutated
entry lands strictly below it, cannot belong to any fixed point, and is
therefore detectable.

AddEdge is different: an arbitrary insertion is almost never part of a fixed
point (the extra edge cascades or fails to re-appear at a checked point), so
this kind injects the edge at its entry and re-closes the flow equations over
the whole program, emitting the resulting non-least fixed point.  That is a
genuinely conservative mutation: the consumer must accept it and regenerate a
sound over-approximation.  It consequently needs the program, not just the
artifact, and assumes the source artifact was producer-emitted.  When the
source lacks entries that emission writes (it was optimized), the emitted
artifact is shrunk by ``optimize_artwork`` too, if the consumer accepts the
shrunk one, so the mutation keeps its source's shape.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, replace

from .artwork import Artwork
from .consumer import regen_inter
from .errors import ArtError, NothingToTamperError
from .ir import FieldLoad, FieldStore, Program, identifiers
from .ptg import (
    NULL_OBJECT,
    FieldEdge,
    ObjectId,
    PointsToGraph,
    Site,
    VarEdge,
    VarId,
    edited,
    render_edge,
    render_object,
    set_edge,
)
from .producer import analyze_inter, emit_artwork, optimize_artwork


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


def _remove_edge(a: Artwork, rng: random.Random) -> tuple[Artwork, str]:
    candidates = [
        (key, g, e) for key, g in _entries(a) for e in _sorted_edges(g)
    ]
    if not candidates:
        raise NothingToTamperError("no edges to remove")
    key, g, e = rng.choice(candidates)
    mutated = edited(g, [("-", set_edge(e))])
    return _with_entry(a, key, mutated), f"{_entry_name(key)} edge '{render_edge(e)}'"


def _remove_node(a: Artwork, rng: random.Random) -> tuple[Artwork, str]:
    candidates: list[tuple[EntryKey, PointsToGraph, object]] = []
    for key, g in _entries(a):
        variables = sorted({v for (v, _) in g.var_edges}, key=lambda v: (v.method, v.slot))
        candidates.extend((key, g, ("var", v)) for v in variables)
        candidates.extend((key, g, ("obj", o)) for o in sorted(g.objects(), key=render_object))
    if not candidates:
        raise NothingToTamperError("no nodes to remove")
    key, g, (node_kind, node) = rng.choice(candidates)
    if node_kind == "var":
        mutated = edited(g, [("-", (node, g.pts(node)))])
        label = f"{node.method}/{node.slot}"
    else:
        touching = [e for e in g.var_edges if e[1] == node]
        touching += [e for e in g.field_edges if node in (e[0], e[2])]
        mutated = edited(g, [("-", set_edge(e)) for e in touching])
        label = render_object(node)
    return _with_entry(a, key, mutated), f"{_entry_name(key)} node '{label}'"


def _replace_object(a: Artwork, rng: random.Random) -> tuple[Artwork, str]:
    objects = _all_objects(a)
    candidates = []
    for key, g in _entries(a):
        for e in _sorted_edges(g):
            old = e[1] if len(e) == 2 else e[2]
            if any(o != old for o in objects):
                candidates.append((key, g, e, old))
    if not candidates:
        raise NothingToTamperError("no points-to targets to replace")
    key, g, e, old = rng.choice(candidates)
    new = rng.choice([o for o in objects if o != old])
    mutated = edited(g, [("-", set_edge(e)), ("+", set_edge((*e[:-1], new)))])
    return (
        _with_entry(a, key, mutated),
        f"{_entry_name(key)} edge '{render_edge(e)}' target -> {render_object(new)}",
    )


def _shrink_set(a: Artwork, rng: random.Random) -> tuple[Artwork, str]:
    candidates = []
    for key, g in _entries(a):
        for v in sorted({w for (w, _) in g.var_edges}, key=lambda w: (w.method, w.slot)):
            if len(g.pts(v)) >= 2:
                candidates.append((key, g, (v,)))
        slots = sorted(
            {(s, f) for (s, f, _) in g.field_edges},
            key=lambda sf: (render_object(sf[0]), sf[1]),
        )
        for s, f in slots:
            if len(g.field_targets(s, f)) >= 2:
                candidates.append((key, g, (s, f)))
    if not candidates:
        raise NothingToTamperError("no points-to set with two or more targets")
    key, g, slot = rng.choice(candidates)  # (v,) or (s, f)
    if len(slot) == 1:
        targets, label = g.pts(*slot), f"{slot[0].method}/{slot[0].slot}"
    else:
        targets, label = g.field_targets(*slot), f"{render_object(slot[0])}.{slot[1]}"
    keep = min(targets, key=render_object)
    mutated = edited(g, [("-", (*slot, targets - {keep}))])
    return (
        _with_entry(a, key, mutated),
        f"{_entry_name(key)} set '{label}' kept {render_object(keep)}",
    )


def _delete_entry(a: Artwork, rng: random.Random) -> tuple[Artwork, str]:
    entries = _entries(a)
    if not entries:
        raise NothingToTamperError("no entries to delete")
    key, _ = rng.choice(entries)
    return _with_entry(a, key, None), f"{_entry_name(key)} deleted"


_ADD_EDGE_TRIES = 64


def _add_edge(
    a: Artwork, rng: random.Random, program: Program
) -> tuple[Artwork, str]:
    entries = _entries(a)
    if not entries:
        raise NothingToTamperError("no entries to extend")
    methods = {m.name: m for m in program.methods}
    sites: list[ObjectId] = [o for o in identifiers(program) if isinstance(o, Site)]
    objects: list[ObjectId] = sites + [NULL_OBJECT]
    fields = sorted(
        {
            s.instr.f
            for m in program.methods
            for s in m.body
            if isinstance(s.instr, (FieldStore, FieldLoad))
        }
    )
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
        elif m.var_count and objects:
            v = VarId(m.name, rng.randrange(m.var_count))
            edge = (v, rng.choice(objects))
            if edge[1] in g.pts(v):
                edge = None
        if edge is None:
            continue
        if len(edge) == 2:
            extra = PointsToGraph.of(var_edges=[edge])
        else:
            extra = PointsToGraph.of(field_edges=[edge])
        section = key[0]
        inject = {section: {key[1]: extra}}
        closed = analyze_inter(program, _inject=inject)
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
        return replace(mutated), f"{_entry_name(key)} edge '{render_edge(edge)}'"  # drops the fixed point
    raise NothingToTamperError("no conservative edge addition found")


def _has_more_entries(a: Artwork, b: Artwork) -> bool:
    """True when ``a`` holds an entry key that ``b`` lacks."""
    return not (
        a.i_loop.keys() <= b.i_loop.keys()
        and a.i_in.keys() <= b.i_in.keys()
        and a.i_out.keys() <= b.i_out.keys()
    )


def tamper(
    a: Artwork,
    kind: TamperKind,
    seed: int,
    program: Program | None = None,
) -> tuple[Artwork, TamperSpec]:
    """Apply one seeded mutation; deterministic given (artifact, kind, seed).

    AddEdge re-closes the flow equations and therefore requires ``program``;
    every other kind works on the artifact alone.  The mutated artifact
    always remains structurally valid (it decodes successfully).
    """
    rng = random.Random(seed)
    if kind is TamperKind.ADD_EDGE:
        if program is None:
            raise ValueError("add-edge tampering requires the program")
        mutated, target = _add_edge(a, rng, program)
    elif kind is TamperKind.REMOVE_EDGE:
        mutated, target = _remove_edge(a, rng)
    elif kind is TamperKind.REMOVE_NODE:
        mutated, target = _remove_node(a, rng)
    elif kind is TamperKind.REPLACE_OBJECT:
        mutated, target = _replace_object(a, rng)
    elif kind is TamperKind.SHRINK_SET:
        mutated, target = _shrink_set(a, rng)
    elif kind is TamperKind.DELETE_ENTRY:
        mutated, target = _delete_entry(a, rng)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(kind)
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
        mutated = None
        spec = None
        for j in range(len(REDUCTIVE_KINDS)):
            kind = REDUCTIVE_KINDS[(i + j) % len(REDUCTIVE_KINDS)]
            try:
                mutated, spec = tamper(a, kind, trial_seed)
                break
            except NothingToTamperError:
                continue
        if mutated is None or spec is None:
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
