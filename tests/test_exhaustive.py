"""Every reduction of small entries, every single-entry deletion and every
single-edge addition, through the artifact's bytes.

For the three fixtures and the first generated programs of the seed-1
default-shape corpus, plain and ``-O`` artifacts: from each entry of at
most ``SUBSET_LIMIT`` edges every nonempty set of edges is removed, and from
each larger entry every single edge.  Each mutated artwork is encoded, must
decode back to itself, and ``regen_inter`` must reject the decoded copy:
the artifact holds values of the least fixed point, so a value with fewer
edges is below it, and a consumer that accepts one is unsound.

The slice is the fixtures and ``PROGRAMS`` generated programs: 1,715
mutations (7,411 while a ``[loop]`` entry held the header's whole value,
about 7 s of CPU for the module on a 2-core x86-64 machine with CPython
3.11).  The mutation kinds are not sampled.

Over the same slice, each entry of each plain artifact is deleted alone:
the consumer may accept a deletion (it puts a stand-in in the entry's
place), but then it must regenerate a fixed point at or above the least
one, and every entry ``optimize_artwork`` drops must regenerate the least
fixed point itself.  On the three fixtures, each entry of the plain
artifact gets, one at a time, each edge it lacks that the program's
identifiers allow: from a slot of the entry's method, or from a site
through a field the program uses, to a site or ``null``.  Re-closed as
add-edge tampering re-closes it, the consumer must accept the maps
emission would write exactly when the re-closure satisfies the flow
equations; added as is, every artifact the consumer accepts must
regenerate a fixed point (an edge the header's flow equation already
derives, added to a ``[loop]`` entry, changes nothing)."""

import itertools

import pytest

from artpta import (
    ARITH,
    LOOPY,
    NULL_OBJECT,
    REC,
    Artwork,
    CorpusConfig,
    PointsToGraph,
    Site,
    VarId,
    analyze_inter,
    decode,
    emit_artwork,
    encode,
    generate_corpus,
    meet,
    optimize_artwork,
    parse_program,
    regen_inter,
    subsumes,
    validate_result,
)
from artpta.ir import FieldLoad, FieldStore, identifiers
from artpta.producer import _entries
from artpta.ptg import edited, render_edge, set_edge

SUBSET_LIMIT = 8
PROGRAMS = 20


def _sources() -> dict[str, str]:
    generated = [f for f in generate_corpus(CorpusConfig(program_count=PROGRAMS, seed=1)) if f[0].startswith("gen")]
    return {"loopy": LOOPY, "rec": REC, "arith": ARITH, **dict(generated)}


SOURCES = _sources()


def _reductions(g):
    """Every set of edges to remove from ``g``: all nonempty subsets when
    ``g`` has at most ``SUBSET_LIMIT`` edges, else every single edge."""
    edges = sorted(g.var_edges, key=render_edge) + sorted(g.field_edges, key=render_edge)
    if len(edges) > SUBSET_LIMIT:
        return [(e,) for e in edges]
    return [c for r in range(1, len(edges) + 1) for c in itertools.combinations(edges, r)]


SECTIONS = ("i_loop", "i_in", "i_out")


def _with(a: Artwork, section: str, key, g: PointsToGraph | None) -> Artwork:
    """``a`` with one entry replaced by ``g``, or deleted when ``g`` is None."""
    maps = {s: dict(getattr(a, s)) for s in SECTIONS}
    if g is None:
        del maps[section][key]
    else:
        maps[section][key] = g
    return Artwork(**maps)


def _mutations(a: Artwork):
    """(where, removed edges, mutated artwork) for every reduction of every
    entry of ``a``."""
    for section in SECTIONS:
        for key, g in getattr(a, section).items():
            for removed in _reductions(g):
                mutated = _with(a, section, key, edited(g, [("-", set_edge(e)) for e in removed]))
                yield f"{section} {key}", removed, mutated


@pytest.mark.parametrize("name", list(SOURCES))
def test_every_reduction_round_trips_and_is_rejected(name):
    p = parse_program(SOURCES[name])
    plain = emit_artwork(p, analyze_inter(p))
    for a in (plain, optimize_artwork(p, plain)):
        for where, removed, mutated in _mutations(a):
            data = encode(mutated)
            back = decode(data, p)
            assert back == mutated, (where, removed)
            outcome = regen_inter(p, back)
            assert not outcome.safe, f"accepted a reduction of {where} by {removed}:\n{data.decode()}"


def test_the_slice_is_the_fixtures_and_the_first_programs():
    # the number of mutations the test above runs
    assert len(SOURCES) == 3 + PROGRAMS
    total = 0
    for name in SOURCES:
        p = parse_program(SOURCES[name])
        plain = emit_artwork(p, analyze_inter(p))
        total += sum(1 for a in (plain, optimize_artwork(p, plain)) for _ in _mutations(a))
    assert total == 1715


def _round_trip(p, a: Artwork) -> Artwork:
    back = decode(encode(a), p)
    assert back == a
    return back


def _covers(result, lfp) -> bool:
    """``result`` holds every value of ``lfp``, pointwise."""
    return all(
        subsumes(getattr(result, m).get(k), g)
        for m in ("out", "in_summary", "out_summary")
        for k, g in getattr(lfp, m).items()
    )


def test_every_single_entry_deletion_regenerates_at_or_above_the_least_fixed_point():
    deletions = accepted = dropped = 0
    for name, text in SOURCES.items():
        p = parse_program(text)
        lfp = analyze_inter(p)
        plain = emit_artwork(p, lfp)
        opt = optimize_artwork(p, plain)
        for section in SECTIONS:
            for key in getattr(plain, section):
                outcome = regen_inter(p, _round_trip(p, _with(plain, section, key, None)))
                deletions += 1
                where = f"{name}: {section} {key}"
                if outcome.safe:
                    accepted += 1
                    assert validate_result(p, outcome.result) == [], where
                    assert _covers(outcome.result, lfp), where
                if key not in getattr(opt, section):
                    dropped += 1
                    assert outcome.safe and outcome.result.same_values(lfp), where
    assert (deletions, accepted, dropped) == (131, 60, 60)


def _additions(p, a: Artwork):
    """(section, key, entry, edge) for each edge an entry of ``a`` lacks
    that the identifiers of ``p`` allow."""
    ids = identifiers(p)
    sites = [o for o in ids if o.__class__ is Site]
    targets = sites + [NULL_OBJECT]
    fields = sorted({s.instr.f for m in p.methods for s in m.body if isinstance(s.instr, (FieldStore, FieldLoad))})
    for section in SECTIONS:
        for key, g in getattr(a, section).items():
            scope = key[0] if section == "i_loop" else key
            slots = [v for v in ids if v.__class__ is VarId and v.method == scope]
            for v in slots:
                yield from ((section, key, g, (v, t)) for t in targets if t not in g.pts(v))
            for s, f in itertools.product(sites, fields):
                yield from ((section, key, g, (s, f, t)) for t in targets if t not in g.field_targets(s, f))


def test_every_single_edge_addition_gets_the_verdict_of_the_flow_equations():
    additions = closed_ok = raw_accepted = 0
    for name, text in {"loopy": LOOPY, "rec": REC, "arith": ARITH}.items():
        p = parse_program(text)
        lfp = analyze_inter(p)
        plain = emit_artwork(p, lfp)
        for section, key, g, edge in _additions(p, plain):
            extra = PointsToGraph.of(**{"var_edges" if len(edge) == 2 else "field_edges": [edge]})
            where = f"{name}: {section} {key} + {render_edge(edge)}"
            additions += 1
            # re-closed, as add-edge tampering re-closes it
            closed = analyze_inter(p, _inject={section[2:]: {key: extra}}, _above=lfp)
            ok = validate_result(p, closed) == []
            closed_ok += ok
            assert regen_inter(p, Artwork(*_entries(p, closed))).safe == ok, where
            # added as is
            outcome = regen_inter(p, _round_trip(p, _with(plain, section, key, meet(g, extra))))
            if outcome.safe:
                raw_accepted += 1
                assert validate_result(p, outcome.result) == [], where
    assert (additions, closed_ok, raw_accepted) == (167, 145, 138)
