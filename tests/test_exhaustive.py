"""Every reduction of small entries, through the artifact's bytes.

For the three fixtures and the first generated programs of the seed-1
default-shape corpus, plain and ``-O`` artifacts: from each entry of at
most ``SUBSET_LIMIT`` edges every nonempty set of edges is removed, and from
each larger entry every single edge.  Each mutated artwork is encoded, must
decode back to itself, and ``regen_inter`` must reject the decoded copy:
the artifact holds values of the least fixed point, so a value with fewer
edges is below it, and a consumer that accepts one is unsound.

The slice is the fixtures and ``PROGRAMS`` generated programs: 7,411
mutations, about 7 s of CPU for the module on a 2-core x86-64 machine with
CPython 3.11 (the first 40 programs, 18,220 mutations, took 16 s).  The
mutation kinds are not sampled."""

import itertools

import pytest

from artpta import (
    ARITH,
    LOOPY,
    REC,
    Artwork,
    CorpusConfig,
    analyze_inter,
    decode,
    emit_artwork,
    encode,
    generate_corpus,
    optimize_artwork,
    parse_program,
    regen_inter,
)
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


def _mutations(a: Artwork):
    """(where, removed edges, mutated artwork) for every reduction of every
    entry of ``a``."""
    for section in ("i_loop", "i_in", "i_out"):
        for key, g in getattr(a, section).items():
            for removed in _reductions(g):
                maps = {s: dict(getattr(a, s)) for s in ("i_loop", "i_in", "i_out")}
                maps[section][key] = edited(g, [("-", set_edge(e)) for e in removed])
                yield f"{section} {key}", removed, Artwork(**maps)


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
    assert total == 7411
