"""Pinned behaviour of ``analyze_inter`` and ``regen_inter`` on call-free
methods, each taken alone as a one-method program (``_analyze_alone``):
exact evaluation counts, values, visit maps and verdicts on the call-free
methods of the fixtures and of ``small_corpus``, with clean artifacts and
with tampered ones."""

import hashlib

import pytest

from artpta import (
    Artwork,
    Placeholder,
    PointsToGraph,
    Program,
    Site,
    VarId,
    analyze_inter,
    emit_artwork,
    naive_encode,
    regen_inter,
    render_graph,
)
from artpta.errors import NothingToTamperError
from artpta.ir import Call
from artpta.tamper import REDUCTIVE_KINDS, tamper


def _digest(r) -> str:
    """Every value of a result: each point's OUT, and both summaries, each
    summary as its key and its ``render_edges`` lines (so the digest does
    not follow the artifact's byte layout)."""
    summaries = [
        f"{kind} {name}\n" + render_graph(g)
        for kind, summary in (("in", r.in_summary), ("out", r.out_summary))
        for name, g in sorted(summary.items())
    ]
    return hashlib.sha256(naive_encode(r) + "\n".join(summaries).encode()).hexdigest()[:16]


def _analyze_alone(m):
    """``m`` as a one-method program, and its least fixed point with each
    reference parameter pointing to its own placeholder object at Entry
    (seeded as the IN summary, which an artifact emitted from the result
    stores and ``regen_inter`` starts the entry method from)."""
    p = Program((m,), m.name)
    entry = PointsToGraph.of((VarId(m.name, i), Placeholder(m.name, i)) for i in range(len(m.params)))
    return p, analyze_inter(p, _inject={"in": {m.name: entry}})


def _once_each(m) -> dict:
    return {(m.name, s.label): 1 for s in m.body}


def test_loopy_main_empty_artwork_is_unsafe(loopy):
    m = loopy.method("main")
    out = regen_inter(loopy, Artwork.empty())
    assert not out.safe and out.result is None
    v = out.violation
    assert (v.kind, v.method, v.location) == ("LoopInvariant", "main", 5)
    assert out.visits == _once_each(m)
    assert out.transfer_applications == 14


def test_arith_main_empty_artwork_is_safe(arith):
    # ARITH's loop body touches no reference: the deleted-entry default is
    # already the invariant.
    m = arith.method("main")
    out = regen_inter(arith, Artwork.empty())
    assert out.safe
    assert out.visits == _once_each(m)
    assert out.transfer_applications == 7
    assert out.result.same_values(analyze_inter(arith))


def test_loopy_main_dropped_field_edge_is_unsafe(loopy):
    m = loopy.method("main")
    a = emit_artwork(loopy, analyze_inter(loopy))
    g = a.i_loop[("main", 5)]
    edge = (Site("main", 6), "f", Site("main", 3))
    tampered = Artwork(
        i_loop={("main", 5): PointsToGraph(g.var_edges, g.field_edges - {edge})},
        i_in=a.i_in,
        i_out=a.i_out,
    )
    out = regen_inter(loopy, tampered)
    v = out.violation
    assert (out.safe, v.kind, v.method, v.location) == (False, "LoopInvariant", "main", 5)
    assert edge in v.found.field_edges and edge not in v.expected.field_edges
    assert out.visits == _once_each(m)
    assert out.transfer_applications == 14


# Call-free methods of ``small_corpus`` (``loopy.ir`` and ``arith.ir`` are
# LOOPY and ARITH), keyed (program, method):
# (param count, iteration_count, value digest, regen transfer_applications
#  on the clean artifact, then per reductive kind with seed 7 either None
#  (nothing to tamper), "in" (the draw takes from the IN entry of the
#  entry method, which the consumer takes as the method's input: the
#  artifact regenerates the fixed point above that smaller input) or
#  (violated loop header, transfer_applications)).
CORPUS = {
    ("loopy.ir", "main"): (0, 24, "7fd2c0da195d5c4f", 14, [(5, 14), (5, 14), (5, 14), (5, 14)]),
    ("arith.ir", "main"): (0, 7, "90794fe64f352e48", 7, [None, None, None, None]),
    ("gen001.ir", "main"): (0, 17, "69c0ca1847d404a5", 15, [(10, 15), (10, 15), (10, 15), None]),
    ("gen002.ir", "main"): (0, 31, "02bff4963ad2a0e2", 29, [(8, 27), (8, 27), (8, 27), None]),
    ("gen003.ir", "h3"): (2, 58, "f745469536ff90a6", 35, [(19, 34), (25, 35), (19, 34), (8, 33)]),
    ("gen004.ir", "h1"): (0, 10, "03b7db3273334738", 10, [None, None, None, None]),
    ("gen004.ir", "h2"): (2, 17, "13edb71823ea9932", 15, ["in", (6, 15), "in", None]),
    ("gen005.ir", "h2"): (2, 49, "e2a2e712654d68cd", 35, [(17, 34), (25, 35), (17, 34), None]),
    ("gen006.ir", "h2"): (2, 25, "9ba683d72b972046", 21, [(7, 20), (7, 20), (7, 20), None]),
    ("gen007.ir", "h2"): (2, 50, "daaeb4998201dbd9", 41, [(15, 39), (15, 39), (15, 39), None]),
    ("gen008.ir", "h3"): (1, 36, "1ba951e4903cceed", 28, [(9, 27), (5, 26), (9, 27), (9, 27)]),
    ("gen009.ir", "main"): (0, 25, "468026a871f2818c", 20, [(5, 19), (13, 20), (5, 19), None]),
    ("gen009.ir", "h3"): (1, 20, "cd3b8e1fbe13cf5f", 18, [(10, 18), (10, 18), (10, 18), None]),
}


@pytest.fixture(scope="module")
def call_free(small_corpus):
    return {
        (name, m.name): m
        for name, p in small_corpus
        for m in p.methods
        if not any(isinstance(s.instr, Call) for s in m.body)
    }


def test_the_corpus_table_covers_every_call_free_method(call_free):
    assert set(call_free) == set(CORPUS)


@pytest.mark.parametrize("key", list(CORPUS))
def test_corpus_method_analyze_and_regen(call_free, key):
    params, evals, digest, applications, tampered = CORPUS[key]
    m = call_free[key]
    assert len(m.params) == params
    p, r = _analyze_alone(m)
    assert (r.iteration_count, _digest(r)) == (evals, digest)
    a = emit_artwork(p, r)
    out = regen_inter(p, a)
    assert out.safe and out.violation is None and out.violations == ()
    assert out.visits == _once_each(m)
    assert out.transfer_applications == out.result.iteration_count == applications
    assert out.methods_analyzed == frozenset({m.name})
    assert out.result.same_values(r)
    for kind, expect in zip(REDUCTIVE_KINDS, tampered):
        if expect is None:
            with pytest.raises(NothingToTamperError):
                tamper(a, kind, 7)
            continue
        mutated, spec = tamper(a, kind, 7)
        out = regen_inter(p, mutated)
        if expect == "in":
            assert spec.target.startswith("in ") and out.safe, kind
            assert out.result.in_summary == dict(mutated.i_in), kind
            continue
        v = out.violation
        assert (out.safe, v.kind, v.method) == (False, "LoopInvariant", m.name), kind
        assert (v.location, out.transfer_applications) == expect, kind
        assert out.visits == _once_each(m), kind
