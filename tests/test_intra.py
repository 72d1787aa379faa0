"""Pinned behaviour of the intra-procedural entry points, ``analyze_intra``
and ``regen_intra``: exact evaluation counts, values, visit maps and verdicts
on the call-free methods of the fixtures and of ``small_corpus``, with clean
artifacts and with tampered ones."""

import hashlib

import pytest

from artpta import (
    Artwork,
    PointsToGraph,
    Program,
    Site,
    analyze_intra,
    emit_artwork,
    encode,
    naive_encode,
    regen_intra,
)
from artpta.errors import NothingToTamperError
from artpta.ir import Call
from artpta.tamper import REDUCTIVE_KINDS, tamper


def _digest(r) -> str:
    """Every value of a result: each point's OUT, and both summaries."""
    summaries = Artwork(i_loop={}, i_in=r.in_summary, i_out=r.out_summary)
    return hashlib.sha256(naive_encode(r) + encode(summaries)).hexdigest()[:16]


def _once_each(m) -> dict:
    return {(m.name, s.label): 1 for s in m.body}


def test_loopy_main_empty_artwork_is_unsafe(loopy):
    m = loopy.method("main")
    out = regen_intra(m, Artwork.empty())
    assert not out.safe and out.result is None
    v = out.violation
    assert (v.kind, v.method, v.location) == ("LoopInvariant", "main", 5)
    assert out.visits == _once_each(m)
    assert out.transfer_applications == 13


def test_arith_main_empty_artwork_is_safe(arith):
    # ARITH's loop body touches no reference: the deleted-entry default is
    # already the invariant.
    m = arith.method("main")
    out = regen_intra(m, Artwork.empty())
    assert out.safe
    assert out.visits == _once_each(m)
    assert out.transfer_applications == 6
    assert out.result.same_values(analyze_intra(m))


def test_loopy_main_dropped_field_edge_is_unsafe(loopy):
    m = loopy.method("main")
    a = emit_artwork(loopy, analyze_intra(m))
    g = a.i_loop[("main", 5)]
    edge = (Site("main", 6), "f", Site("main", 3))
    tampered = Artwork(
        i_loop={("main", 5): PointsToGraph(g.var_edges, g.field_edges - {edge})},
        i_in=a.i_in,
        i_out=a.i_out,
    )
    out = regen_intra(m, tampered)
    v = out.violation
    assert (out.safe, v.kind, v.method, v.location) == (False, "LoopInvariant", "main", 5)
    assert edge in v.found.field_edges and edge not in v.expected.field_edges
    assert out.visits == _once_each(m)
    assert out.transfer_applications == 13


def test_a_stored_in_entry_is_replaced_by_the_placeholder_entry(small_corpus):
    # ``regen_intra`` regenerates from each parameter's placeholder, whatever
    # the artifact stores as the method's IN summary.
    p = dict(small_corpus)["gen003.ir"]
    m = p.method("h3")
    r = analyze_intra(m)
    a = emit_artwork(Program(methods=(m,), entry=m.name), r)
    assert not a.i_in["h3"].is_empty()
    for i_in in ({}, {"h3": PointsToGraph.of()}):
        out = regen_intra(m, Artwork(i_loop=a.i_loop, i_in=i_in, i_out=a.i_out))
        assert out.safe and out.result.same_values(r)
        assert out.result.in_summary == {"h3": r.in_summary["h3"]}
        assert out.transfer_applications == 32


# Call-free methods of ``small_corpus`` (``loopy.ir`` and ``arith.ir`` are
# LOOPY and ARITH), keyed (program, method):
# (param count, iteration_count, value digest, regen transfer_applications
#  on the clean artifact, then per reductive kind with seed 7 either None
#  (nothing to tamper) or (violated loop header, transfer_applications)).
CORPUS = {
    ("loopy.ir", "main"): (0, 24, "3f8e8052ded02dc4", 13, [(5, 13), (5, 13), (5, 13), (5, 13)]),
    ("arith.ir", "main"): (0, 7, "495349dea4653115", 6, [(3, 6), (3, 6), None, None]),
    ("gen001.ir", "main"): (0, 17, "984a178112976d6c", 14, [(10, 14), (10, 14), (10, 14), None]),
    ("gen002.ir", "main"): (0, 31, "9ebcdb1d0140b0c2", 26, [(14, 25), (14, 25), (14, 25), None]),
    ("gen003.ir", "h3"): (2, 58, "2962b0aab7f625ee", 32, [(19, 31), (19, 31), (19, 31), (19, 31)]),
    ("gen004.ir", "h1"): (0, 10, "ef2423b952132e27", 9, [(3, 9), (3, 9), None, None]),
    ("gen004.ir", "h2"): (2, 17, "410d664948a67ac4", 14, [(6, 14), (6, 14), (6, 14), None]),
    ("gen005.ir", "h2"): (2, 49, "f65638ad19b03e4e", 32, [(17, 31), (17, 31), (17, 31), (25, 32)]),
    ("gen006.ir", "h2"): (2, 25, "036c4c7ce22a1f3b", 19, [(12, 19), (7, 18), (7, 18), (7, 18)]),
    ("gen007.ir", "h2"): (2, 50, "f6abe717e425410e", 37, [(15, 35), (29, 36), (15, 35), (32, 37)]),
    ("gen008.ir", "h3"): (1, 36, "e6167203013a13b1", 25, [(9, 24), (9, 24), (5, 23), (5, 23)]),
    ("gen009.ir", "main"): (0, 25, "60816745a115e625", 18, [(5, 17), (13, 18), (5, 17), None]),
    ("gen009.ir", "h3"): (1, 20, "34bc622228969a2a", 16, [(10, 16), (10, 16), (10, 16), None]),
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
    r = analyze_intra(m)
    assert (r.iteration_count, _digest(r)) == (evals, digest)
    a = emit_artwork(Program(methods=(m,), entry=m.name), r)
    out = regen_intra(m, a)
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
        mutated, _ = tamper(a, kind, 7)
        out = regen_intra(m, mutated)
        v = out.violation
        assert (out.safe, v.kind, v.method) == (False, "LoopInvariant", m.name), kind
        assert (v.location, out.transfer_applications) == expect, kind
        assert out.visits == _once_each(m), kind
