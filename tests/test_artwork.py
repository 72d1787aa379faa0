import random

import pytest

from artpta import (
    NULL_OBJECT,
    Artwork,
    MalformedArtworkError,
    PointsToGraph,
    Program,
    Site,
    TamperKind,
    UnknownReferenceError,
    VarId,
    analyze_inter,
    chaotic_oracle,
    decode,
    emit_artwork,
    encode,
    naive_encode,
    parse_artwork,
    stats,
    tamper,
)
from artpta.artwork import parse_naive

REC_SITES = [Site("foo", 4), Site("foo", 5)]
REC_OBJS = REC_SITES + [NULL_OBJECT]
REC_VARS = [VarId("main", 0), VarId("main", 1), VarId("foo", 0), VarId("foo", 3), VarId("foo", 4)]
FIELDS = ["f", "g", "zz"]


def _random_graph(rng: random.Random) -> PointsToGraph:
    var_edges = {
        (rng.choice(REC_VARS), rng.choice(REC_OBJS)) for _ in range(rng.randrange(4))
    }
    field_edges = {
        (rng.choice(REC_SITES), rng.choice(FIELDS), rng.choice(REC_OBJS))
        for _ in range(rng.randrange(4))
    }
    return PointsToGraph(frozenset(var_edges), frozenset(field_edges))


def _random_artwork(rng: random.Random) -> Artwork:
    i_loop = {}
    for label in rng.sample(range(1, 10), rng.randrange(3)):
        i_loop[("foo", label)] = _random_graph(rng)
    i_in = {}
    for name in ("main", "foo"):
        if rng.random() < 0.8:
            i_in[name] = _random_graph(rng)
    i_out = {}
    if rng.random() < 0.6:
        i_out["foo"] = _random_graph(rng)
    return Artwork(i_loop=i_loop, i_in=i_in, i_out=i_out)


def test_empty_artwork_encoding():
    data = encode(Artwork.empty())
    assert data == b"ART/6\n[loop]\n[in]\n[out]\n"
    assert parse_artwork(data) == Artwork.empty()


def test_round_trip_fixtures(loopy_pipeline, rec_pipeline, arith_pipeline):
    for p, _, a in (loopy_pipeline, rec_pipeline, arith_pipeline):
        assert decode(encode(a), p) == a


def test_round_trip_random_artworks(rec):
    rng = random.Random(42)
    for _ in range(300):
        a = _random_artwork(rng)
        assert decode(encode(a), rec) == a


def test_encode_deterministic(rec_pipeline):
    _, _, a = rec_pipeline
    assert encode(a) == encode(a)


def test_encode_injective_on_corpus(small_corpus):
    artworks = []
    for _, p in small_corpus:
        artworks.append(encode(emit_artwork(p, analyze_inter(p))))
    assert len(set(artworks)) == len(artworks)


def test_rec_encoding_uses_slots_and_site_tuples(rec_pipeline):
    _, _, a = rec_pipeline
    text = encode(a).decode()
    # objects as method:label tuples, written :label in their method's
    # entry; foo's [out] entry is the one store after its self-call
    assert "[out]\nfoo ^\n+ :5 .f :4\n" in text
    # variables as slot indices, one line per variable with its sorted targets
    assert "foo {\n  /0 :4 null\n" in text


def test_truncated_file_rejected(rec_pipeline):
    rec, _, a = rec_pipeline
    data = encode(a)
    for cut in (3, len(data) // 2, len(data) - 2):
        with pytest.raises(MalformedArtworkError):
            decode(data[:cut], rec)


@pytest.mark.parametrize(
    "mutation,exc",
    [
        (lambda d: d.replace(b"ART/6", b"ART/1"), MalformedArtworkError),  # the old grammar
        (lambda d: d.replace(b"[in]\n", b""), MalformedArtworkError),
        (lambda d: d.replace(b" .f ", b" . "), MalformedArtworkError),
        (lambda d: d.replace(b"foo {", b"ghost {", 1), UnknownReferenceError),
        (lambda d: d.replace(b"  /0 ", b"  /9 "), UnknownReferenceError),
        (lambda d: d.replace(b" :4", b" :1"), UnknownReferenceError),  # not an alloc
        (lambda d: d.replace(b"[out]\nfoo", b"[out]\nmain"), UnknownReferenceError),
    ],
)
def test_decode_rejections(rec_pipeline, mutation, exc):
    rec, _, a = rec_pipeline
    with pytest.raises(exc):
        decode(mutation(encode(a)), rec)


def test_random_corruptions_never_crash(rec_pipeline):
    rec, _, a = rec_pipeline
    data = encode(a)
    rng = random.Random(7)
    rejected = accepted = 0
    for _ in range(200):
        pos = rng.randrange(len(data))
        blob = bytes(rng.randrange(256) for _ in range(16))
        corrupted = data[:pos] + blob + data[pos + 16 :]
        try:
            decode(corrupted, rec)
            accepted += 1
        except (MalformedArtworkError, UnknownReferenceError):
            rejected += 1
    assert rejected + accepted == 200
    assert rejected > 150  # almost all binary splats break the syntax


def test_semantic_tampering_always_decodes(rec_pipeline):
    rec, _, a = rec_pipeline
    for i, kind in enumerate(
        (TamperKind.REMOVE_EDGE, TamperKind.REMOVE_NODE, TamperKind.REPLACE_OBJECT,
         TamperKind.SHRINK_SET, TamperKind.DELETE_ENTRY)
    ):
        mutated, _ = tamper(a, kind, seed=100 + i)
        assert decode(encode(mutated), rec) == mutated


def test_naive_encode_empty_program():
    r = chaotic_oracle(Program(methods=(), entry=""))
    assert naive_encode(r) == b"NAIVE/1\n"


def test_naive_has_one_graph_per_point(loopy_pipeline):
    loopy, result, a = loopy_pipeline
    dump = parse_naive(naive_encode(result))
    labels = {s.label for s in loopy.method("main").body}
    assert {pt for (_, pt) in dump} == {"entry", "exit"} | {f"l:{l}" for l in labels}
    # the compact artifact stores one loop graph and one IN entry instead
    assert len(a.i_loop) == 1 and len(a.i_in) == 1
    assert len(encode(a)) < len(naive_encode(result))


def test_stats_counts(rec_pipeline):
    rec, result, a = rec_pipeline
    st = stats(rec, a, result)
    assert (st.loop_entries, st.in_entries, st.out_entries) == (0, 2, 1)
    assert st.bytes_art == len(encode(a))
    assert st.bytes_naive == len(naive_encode(result))


def test_stats_empty_program():
    r = chaotic_oracle(Program(methods=(), entry=""))
    st = stats(Program(methods=(), entry=""), Artwork.empty(), r)
    assert st.loop_entries == st.in_entries == st.out_entries == 0


def test_a_repeat_in_the_first_entry_rejected():
    data = b"ART/6\n[loop]\n[in]\nfoo ^\n[out]\n"
    with pytest.raises(MalformedArtworkError):
        parse_artwork(data)


def test_duplicate_entry_rejected():
    data = b"ART/6\n[loop]\n[in]\nfoo {\n}\nfoo {\n}\n[out]\n"
    with pytest.raises(MalformedArtworkError):
        parse_artwork(data)


def _pinned_programs(small_corpus) -> list[Program]:
    """The small corpus plus four programs of the benchmark's large shape
    (one self-recursive method of 300 statements)."""
    from artpta import CorpusConfig, generate_corpus, parse_program

    large = generate_corpus(
        CorpusConfig(program_count=4, seed=1, methods_min=1, methods_max=1, stmts_min=300, stmts_max=300, recursion_prob=1.0)
    )
    return [p for _, p in small_corpus] + [parse_program(text) for _, text in large]


def _optimized_corpus(small_corpus, decoded: bool) -> list[tuple[Program, Artwork]]:
    """``optimize_artwork(...)`` for each of ``_pinned_programs``, with its
    program: of each emitted artwork, which carries its fixed point, or
    with ``decoded`` of its decoded copy, which is regenerated."""
    from artpta import optimize_artwork

    optimized = []
    for p in _pinned_programs(small_corpus):
        a = emit_artwork(p, analyze_inter(p))
        optimized.append((p, optimize_artwork(p, decode(encode(a), p) if decoded else a)))
    return optimized


# The optimized artifacts' bytes, and the values they decode to: each entry's
# section, key and ``render_graph`` lines, which do not depend on the codec.
OPTIMIZED_CORPUS_SHA256 = "2afb00d9515435fe4a57e9d4e4bd0050ff8042b33c1af54fe788dce6f468167e"
OPTIMIZED_VALUES_SHA256 = "b2c46f90787d0bd8b58eb1d6abdd42e1e805232ce54194db59a37d91111fe00b"


def test_optimized_artifact_bytes_are_pinned(small_corpus, reference_encode):
    import hashlib

    from artpta import render_graph

    for decoded in (False, True):
        h, values = hashlib.sha256(), hashlib.sha256()
        for p, a in _optimized_corpus(small_corpus, decoded):
            data = encode(a)
            assert data == reference_encode(a)
            h.update(len(data).to_bytes(8, "little"))
            h.update(data)
            back = decode(data, p)
            for section, entries in (("loop", back.i_loop), ("in", back.i_in), ("out", back.i_out)):
                for key, g in entries.items():
                    values.update(f"{section} {key}\n{render_graph(g)}\n".encode())
        assert h.hexdigest() == OPTIMIZED_CORPUS_SHA256, decoded
        assert values.hexdigest() == OPTIMIZED_VALUES_SHA256, decoded


# Over the same programs, the plain artifacts' bytes and the ``NAIVE/1``
# dumps of the least fixed points, each length-prefixed.
PLAIN_CORPUS_SHA256 = "ee67478c42daef05c73b1ed29c8032e9e980cb0f34a273bacc67ec020f7af532"
NAIVE_CORPUS_SHA256 = "c0c23a063cfebbc5aed62a1ccf6ae54bde83ad88a1de0e5462bf98f03450e930"


def test_plain_artifact_and_dump_bytes_are_pinned(small_corpus):
    import hashlib

    plain, naive = hashlib.sha256(), hashlib.sha256()
    for p in _pinned_programs(small_corpus):
        result = analyze_inter(p)
        for h, data in ((plain, encode(emit_artwork(p, result))), (naive, naive_encode(result))):
            h.update(len(data).to_bytes(8, "little"))
            h.update(data)
    assert plain.hexdigest() == PLAIN_CORPUS_SHA256
    assert naive.hexdigest() == NAIVE_CORPUS_SHA256


def test_an_emitted_artwork_prints_as_its_decoded_copy(small_corpus):
    # Emission and decode both fill the maps in key order, so an artwork
    # and its decoded copy print alike, as they compare and encode alike.
    from artpta import optimize_artwork

    for _, p in small_corpus:
        plain = emit_artwork(p, analyze_inter(p))
        for a in (plain, optimize_artwork(p, plain)):
            assert repr(decode(encode(a), p)) == repr(a)
