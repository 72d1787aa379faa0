import random

import pytest

from artpta import (
    NULL_OBJECT,
    Artwork,
    MalformedArtworkError,
    Placeholder,
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
REC_OBJS = REC_SITES + [NULL_OBJECT, Placeholder("foo", 0)]
REC_VARS = [VarId("main", 0), VarId("main", 1), VarId("foo", 0), VarId("foo", 3), VarId("foo", 4)]
FIELDS = ["f", "g", "zz"]


def _random_graph(rng: random.Random) -> PointsToGraph:
    var_edges = {
        (rng.choice(REC_VARS), rng.choice(REC_OBJS)) for _ in range(rng.randrange(4))
    }
    field_edges = {
        (rng.choice(REC_SITES + [Placeholder("foo", 0)]), rng.choice(FIELDS), rng.choice(REC_OBJS))
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
    pool = None
    if rng.random() < 0.3:
        pool = tuple({_random_graph(rng) for _ in range(rng.randrange(1, 3))})
    return Artwork(i_loop=i_loop, i_in=i_in, i_out=i_out, dedup_pool=pool)


def test_empty_artwork_encoding():
    data = encode(Artwork.empty())
    assert data == b"ART/1\n[loop]\n[in]\n[out]\n"
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
    assert "foo/0 -> foo:4" in text  # variables as slot indices
    assert "foo:5 .f-> foo:4" in text  # objects as method:label tuples
    assert "foo/0 -> null" in text


def test_truncated_file_rejected(rec_pipeline):
    rec, _, a = rec_pipeline
    data = encode(a)
    for cut in (3, len(data) // 2, len(data) - 2):
        with pytest.raises(MalformedArtworkError):
            decode(data[:cut], rec)


@pytest.mark.parametrize(
    "mutation,exc",
    [
        (lambda d: d.replace(b"ART/1", b"ART/2"), MalformedArtworkError),
        (lambda d: d.replace(b"[in]\n", b""), MalformedArtworkError),
        (lambda d: d.replace(b" .f-> ", b" .-> "), MalformedArtworkError),
        (lambda d: d.replace(b"m:foo = {", b"m:ghost = {", 1), UnknownReferenceError),
        (lambda d: d.replace(b"foo/0", b"foo/9"), UnknownReferenceError),
        (lambda d: d.replace(b"foo:4", b"foo:1"), UnknownReferenceError),  # not an alloc
        (lambda d: d.replace(b"[out]\nm:foo", b"[out]\nm:main"), UnknownReferenceError),
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
    assert st.dedup_savings == 0


def test_stats_empty_program():
    r = chaotic_oracle(Program(methods=(), entry=""))
    st = stats(Program(methods=(), entry=""), Artwork.empty(), r)
    assert st.loop_entries == st.in_entries == st.out_entries == 0
    assert st.dedup_savings == 0


def test_stats_dedup_savings_of_a_pooled_optimized_artifact(small_corpus):
    from artpta import optimize_artwork
    from artpta.producer import _pool_saving

    pooled_seen = 0
    for _, p in small_corpus:
        result = analyze_inter(p)
        a = optimize_artwork(p, emit_artwork(p, result))
        if not a.dedup_pool:
            continue
        pooled_seen += 1
        unpooled = Artwork(i_loop=a.i_loop, i_in=a.i_in, i_out=a.i_out, dedup_pool=None)
        saving = len(encode(unpooled)) - len(encode(a))
        uses: dict = {}
        for section in (a.i_loop, a.i_in, a.i_out):
            for g in section.values():
                uses[g] = uses.get(g, 0) + 1
        assert stats(p, a, result).dedup_savings == saving == _pool_saving(a.dedup_pool, uses)
        assert saving > 0
    assert pooled_seen >= 3


def test_pool_reference_to_missing_graph_rejected():
    data = b"ART/1\n[loop]\n[in]\nm:foo = g3\n[out]\n"
    with pytest.raises(MalformedArtworkError):
        parse_artwork(data)


def test_duplicate_entry_rejected():
    data = b"ART/1\n[loop]\n[in]\nm:foo = {\n}\nm:foo = {\n}\n[out]\n"
    with pytest.raises(MalformedArtworkError):
        parse_artwork(data)
