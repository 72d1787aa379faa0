import hashlib
from collections import Counter

import pytest

from artpta import (
    Artwork,
    CorpusConfig,
    NothingToTamperError,
    TamperKind,
    analyze_inter,
    chaotic_oracle,
    decode,
    emit_artwork,
    encode,
    generate_corpus,
    optimize_artwork,
    parse_program,
    regen_inter,
    rq2_campaign,
    subsumes,
    tamper,
)
from artpta import ir, ptg
from artpta.producer import carried_fixed_point
from artpta.ptg import NULL_OBJECT, PointsToGraph, render_object
from artpta.tamper import REDUCTIVE_KINDS


def _entry_maps(a: Artwork):
    return {("loop", k): v for k, v in a.i_loop.items()} | {
        ("in", k): v for k, v in a.i_in.items()
    } | {("out", k): v for k, v in a.i_out.items()}


@pytest.mark.parametrize("kind", list(TamperKind))
def test_tamper_deterministic(rec_pipeline, kind):
    rec, _, a = rec_pipeline
    program = rec if kind is TamperKind.ADD_EDGE else None
    one, spec_one = tamper(a, kind, seed=99, program=program)
    two, spec_two = tamper(a, kind, seed=99, program=program)
    assert encode(one) == encode(two)
    assert spec_one == spec_two
    assert spec_one.kind is kind and spec_one.seed == 99


@pytest.mark.parametrize("kind", REDUCTIVE_KINDS)
def test_reductive_kinds_strictly_reduce_an_entry(loopy_pipeline, kind):
    loopy, _, a = loopy_pipeline
    mutated, spec = tamper(a, kind, seed=3)
    before = _entry_maps(a)
    after = _entry_maps(mutated)
    assert set(before) == set(after)
    changed = [k for k in before if before[k] != after[k]]
    assert len(changed) == 1
    k = changed[0]
    if kind is TamperKind.REPLACE_OBJECT:
        # replacement removes the original element (and adds a different one)
        assert not subsumes(after[k], before[k])
    else:
        assert subsumes(before[k], after[k]) and before[k] != after[k]


def test_every_reductive_draw_takes_an_element_of_its_entry_away(small_corpus):
    """Every reductive kind, seeds 0-5, on the plain and ``-O`` artworks of
    the programs ``test_tamper_outputs_are_pinned`` draws from: one entry
    changes, and it no longer holds all of its source, which the consumer's
    detection of every such draw rests on; every kind but replace-object
    also adds nothing to it."""
    large = generate_corpus(CorpusConfig(program_count=2, seed=1, **LARGE_SHAPE))
    programs = [p for _, p in small_corpus] + [parse_program(text) for _, text in large]
    checked = Counter()
    for p in programs:
        plain = emit_artwork(p, analyze_inter(p))
        for a in (plain, optimize_artwork(p, plain)):
            before = _entry_maps(a)
            for kind in REDUCTIVE_KINDS:
                for seed in range(6):
                    try:
                        mutated, spec = tamper(a, kind, seed)
                    except NothingToTamperError:
                        continue
                    after = _entry_maps(mutated)
                    assert set(after) == set(before), spec
                    (k,) = [k for k in before if before[k] != after[k]]
                    assert not subsumes(after[k], before[k]), spec
                    if kind is not TamperKind.REPLACE_OBJECT:
                        assert subsumes(before[k], after[k]), spec
                    checked[kind] += 1
    # ARITH's artworks hold only empty entries: nothing to draw; and no
    # shrink-set on the first roundtrip-large program, whose artworks hold no
    # set of two or more targets now that its [out] entry lacks its base
    assert [checked[kind] for kind in REDUCTIVE_KINDS] == [192, 192, 192, 156]


@pytest.mark.parametrize("kind", REDUCTIVE_KINDS)
def test_reductive_tampering_detected(loopy_pipeline, rec_pipeline, kind):
    for p, _, a in (loopy_pipeline, rec_pipeline):
        for seed in range(4):
            mutated, _ = tamper(a, kind, seed=seed)
            assert not regen_inter(p, mutated).safe


def test_remove_edge_on_loopy_invariant_detected(loopy_pipeline):
    loopy, _, a = loopy_pipeline
    # every edge of the single loop entry is load-bearing at the fixed point
    for seed in range(10):
        mutated, spec = tamper(a, TamperKind.REMOVE_EDGE, seed=seed)
        out = regen_inter(loopy, mutated)
        assert not out.safe
        assert out.violation.kind == "LoopInvariant"


def test_add_edge_requires_program(rec_pipeline):
    _, _, a = rec_pipeline
    with pytest.raises(ValueError):
        tamper(a, TamperKind.ADD_EDGE, seed=1)


def test_add_edge_safe_and_subsuming(rec_pipeline, loopy_pipeline):
    for p, r, a in (rec_pipeline, loopy_pipeline):
        oracle = chaotic_oracle(p)
        for seed in range(6):
            mutated, spec = tamper(a, TamperKind.ADD_EDGE, seed=seed, program=p)
            out = regen_inter(p, mutated)
            assert out.safe, spec.target
            assert all(subsumes(out.result.out[k], oracle.out[k]) for k in oracle.out)


def test_add_edge_strictly_grows_somewhere(rec_pipeline):
    rec, r, a = rec_pipeline
    mutated, _ = tamper(a, TamperKind.ADD_EDGE, seed=5, program=rec)
    out = regen_inter(rec, mutated)
    assert out.safe and not out.result.same_values(r)


def _keys(a: Artwork):
    return set(a.i_loop), set(a.i_in), set(a.i_out)


def test_add_edge_on_optimized_artifacts_keeps_their_entries():
    """On ``-O`` artifacts add-edge shrinks the re-closed artifact the way
    ``optimize_artwork`` does, so the mutation keeps the source's entry keys;
    the consumer accepts it and regenerates a cover of the least fixed
    point."""
    kept = 0
    for name, text in generate_corpus(CorpusConfig(program_count=10, seed=1)):
        p = parse_program(text)
        r = analyze_inter(p)
        a = optimize_artwork(p, emit_artwork(p, r))
        try:
            mutated, _ = tamper(a, TamperKind.ADD_EDGE, seed=3, program=p)
        except NothingToTamperError:
            continue
        assert _keys(mutated) == _keys(a), name
        out = regen_inter(p, mutated)
        assert out.safe, name
        assert all(subsumes(out.result.out[k], g) for k, g in r.out.items()), name
        kept += 1
    assert kept >= 9


def test_delete_entry_classifications(arith_pipeline, loopy_pipeline, rec_pipeline):
    # deleting the arithmetic loop's entry is harmless: the default (the
    # header's IN) is already the fixed point
    arith, arith_r, arith_a = arith_pipeline
    deleted = Artwork(i_loop={}, i_in=dict(arith_a.i_in), i_out=dict(arith_a.i_out))
    out = regen_inter(arith, deleted)
    assert out.safe and out.result.same_values(arith_r)
    # LOOPY's loop allocates, so its deleted entry is rediscovered as tampering
    loopy, _, loopy_a = loopy_pipeline
    deleted = Artwork(i_loop={}, i_in=dict(loopy_a.i_in), i_out=dict(loopy_a.i_out))
    assert not regen_inter(loopy, deleted).safe
    # REC's summaries differ, so a deleted OUT entry is detected
    rec, _, rec_a = rec_pipeline
    deleted = Artwork(i_loop=dict(rec_a.i_loop), i_in=dict(rec_a.i_in), i_out={})
    assert not regen_inter(rec, deleted).safe


def test_delete_entry_via_tamper_op(arith_pipeline):
    arith, _, a = arith_pipeline
    seen = set()
    for seed in range(12):
        mutated, spec = tamper(a, TamperKind.DELETE_ENTRY, seed=seed)
        total = len(mutated.i_loop) + len(mutated.i_in) + len(mutated.i_out)
        assert total == len(a.i_loop) + len(a.i_in) + len(a.i_out) - 1
        seen.add(spec.target)
    assert len(seen) > 1  # different seeds pick different entries


def test_nothing_to_tamper_on_empty_artwork():
    for kind in REDUCTIVE_KINDS + (TamperKind.DELETE_ENTRY,):
        with pytest.raises(NothingToTamperError):
            tamper(Artwork.empty(), kind, seed=0)


def test_tamper_kind_must_be_a_tamper_kind(rec_pipeline):
    """The kind's name alone is not a kind."""
    _, _, a = rec_pipeline
    with pytest.raises(ValueError):
        tamper(a, "remove-edge", 1)


def test_add_edge_finds_nothing_to_add_to_a_program_without_objects():
    p = parse_program("method main() {\n  1: nop\n}\n")
    a = emit_artwork(p, analyze_inter(p))
    with pytest.raises(NothingToTamperError, match="^no conservative edge addition found$"):
        tamper(a, TamperKind.ADD_EDGE, seed=0, program=p)


def test_shrink_requires_multi_target_set():
    # REC's entries happen to have multi-target sets; build one without any
    p = parse_program("method main() {\n  1: a = new A\n  2: a.f = a\n}")
    a = emit_artwork(p, analyze_inter(p))
    with pytest.raises(NothingToTamperError):
        tamper(a, TamperKind.SHRINK_SET, seed=0)


# ---------------------------------------------------------------------------
# rq2 campaigns
# ---------------------------------------------------------------------------


def test_campaign_empty():
    report = rq2_campaign(
        parse_program("method main() {\n  1: nop\n}"), Artwork.empty(), 0, seed=1
    )
    assert report.n == 0 and report.detected == 0
    assert report.to_lines() == ["detected 0/0"]


def test_campaign_detects_everything(loopy_pipeline, rec_pipeline):
    for p, _, a in (loopy_pipeline, rec_pipeline):
        report = rq2_campaign(p, a, 10, seed=42)
        assert report.detected == report.n == 10


def test_campaign_deterministic_and_formatted(loopy_pipeline):
    loopy, _, a = loopy_pipeline
    one = rq2_campaign(loopy, a, 6, seed=9).to_lines()
    two = rq2_campaign(loopy, a, 6, seed=9).to_lines()
    assert one == two
    assert one[-1] == "detected 6/6"
    for line in one[:-1]:
        kind = line.split()[0]
        assert kind in {k.value for k in REDUCTIVE_KINDS}
        assert line.endswith("UNSAFE")


def test_campaign_requires_nontrivial_element():
    p = parse_program("method main() {\n  1: nop\n}")
    a = emit_artwork(p, analyze_inter(p))  # single empty IN entry
    with pytest.raises(NothingToTamperError):
        rq2_campaign(p, a, 1, seed=0)


def test_campaign_on_an_indexed_program_builds_no_cfg(loopy_pipeline, rec_pipeline, count_calls):
    for p, _, a in (loopy_pipeline, rec_pipeline):
        ir.ProgramIndex.of(p)
        calls = count_calls(ir, "build_cfg")
        report = rq2_campaign(p, a, 20, seed=5)
        assert report.detected == report.n == 20
        assert calls["build_cfg"] == 0


def test_tampered_pooled_artifacts_encode_canonically(small_corpus, reference_encode):
    """``encode`` writes a mutated ``-O`` artifact as the reference encoder
    does, so every bare ``^`` stands for a graph equal to the entry before it,
    and decoding any artifact ``encode`` wrote and encoding it again gives
    the same bytes."""
    large = generate_corpus(
        CorpusConfig(program_count=2, seed=1, methods_min=1, methods_max=1, stmts_min=300, stmts_max=300, recursion_prob=1.0)
    )
    programs = [p for _, p in small_corpus] + [parse_program(text) for _, text in large]
    repeated = mutated_repeated = 0
    for p in programs:
        a = optimize_artwork(p, emit_artwork(p, analyze_inter(p)))
        data = encode(a)
        if b" ^\n" not in data:
            continue
        repeated += 1
        for kind in TamperKind:
            for seed in range(3):
                try:
                    mutated, spec = tamper(a, kind, seed, program=p)
                except NothingToTamperError:
                    continue
                out = encode(mutated)
                assert out == reference_encode(mutated), spec
                mutated_repeated += b" ^\n" in out
                assert decode(out, p) == mutated
                assert encode(decode(out, p)) == out
        assert decode(data, p) == a and encode(decode(data, p)) == data
    assert repeated >= 6 and mutated_repeated >= 6 * len(TamperKind)


# The digests of every tamper output below, in order: each spec's target
# string or the NothingToTamperError message (the draws, which do not
# depend on the codec), and each mutated artwork's bytes.
TAMPER_DRAWS_SHA256 = "1130de43b6feecfa9e9eb1b75221062c95e7efac130e5b78c51798abe2c4191e"
TAMPER_BYTES_SHA256 = "dc758e09ef4ced065da8342b3c7a14d9b004beca100b1ded97d61f2b35d94cae"


def test_tamper_outputs_are_pinned(small_corpus):
    """Every kind, seeds 0-5, on the plain and ``-O`` artworks of the small
    corpus and of two programs of the roundtrip-large shape (one
    self-recursive method of 300 statements): the targets, the bytes and
    the refusals are fixed."""
    large = generate_corpus(
        CorpusConfig(program_count=2, seed=1, methods_min=1, methods_max=1, stmts_min=300, stmts_max=300, recursion_prob=1.0)
    )
    programs = [p for _, p in small_corpus] + [parse_program(text) for _, text in large]
    draws, data = hashlib.sha256(), hashlib.sha256()
    outputs = 0
    for p in programs:
        plain = emit_artwork(p, analyze_inter(p))
        for a in (plain, optimize_artwork(p, plain)):
            for kind in TamperKind:
                for seed in range(6):
                    try:
                        mutated, spec = tamper(a, kind, seed, program=p)
                    except NothingToTamperError as exc:
                        draws.update(f"refused {exc}\n".encode())
                        continue
                    draws.update(f"{spec.target}\n".encode())
                    out = encode(mutated)
                    data.update(len(out).to_bytes(8, "little") + out)
                    outputs += 1
    assert (len(programs), outputs) == (18, 1140)
    assert draws.hexdigest() == TAMPER_DRAWS_SHA256
    assert data.hexdigest() == TAMPER_BYTES_SHA256


# ---------------------------------------------------------------------------
# add-edge's warm re-closure and the reductive kinds' per-entry draws
# ---------------------------------------------------------------------------

LARGE_SHAPE = dict(methods_min=1, methods_max=1, stmts_min=300, stmts_max=300, recursion_prob=1.0)

#: corpus shape -> (generator settings, program count)
WARM_CORPORA = {"default": ({}, 12), "roundtrip-large": (LARGE_SHAPE, 2)}


def _absent_edges(p, g, scope):
    """One variable edge and one field edge that ``g`` lacks, over the
    variables of method ``scope`` and the program's sites and fields, when
    there are such edges."""
    sites = [o for o in ir.identifiers(p) if isinstance(o, ir.Site)]
    objects = sorted(sites, key=render_object) + [NULL_OBJECT]
    fields = sorted({s.instr.f for m in p.methods for s in m.body if isinstance(s.instr, (ir.FieldStore, ir.FieldLoad))})
    method = next(m for m in p.methods if m.name == scope)
    variables = [ir.VarId(scope, k) for k in range(method.var_count)]
    var_edges = ((v, o) for v in variables for o in objects if o not in g.pts(v))
    field_edges = ((s, f, o) for s in sites for f in fields for o in objects if o not in g.field_targets(s, f))
    return [e for edges in (var_edges, field_edges) for e in [next(edges, None)] if e is not None]


@pytest.mark.parametrize("seed", [1, 90917])
@pytest.mark.parametrize("shape", sorted(WARM_CORPORA))
def test_add_edge_closes_warm_to_the_cold_values_in_fewer_evaluations(shape, seed):
    """An absent edge injected at a [loop], an [in] and an [out] entry,
    closed from the least fixed point without it (``_above``), reaches the
    values the run from the empty graph reaches, with fewer evaluations."""
    settings, count = WARM_CORPORA[shape]
    closed = Counter()
    evals = {"warm": 0, "cold": 0}
    for name, text in generate_corpus(CorpusConfig(program_count=count, seed=seed, **settings)):
        p = parse_program(text)
        least = analyze_inter(p)
        a = emit_artwork(p, least)
        for (section, key), g in _entry_maps(a).items():
            scope = key[0] if section == "loop" else key
            for edge in _absent_edges(p, g, scope):
                extra = PointsToGraph.of(var_edges=[edge]) if len(edge) == 2 else PointsToGraph.of(field_edges=[edge])
                inject = {section: {key: extra}}
                warm = analyze_inter(p, _inject=inject, _above=least)
                cold = analyze_inter(p, _inject=inject)
                assert warm.same_values(cold), (name, section, key, edge)
                evals["warm"] += warm.iteration_count
                evals["cold"] += cold.iteration_count
                closed[section] += 1
    assert all(closed[section] for section in ("loop", "in", "out")), closed
    assert evals["warm"] < evals["cold"], evals


def test_carried_fixed_point_only_while_the_maps_are_emissions(loopy_pipeline, rec_pipeline):
    """add-edge closes warm only from a fixed point the artwork carries and
    still encodes; a decoded, mutated or other program's artwork closes
    cold."""
    loopy, r, a = loopy_pipeline
    assert carried_fixed_point(loopy, a) is r
    assert carried_fixed_point(loopy, decode(encode(a), loopy)) is None
    mutated, _ = tamper(a, TamperKind.REMOVE_EDGE, seed=0)
    object.__setattr__(mutated, "fixed_point", r)
    assert carried_fixed_point(loopy, mutated) is None
    rec, _, rec_a = rec_pipeline
    assert carried_fixed_point(loopy, rec_a) is None
    assert carried_fixed_point(rec, a) is None


def test_a_remove_edge_draw_renders_only_the_drawn_entry(count_calls):
    """One remove-edge draw renders each edge of the entry it draws from
    once (to sort them) and the removed edge once more (for the target
    string); no other entry's edges are rendered."""
    large = generate_corpus(CorpusConfig(program_count=1, seed=1, **LARGE_SHAPE))
    p = parse_program(dict(large)["gen000.ir"])
    a = emit_artwork(p, analyze_inter(p))
    before = _entry_maps(a)
    edges = {k: len(g.var_edges) + len(g.field_edges) for k, g in before.items()}
    calls = count_calls(ptg, "render_edge")
    for seed in range(3):
        calls.clear()
        mutated, _ = tamper(a, TamperKind.REMOVE_EDGE, seed)
        after = _entry_maps(mutated)
        (drawn,) = [k for k in before if before[k] != after[k]]
        assert calls["render_edge"] <= edges[drawn] + 1 < sum(edges.values())
