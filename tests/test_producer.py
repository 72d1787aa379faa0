import pytest

from artpta import (
    EMPTY,
    Artwork,
    CorpusConfig,
    NULL_OBJECT,
    PointsToGraph,
    Program,
    Site,
    VarId,
    analyze_inter,
    analyze_intra,
    chaotic_oracle,
    decode,
    emit_artwork,
    encode,
    generate_corpus,
    optimize_artwork,
    parse_program,
    regen_inter,
    validate_result,
)
from artpta import artwork
from artpta.ir import ENTRY
from artpta.producer import _pool_saving

LOOPY_HEADER = PointsToGraph.of(
    var_edges=[
        (VarId("main", 0), Site("main", 1)),
        (VarId("main", 0), Site("main", 6)),
        (VarId("main", 1), Site("main", 3)),
        (VarId("main", 1), Site("main", 9)),
        (VarId("main", 1), Site("main", 11)),
    ],
    field_edges=[
        (Site("main", 1), "f", Site("main", 3)),
        (Site("main", 6), "f", Site("main", 3)),
        (Site("main", 6), "f", Site("main", 9)),
        (Site("main", 6), "f", Site("main", 11)),
    ],
)

REC_IN_FOO = PointsToGraph.of(
    var_edges=[(VarId("foo", 0), Site("foo", 4)), (VarId("foo", 0), NULL_OBJECT)],
    field_edges=[(Site("foo", 4), "f", NULL_OBJECT)],
)

REC_OUT_FOO = PointsToGraph.of(
    field_edges=[
        (Site("foo", 4), "f", NULL_OBJECT),
        (Site("foo", 5), "f", Site("foo", 4)),
    ],
)


def test_straight_line_iteration_count_is_statement_count():
    p = parse_program(
        "method main() {\n  1: a = new A\n  2: b = a\n  3: b.f = a\n  4: c = b.f\n}"
    )
    r = analyze_intra(p.method("main"))
    assert r.iteration_count == 4


def test_loopy_header_fixed_point(loopy):
    r = analyze_intra(loopy.method("main"))
    assert r.out[("main", 5)] == LOOPY_HEADER


def test_loopy_intra_equals_oracle(loopy):
    r = analyze_intra(loopy.method("main"))
    assert r.same_values(chaotic_oracle(loopy))


def test_intra_rejects_calls(rec):
    with pytest.raises(ValueError):
        analyze_intra(rec.method("foo"))


def test_random_single_loop_method_equals_oracle():
    # 30 statements, one loop, no calls: the worklist engine and the
    # round-robin oracle must agree exactly.
    lines = ["method main() {"]
    lines += [f"  {i}: v{i} = new T{i % 3}" for i in range(1, 6)]
    lines += [
        "  6: v1.f = v2",
        "  7: v2.g = v3",
        "  8: w = v1.f",
        "  9: if goto 25",
        "  10: v1 = new T9",
        "  11: v1.f = w",
        "  12: w = v2.g",
        "  13: v2 = v1",
        "  14: v2.g = v4",
        "  15: u = v5",
        "  16: u.f = v1",
        "  17: v4 = u.f",
        "  18: v5.g = v4",
        "  19: t = new T7",
        "  20: t.f = t",
        "  21: v3 = t.f",
        "  22: w = null",
        "  23: w = v3",
        "  24: goto 9",
        "  25: z = v1.f",
        "  26: z.g = w",
        "  27: q = z.g",
        "  28: q = v2",
        "  29: nop",
        "  30: return",
        "}",
    ]
    p = parse_program("\n".join(lines))
    assert len(p.method("main").body) == 30
    r = analyze_intra(p.method("main"))
    assert r.same_values(chaotic_oracle(p))
    assert r.iteration_count > 30  # the loop forced re-evaluation


def test_inter_no_calls_equals_intra_with_empty_entries():
    text = """\
method main() {
  1: a = new A
  2: a.f = a
}
method side() {
  1: b = new B
  2: b.g = b
}
"""
    p = parse_program(text)
    r = analyze_inter(p)
    for m in p.methods:
        intra = analyze_intra(m)
        for s in m.body:
            assert r.out[(m.name, s.label)] == intra.out[(m.name, s.label)]
        assert r.in_summary[m.name] == EMPTY
        assert r.out_summary[m.name] == intra.out_summary[m.name]


def test_inter_empty_entry_for_parameterized_methods():
    text = "method main() {\n  1: nop\n}\nmethod h(p) {\n  1: q = p.f\n}\n"
    r = analyze_inter(parse_program(text))
    assert r.in_summary["h"] == EMPTY
    assert r.out[("h", ENTRY)] == EMPTY


def test_rec_summaries(rec):
    r = analyze_inter(rec)
    assert r.in_summary["foo"] == REC_IN_FOO
    assert r.out_summary["foo"] == REC_OUT_FOO


def test_rec_equals_oracle(rec):
    assert analyze_inter(rec).same_values(chaotic_oracle(rec))


def test_two_cycle_call_graph_equals_oracle():
    text = """\
method main() {
  1: a = new A
  2: call [foo](a)
}
method foo(x) {
  1: if goto 4
  2: b = new B
  3: call [bar](b)
  4: return
}
method bar(y) {
  1: y.f = y
  2: if goto 4
  3: call [foo](y)
  4: return
}
"""
    p = parse_program(text)
    assert analyze_inter(p).same_values(chaotic_oracle(p))


def test_arity_mismatch_raises():
    text = "method main() {\n  1: a = new A\n  2: call [h](a, a)\n}\nmethod h(p) {\n  1: nop\n}\n"
    from artpta import ArityMismatchError

    with pytest.raises(ArityMismatchError):
        analyze_inter(parse_program(text))


def test_oracle_empty_program():
    r = chaotic_oracle(Program(methods=(), entry=""))
    assert r.out == {} and r.in_summary == {} and r.out_summary == {}


def test_flow_equations_hold(small_corpus):
    for name, p in small_corpus:
        r = analyze_inter(p)
        assert validate_result(p, r) == [], name


def test_oracle_equivalence_on_corpus(small_corpus):
    for name, p in small_corpus:
        assert analyze_inter(p).same_values(chaotic_oracle(p)), name


# ---------------------------------------------------------------------------
# emit_artwork
# ---------------------------------------------------------------------------


def test_emit_loop_free_call_free():
    p = parse_program("method main() {\n  1: a = new A\n}\nmethod s() {\n  1: nop\n}\n")
    a = emit_artwork(p, analyze_inter(p))
    assert a.i_loop == {} and a.i_out == {}
    assert set(a.i_in) == {"main", "s"}


def test_emit_loopy_single_loop_entry(loopy_pipeline):
    _, _, a = loopy_pipeline
    assert set(a.i_loop) == {("main", 5)}
    assert a.i_loop[("main", 5)] == LOOPY_HEADER


def test_emit_rec_out_keys(rec_pipeline):
    _, _, a = rec_pipeline
    assert set(a.i_out) == {"foo"}


def test_emit_rejects_broken_result(loopy):
    r = analyze_inter(loopy)
    r.out[("main", 5)] = EMPTY  # no longer satisfies the flow equations
    with pytest.raises(Exception):
        emit_artwork(loopy, r)


def test_emit_is_deterministic(loopy):
    one = encode(emit_artwork(loopy, analyze_inter(loopy)))
    two = encode(emit_artwork(loopy, analyze_inter(loopy)))
    assert one == two


# ---------------------------------------------------------------------------
# optimize_artwork
# ---------------------------------------------------------------------------


def test_optimize_drops_arithmetic_loop(arith_pipeline):
    arith, _, a = arith_pipeline
    assert set(a.i_loop) == {("main", 3)}
    opt = optimize_artwork(arith, a)
    assert opt.i_loop == {}


def test_optimize_keeps_loopy_loop(loopy_pipeline):
    loopy, _, a = loopy_pipeline
    opt = optimize_artwork(loopy, a)
    assert set(opt.i_loop) == {("main", 5)}


def test_optimize_drops_single_call_site_in_entry():
    text = """\
method main() {
  1: a = new A
  2: a.f = a
  3: call [once](a)
}
method once(p) {
  1: q = p.f
}
"""
    p = parse_program(text)
    a = emit_artwork(p, analyze_inter(p))
    opt = optimize_artwork(p, a)
    assert "once" not in opt.i_in
    assert "main" not in opt.i_in  # never called, empty entry
    out = regen_inter(p, opt)
    assert out.safe and out.result.same_values(analyze_inter(p))


def test_optimize_keeps_self_only_recursive_in_entry():
    # A method whose only call-site is its own recursion cannot have its IN
    # summary re-derived by the consumer, so it must stay encoded.
    text = """\
method main() {
  1: nop
}
method solo(p) {
  1: x = new A
  2: if goto 4
  3: call [solo](x)
  4: return
}
"""
    p = parse_program(text)
    a = emit_artwork(p, analyze_inter(p))
    opt = optimize_artwork(p, a)
    assert "solo" in opt.i_in
    out = regen_inter(p, opt)
    assert out.safe and out.result.same_values(analyze_inter(p))


def test_optimize_analyzes_only_when_an_in_entry_may_drop(monkeypatch):
    # The only call-site of a lone self-recursive method lies in its own SCC,
    # so no IN entry can be dropped and the analysis result is never needed.
    text = """\
method main() {
  1: a = new A
  2: a.f = a
  3: if goto 7
  4: b = a.f
  5: b.g = a
  6: goto 3
  7: if goto 9
  8: c = call [main]()
  9: return a
}
"""
    p = parse_program(text)
    a = emit_artwork(p, analyze_inter(p))
    calls = []

    def counted(program, *args, **kwargs):
        calls.append(program)
        return analyze_inter(program, *args, **kwargs)

    monkeypatch.setattr("artpta.producer.analyze_inter", counted)
    opt = optimize_artwork(p, a)
    assert calls == []
    assert encode(opt) == (
        b"ART/1\n[loop]\nm:main l:3 = {\n  main/0 -> main:1\n  main/1 -> main:1\n"
        b"  main:1 .f-> main:1\n  main:1 .g-> main:1\n}\n[in]\nm:main = {\n}\n"
        b"[out]\nm:main = {\n  main/3 -> main:1\n  main:1 .f-> main:1\n"
        b"  main:1 .g-> main:1\n}\n"
    )


def test_optimize_drops_out_equal_to_in():
    text = "method main() {\n  1: if goto 3\n  2: call [main]()\n  3: nop\n}\n"
    p = parse_program(text)
    r = analyze_inter(p)
    a = emit_artwork(p, r)
    assert r.in_summary["main"] == r.out_summary["main"] == EMPTY
    opt = optimize_artwork(p, a)
    assert "main" not in opt.i_out
    out = regen_inter(p, opt)
    assert out.safe and out.result.same_values(r)


def test_optimize_smaller_or_equal_and_regen_identical(small_corpus):
    for name, p in small_corpus:
        r = analyze_inter(p)
        a = emit_artwork(p, r)
        opt = optimize_artwork(p, a)
        assert len(encode(opt)) <= len(encode(a)), name
        plain = regen_inter(p, decode(encode(a), p))
        opted = regen_inter(p, decode(encode(opt), p))
        assert plain.safe and opted.safe, name
        assert plain.result.same_values(opted.result), name


def test_dedup_pool_referenced_by_index():
    # Two methods with identical IN summaries (same shapes) rarely dedup; use
    # a handcrafted duplicate: a recursive method whose in and out summary
    # coincide with a loop invariant is overkill, so force duplicates by
    # giving two loops the same fixed point.
    text = """\
method main() {
  1: a = new A
  2: a.f = a
  3: if goto 6
  4: a.f = a
  5: goto 3
  6: if goto 9
  7: a.f = a
  8: goto 6
  9: nop
}
"""
    p = parse_program(text)
    a = emit_artwork(p, analyze_inter(p))
    assert a.i_loop[("main", 3)] == a.i_loop[("main", 6)]
    opt = optimize_artwork(p, a)
    if opt.dedup_pool:
        data = encode(opt)
        assert b"[pool]" in data and b"= g0" in data
        assert decode(data, p) == opt


def _candidate_pool(a: Artwork) -> tuple[tuple[PointsToGraph, ...], dict]:
    counts: dict = {}
    for section in (a.i_loop, a.i_in, a.i_out):
        for _, graph in sorted(section.items()):
            counts[graph] = counts.get(graph, 0) + 1
    return tuple(g for g, n in counts.items() if n >= 2 and not g.is_empty()), counts


def test_optimize_keeps_the_smaller_encoding_without_encoding(small_corpus, count_calls):
    large = generate_corpus(
        CorpusConfig(program_count=4, seed=2, methods_min=1, methods_max=1, stmts_min=300, stmts_max=300, recursion_prob=1.0)
    )
    programs = [p for _, p in small_corpus] + [parse_program(text) for _, text in large]
    pooled_seen = 0
    for p in programs:
        a = emit_artwork(p, analyze_inter(p))
        calls = count_calls(artwork, "encode")
        opt = optimize_artwork(p, a)
        assert calls["encode"] == 0
        plain = Artwork(i_loop=opt.i_loop, i_in=opt.i_in, i_out=opt.i_out, dedup_pool=None)
        pool, counts = _candidate_pool(plain)
        expected = plain
        if pool:
            pooled = Artwork(i_loop=opt.i_loop, i_in=opt.i_in, i_out=opt.i_out, dedup_pool=pool)
            saving = len(encode(plain)) - len(encode(pooled))
            assert _pool_saving(pool, counts) == saving
            if saving > 0:
                expected = pooled
                pooled_seen += 1
        assert opt == expected and encode(opt) == encode(expected)
    assert pooled_seen >= 3


def test_pool_saving_counts_utf8_bytes():
    shared = PointsToGraph.of(field_edges=[(Site("m", 1), "\xe9t\xe9", Site("m", 2))])
    uses = {shared: 2}
    plain = Artwork(i_loop={}, i_in={"a": shared, "b": shared}, i_out={}, dedup_pool=None)
    pooled = Artwork(i_loop={}, i_in={"a": shared, "b": shared}, i_out={}, dedup_pool=(shared,))
    assert _pool_saving((shared,), uses) == len(encode(plain)) - len(encode(pooled))


def _optimize_from_analysis(p: Program, a: Artwork) -> Artwork:
    """Reference optimizer: the rules of ``optimize_artwork`` with the
    call-site values taken from ``analyze_inter``'s least fixed point."""
    from artpta.equations import in_value
    from artpta.ir import REF_INSTRS, ProgramIndex
    from artpta.ptg import project_in

    index = ProgramIndex(p)
    result = analyze_inter(p)
    i_loop = {
        (name, h): g
        for (name, h), g in a.i_loop.items()
        if any(
            isinstance(index.stmts[name][l].instr, REF_INSTRS)
            for l in index.cfgs[name].loop_body(h)
        )
    }
    i_in = {}
    for name, g in a.i_in.items():
        sites = index.call_graph.call_sites_of(name)
        if not sites:
            if not g.is_empty():
                i_in[name] = g
            continue
        scc = index.call_graph.scc_of(name)
        projections = {
            project_in(
                in_value(index, result.out, caller, label),
                index.methods[caller],
                index.stmts[caller][label],
                index.methods[name],
            )
            for caller, label in sites
        }
        if (
            any(label in index.cfgs[caller].loop_headers for caller, label in sites)
            or all(caller in scc for caller, _ in sites)
            or projections != {g}
        ):
            i_in[name] = g
    i_out = {name: g for name, g in a.i_out.items() if g != a.i_in.get(name)}
    plain = Artwork(i_loop=i_loop, i_in=i_in, i_out=i_out, dedup_pool=None)
    pool, _ = _candidate_pool(plain)
    if pool:
        pooled = Artwork(i_loop=i_loop, i_in=i_in, i_out=i_out, dedup_pool=pool)
        if len(encode(pooled)) < len(encode(plain)):
            return pooled
    return plain


# f's first listed call-site (in g) sees the meet of both projections, but
# the consumer reaches the smaller one (in h) first: the IN entry must stay.
FIRST_SITE_IS_THE_MEET = """\
method main() {
  1: x = new A
  2: y = new B
  3: call [h](x)
  4: call [g](x, y)
}
method g(p, q) {
  1: p.f = q
  2: call [f](p)
}
method h(p) {
  1: call [f](p)
}
method f(p) {
  1: nop
}
"""


def test_optimize_reads_the_regeneration_not_a_second_analysis(
    small_corpus, call_chain, count_calls
):
    from artpta import producer

    large = generate_corpus(
        CorpusConfig(program_count=4, seed=2, methods_min=1, methods_max=1, stmts_min=300, stmts_max=300, recursion_prob=1.0)
    )
    programs = [p for _, p in small_corpus] + [parse_program(text) for _, text in large]
    programs += [parse_program(call_chain(1500)), parse_program(FIRST_SITE_IS_THE_MEET)]
    dropped = 0
    for p in programs:
        a = emit_artwork(p, analyze_inter(p))
        expected = encode(_optimize_from_analysis(p, a))
        calls = count_calls(producer, "analyze_inter")
        opt = optimize_artwork(p, a)
        assert calls["analyze_inter"] == 0
        assert encode(opt) == expected
        dropped += len(a.i_in) - len(opt.i_in)
    assert dropped >= 1500


def test_optimize_regenerates_once_and_only_on_first_need(count_calls):
    from artpta import consumer

    self_only = parse_program(
        "method main() {\n  1: nop\n}\n"
        "method solo(p) {\n  1: x = new A\n  2: if goto 4\n  3: call [solo](x)\n  4: return\n}\n"
    )
    calls = count_calls(consumer, "regenerate")
    optimize_artwork(self_only, emit_artwork(self_only, analyze_inter(self_only)))
    assert calls["regenerate"] == 0
    two_sites = parse_program(
        "method main() {\n  1: a = new A\n  2: call [f](a)\n  3: call [g](a)\n  4: call [f](a)\n}\n"
        "method f(p) {\n  1: nop\n}\nmethod g(p) {\n  1: nop\n}\n"
    )
    opt = optimize_artwork(two_sites, emit_artwork(two_sites, analyze_inter(two_sites)))
    assert calls["regenerate"] == 1
    assert set(opt.i_in) == set()


def test_optimize_rejects_a_reduced_artifact(rec_pipeline):
    from artpta import ArtError, tamper
    from artpta.tamper import REDUCTIVE_KINDS

    p, _, a = rec_pipeline
    for seed in range(8):
        for kind in REDUCTIVE_KINDS:
            mutated, _ = tamper(a, kind, seed)
            with pytest.raises(ArtError, match="^artifact does not regenerate: "):
                optimize_artwork(p, mutated)


def test_a_loop_seed_stays_in_its_statement_and_flows_on(loopy):
    # ``_inject`` seeds at a loop header: the seed is met into the header's
    # OUT on every evaluation, so it survives re-evaluation and reaches the
    # exit.  A field the program never touches makes it a fixed point.
    from artpta import subsumes

    edge = (Site("main", 6), "zz", Site("main", 6))
    r = analyze_inter(loopy, _inject={"loop": {("main", 5): PointsToGraph.of(field_edges=[edge])}})
    assert edge in r.out[("main", 5)].field_edges
    assert edge in r.out[("main", 13)].field_edges
    assert validate_result(loopy, r, exact_in=False) == []
    least = analyze_inter(loopy)
    assert all(subsumes(r.out[k], least.out[k]) for k in least.out)
