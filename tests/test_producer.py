import hashlib
from collections import Counter

import pytest

from artpta import (
    EMPTY,
    ArtError,
    Artwork,
    CorpusConfig,
    NULL_OBJECT,
    PointsToGraph,
    Program,
    Site,
    VarId,
    analyze_inter,
    chaotic_oracle,
    decode,
    emit_artwork,
    encode,
    generate_corpus,
    meet,
    meet_all,
    naive_encode,
    optimize_artwork,
    parse_program,
    regen_inter,
    render_edges,
    subsumes,
    validate_result,
)
from artpta import artwork
from artpta.ir import ENTRY, EXIT, Alloc, AssignNull, Call, Copy, FieldLoad, FieldStore

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
    r = analyze_inter(p)
    assert r.iteration_count == 4


def test_loopy_header_fixed_point(loopy):
    r = analyze_inter(loopy)
    assert r.out[("main", 5)] == LOOPY_HEADER


def test_loopy_intra_equals_oracle(loopy):
    r = analyze_inter(loopy)
    assert r.same_values(chaotic_oracle(loopy))


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
    r = analyze_inter(p)
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
        alone = analyze_inter(Program((m,), m.name))
        for s in m.body:
            assert r.out[(m.name, s.label)] == alone.out[(m.name, s.label)]
        assert r.in_summary[m.name] == EMPTY
        assert r.out_summary[m.name] == alone.out_summary[m.name]


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
    # The entry holds what the loop adds at header 5 (a branch, so its flow
    # equation is the identity) to the OUT of statement 4, its one forward
    # predecessor.
    _, r, a = loopy_pipeline
    assert set(a.i_loop) == {("main", 5)}
    entry = a.i_loop[("main", 5)]
    assert entry == PointsToGraph.of(
        var_edges=[
            (VarId("main", 0), Site("main", 6)),
            (VarId("main", 1), Site("main", 9)),
            (VarId("main", 1), Site("main", 11)),
        ],
        field_edges=[(Site("main", 6), "f", Site("main", t)) for t in (3, 9, 11)],
    )
    assert meet(r.out[("main", 4)], entry) == LOOPY_HEADER


def test_emit_rec_out_keys(rec_pipeline):
    _, _, a = rec_pipeline
    assert set(a.i_out) == {"foo"}


def test_emit_rejects_broken_result(loopy):
    r = analyze_inter(loopy)
    r.out[("main", 5)] = EMPTY  # no longer satisfies the flow equations
    with pytest.raises(Exception):
        emit_artwork(loopy, r)


def _break_entry(r):
    r.out[("main", ENTRY)] = REC_IN_FOO


def _break_exit(r):
    r.out[("main", EXIT)] = EMPTY


def _break_in_summary(r):
    r.in_summary["foo"] = EMPTY
    r.out[("foo", ENTRY)] = EMPTY


@pytest.mark.parametrize(
    "broken, problem",
    [
        (_break_entry, "main: entry value differs from IN summary"),
        (_break_exit, "main: exit value differs from meet of predecessors"),
        (_break_in_summary, "foo: IN summary does not cover call-site meet"),
    ],
    ids=["entry", "exit", "in-summary"],
)
def test_validate_result_names_each_broken_equation(rec, broken, problem):
    r = analyze_inter(rec)
    assert validate_result(rec, r) == []
    broken(r)
    assert problem in validate_result(rec, r)
    with pytest.raises(ArtError):
        emit_artwork(rec, r)


def test_emit_is_deterministic(loopy):
    one = encode(emit_artwork(loopy, analyze_inter(loopy)))
    two = encode(emit_artwork(loopy, analyze_inter(loopy)))
    assert one == two


# A CFG numbers its blocks in walk order, where an unreachable block can come
# before the block Entry flows into: in A, main's block [1]; in B, main's
# block [3] and f's block [4], so that f's re-visit, once main's call grows
# its IN summary, seeds a block other than block 0.
ENTRY_NOT_BLOCK_0 = {
    "A": (
        """\
method main() {
  5: a = new A
  2: goto 9
  1: a.f = a
  9: b = a.f
  3: if goto 5
}
""",
        6,
    ),
    "B": (
        """\
method main() {
  1: x = new A
  2: goto 4
  3: goto 1
  4: call [f](x)
  5: if goto 1
}
method f(p) {
  1: q = new B
  2: p.g = q
  3: goto 5
  4: goto 1
  5: return
}
""",
        22,
    ),
}


@pytest.mark.parametrize("text, evals", ENTRY_NOT_BLOCK_0.values(), ids=ENTRY_NOT_BLOCK_0)
def test_entry_block_need_not_be_block_zero(text, evals):
    from artpta.ir import ProgramIndex

    p = parse_program(text)
    cfgs = ProgramIndex.of(p).cfgs
    assert all(cfgs[m.name].blocks[0][0] != m.body[0] for m in p.methods)
    r = analyze_inter(p)
    assert r.same_values(chaotic_oracle(p))
    assert r.iteration_count == evals
    a = emit_artwork(p, r)
    for art in (a, optimize_artwork(p, a)):
        out = regen_inter(p, decode(encode(art), p))
        assert out.safe and out.result.same_values(r)


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
    # The stand-ins are read off the fixed point the emitted artwork carries,
    # so no analysis runs; the self-recursive main's empty IN entry drops,
    # as the entry method's stand-in is the empty graph, and its OUT entry
    # holds only the returned object: the pass holds its whole OUT heap at
    # the self-call.
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
        b"ART/6\n[loop]\nmain:3 {\n  /1 :1\n  :1 .g :1\n}\n[in]\n"
        b"[out]\nmain {\n  /3 :1\n}\n"
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


def test_optimize_drops_the_empty_in_entry_of_a_self_recursive_main():
    # The consumer's pass over the entry method comes first, from the empty
    # graph, whatever call-sites the method has.
    p = parse_program("method main() {\n  1: if goto 3\n  2: call [main]()\n  3: nop\n}\n")
    r = analyze_inter(p)
    opt = optimize_artwork(p, emit_artwork(p, r))
    assert opt == Artwork(i_loop={}, i_in={}, i_out={})
    out = regen_inter(p, decode(encode(opt), p))
    assert out.safe and out.result.same_values(r)


def test_optimize_drops_an_in_entry_its_loop_header_call_site_projects():
    # f's only call-site heads a loop, and the forward meet there already
    # holds everything the loop brings round: f's IN entry and the header's
    # loop entry both equal what the consumer puts in their place.
    text = """\
method main() {
  1: a = new A
  2: call [f](a)
  3: if goto 2
  4: nop
}
method f(p) {
  1: nop
}
"""
    p = parse_program(text)
    r = analyze_inter(p)
    a = emit_artwork(p, r)
    assert ("main", 2) in a.i_loop and not a.i_in["f"].is_empty()
    opt = optimize_artwork(p, a)
    assert opt == Artwork(i_loop={}, i_in={}, i_out={})
    old = _optimize_by_shape(p, a)  # which kept both
    assert set(old.i_loop) == {("main", 2)} and set(old.i_in) == {"f"}
    out = regen_inter(p, decode(encode(opt), p))
    assert out.safe and out.result.same_values(r)


def test_optimize_drops_every_loop_key_at_a_statement_that_heads_no_loop():
    # Decode accepts a [loop] key at any statement and the consumer reads
    # nothing from one that heads no loop, at a nop as at an allocation.
    text = """\
method main() {
  1: a = new A
  2: nop
  3: b = new B
  4: a.f = b
  5: if goto 3
}
"""
    p = parse_program(text)
    r = analyze_inter(p)
    a = emit_artwork(p, r)
    extra = {("main", 1): r.out[("main", 1)], ("main", 2): r.out[("main", 2)]}
    decoded = decode(encode(Artwork({**a.i_loop, **extra}, a.i_in, a.i_out)), p)
    assert regen_inter(p, decoded).ignored_loop_keys == (("main", 1), ("main", 2))
    # the shape rule kept the key at the allocation
    assert set(_optimize_by_shape(p, decoded).i_loop) == {("main", 1), ("main", 3)}
    opt = optimize_artwork(p, decoded)
    assert opt == optimize_artwork(p, a) and set(opt.i_loop) == {("main", 3)}
    # decode rejects a method the program lacks; a hand-built key naming one
    # is ignored by the consumer and dropped alike
    ghost = Artwork({**a.i_loop, ("ghost", 1): EMPTY}, a.i_in, a.i_out)
    assert regen_inter(p, ghost).ignored_loop_keys == (("ghost", 1),)
    assert optimize_artwork(p, ghost) == opt
    out = regen_inter(p, decode(encode(opt), p))
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


def test_a_graph_equal_to_the_previous_entry_s_is_written_as_a_repeat():
    # Force adjacent duplicates by giving two loops the same fixed point,
    # which the forward meet at neither header holds, so -O keeps both.
    text = """\
method main() {
  1: a = new A
  2: c = null
  3: nop
  4: c = a
  5: if goto 3
  6: c = null
  7: nop
  8: c = a
  9: if goto 7
}
"""
    p = parse_program(text)
    a = emit_artwork(p, analyze_inter(p))
    assert a.i_loop[("main", 3)] == a.i_loop[("main", 7)]
    for art in (a, optimize_artwork(p, a)):
        data = encode(art)
        assert b"\nmain:7 ^\n" in data and data.count(b" ^\n") == 1
        decoded = decode(data, p)
        assert decoded == art
        assert decoded.i_loop[("main", 7)] is decoded.i_loop[("main", 3)]


def test_optimize_keeps_the_smaller_encoding_without_encoding(
    small_corpus, count_calls, reference_encode
):
    large = generate_corpus(
        CorpusConfig(program_count=4, seed=2, methods_min=1, methods_max=1, stmts_min=300, stmts_max=300, recursion_prob=1.0)
    )
    programs = [p for _, p in small_corpus] + [parse_program(text) for _, text in large]
    repeated_seen = edited_seen = 0
    for p in programs:
        a = emit_artwork(p, analyze_inter(p))
        calls = count_calls(artwork, "encode")
        opt = optimize_artwork(p, a)
        assert calls["encode"] == 0
        for art in (a, opt):
            expected = reference_encode(art)
            repeated_seen += b" ^\n" in expected
            edited_seen += b"\n- " in expected and b"\n+ " in expected
            assert encode(art) == expected
    assert repeated_seen >= 6 and edited_seen >= 6


def _statements(p: Program, name: str) -> dict:
    return {s.label: s for s in p.method(name).body}


def _pass_input(index, out, name: str, label: int) -> PointsToGraph:
    """The input the consumer's pass has at statement ``label``: the meet of
    its statement-level predecessors' OUTs, back-edges left out."""
    cfg = index.cfgs[name]
    return meet_all([out[(name, u)] for u in cfg.pred[label] if (u, label) not in cfg.back_edges])


def _optimize_from_analysis(p: Program, a: Artwork) -> Artwork:
    """Reference optimizer: the stand-ins of ``optimize_artwork`` computed
    from ``analyze_inter``'s least fixed point over the statement-level
    predecessors (an OUT entry's is the method's base, whose reach to Exit
    is read off them too)."""
    from artpta.ir import ProgramIndex
    from artpta.ptg import project_in

    from artpta.equations import eval_statement

    index = ProgramIndex(p)
    graph = index.call_graph
    lfp = analyze_inter(p)
    out = lfp.out

    def header_image(name: str, h: int) -> PointsToGraph:
        # the header's flow equation applied to the input the pass has there
        s, m = _statements(p, name)[h], index.methods[name]
        return eval_statement(s, _pass_input(index, out, name, h), m, lfp.out_summary.__getitem__)

    i_loop = {
        (name, h): g
        for (name, h), g in a.i_loop.items()
        if h in index.cfgs[name].loop_headers and not subsumes(header_image(name, h), g)
    }
    i_in = {}
    for name, g in a.i_in.items():
        sites = graph.call_sites_of(name)
        if name == p.entry or not sites:
            keep = not g.is_empty()
        else:
            projections = {
                project_in(
                    _pass_input(index, out, caller, label),
                    index.methods[caller],
                    _statements(p, caller)[label],
                    index.methods[name],
                )
                for caller, label in sites
            }
            keep = all(caller in graph.scc_of(name) for caller, _ in sites) or projections != {g}
        if keep:
            i_in[name] = g

    def base(name: str) -> PointsToGraph:
        # the heap the pass holds at a self-recursive method's first
        # self-call, in block order, when Exit is reached from there
        cfg = index.cfgs[name]
        reach, todo = set(), [EXIT]
        while todo:
            v = todo.pop()
            for u in cfg.pred[v]:
                if u not in reach:
                    reach.add(u)
                    todo.append(u)
        calls = [s.label for block in cfg.blocks for s in block if isinstance(s.instr, Call) and name in s.instr.targets]
        if graph.scc_of(name) != {name} or calls[0] not in reach:
            return EMPTY
        return PointsToGraph((), _pass_input(index, out, name, calls[0]).field_edges)

    i_out = {name: g for name, g in a.i_out.items() if not subsumes(base(name), g)}
    return Artwork(i_loop=i_loop, i_in=i_in, i_out=i_out)


#: The instruction kinds the shape rule below counts as changing a graph.
_REF_INSTRS = (Alloc, Copy, AssignNull, FieldStore, FieldLoad, Call)


def _loop_body(cfg, h: int) -> set[int]:
    """The labels of ``h``'s natural loop: ``h`` and every statement that
    reaches a source of one of its back-edges without passing ``h``."""
    body, todo = {h}, [u for u, v in cfg.back_edges if v == h]
    while todo:
        u = todo.pop()
        if u not in body:
            body.add(u)
            todo.extend(x for x in cfg.pred[u] if x != ENTRY)
    return body


def _optimize_by_shape(p: Program, a: Artwork) -> Artwork:
    """The rule ``optimize_artwork`` followed before it compared entries
    with their stand-ins: drop a loop entry whose loop body has no
    ``_REF_INSTRS``; drop the empty IN entry of a method with no call-site;
    drop any other IN entry when none of its call-sites is a loop header,
    some caller lies outside its SCC and every call-site projects it; drop
    an OUT entry equal to the IN entry."""
    from artpta.ir import ProgramIndex
    from artpta.ptg import project_in

    index = ProgramIndex(p)
    graph = index.call_graph
    out = analyze_inter(p).out
    i_loop = {
        (name, h): g
        for (name, h), g in a.i_loop.items()
        if any(
            isinstance(_statements(p, name)[l].instr, _REF_INSTRS)
            for l in _loop_body(index.cfgs[name], h)
        )
    }
    i_in = {}
    for name, g in a.i_in.items():
        sites = graph.call_sites_of(name)
        if not sites:
            if not g.is_empty():
                i_in[name] = g
            continue
        if (
            any(label in index.cfgs[caller].loop_headers for caller, label in sites)
            or all(caller in graph.scc_of(name) for caller, _ in sites)
            or {
                project_in(
                    _pass_input(index, out, caller, label),
                    index.methods[caller],
                    _statements(p, caller)[label],
                    index.methods[name],
                )
                for caller, label in sites
            }
            != {g}
        ):
            i_in[name] = g
    i_out = {name: g for name, g in a.i_out.items() if g != a.i_in.get(name)}
    return Artwork(i_loop=i_loop, i_in=i_in, i_out=i_out)


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
    # An emitted artwork carries its fixed point, so it regenerates never; a
    # decoded copy carries none and regenerates exactly once, up front.
    from artpta import consumer

    self_only = parse_program(
        "method main() {\n  1: nop\n}\n"
        "method solo(p) {\n  1: x = new A\n  2: if goto 4\n  3: call [solo](x)\n  4: return\n}\n"
    )
    two_sites = parse_program(
        "method main() {\n  1: a = new A\n  2: call [f](a)\n  3: call [g](a)\n  4: call [f](a)\n}\n"
        "method f(p) {\n  1: nop\n}\nmethod g(p) {\n  1: nop\n}\n"
    )
    calls = count_calls(consumer, "regenerate")
    for p, kept in ((self_only, {"solo"}), (two_sites, set())):
        a = emit_artwork(p, analyze_inter(p))
        before = calls["regenerate"]
        assert set(optimize_artwork(p, a).i_in) == kept
        assert calls["regenerate"] == before
        assert set(optimize_artwork(p, decode(encode(a), p)).i_in) == kept
        assert calls["regenerate"] == before + 1


def test_optimize_rejects_a_reduced_artifact(rec_pipeline):
    from artpta import ArtError, tamper
    from artpta.tamper import REDUCTIVE_KINDS

    p, _, a = rec_pipeline
    for seed in range(8):
        for kind in REDUCTIVE_KINDS:
            mutated, _ = tamper(a, kind, seed)
            with pytest.raises(ArtError, match="^artifact does not regenerate: "):
                optimize_artwork(p, mutated)


SHAPES = pytest.mark.parametrize(
    "shape, count",
    [
        ({}, 60),
        ({"methods_min": 1, "methods_max": 1, "stmts_min": 300, "stmts_max": 300, "recursion_prob": 1.0}, 6),
    ],
    ids=["default", "roundtrip-large"],
)


@SHAPES
def test_optimize_keeps_a_subset_of_the_shape_rule_s_keys(shape, count):
    # Every entry the shape rule dropped equals its stand-in, so the stand-in
    # rule drops it too; what it drops besides, the consumer regenerates.
    fewer = 0
    for name, text in generate_corpus(CorpusConfig(program_count=count, seed=1, **shape)):
        p = parse_program(text)
        r = analyze_inter(p)
        a = emit_artwork(p, r)
        opt, old = optimize_artwork(p, a), _optimize_by_shape(p, a)
        for section in ("i_loop", "i_in", "i_out"):
            assert getattr(opt, section).keys() <= getattr(old, section).keys(), (name, section)
        fewer += len(encode(opt)) < len(encode(old))
        out = regen_inter(p, decode(encode(opt), p))
        assert out.safe and out.result.same_values(r), name
    assert fewer >= 1


@SHAPES
def test_optimize_with_the_result_equals_optimize_by_regeneration(shape, count, count_calls):
    # The emitted artwork is optimized with the fixed point it carries, its
    # decoded copy with the consumer's regeneration: the two agree.
    from artpta import consumer

    calls = count_calls(consumer, "regenerate")
    regenerated = 0
    for _, text in generate_corpus(CorpusConfig(program_count=count, seed=1, **shape)):
        p = parse_program(text)
        a = emit_artwork(p, analyze_inter(p))
        opt = optimize_artwork(p, a)
        assert calls["regenerate"] == regenerated
        assert optimize_artwork(p, decode(encode(a), p)) == opt
        regenerated = calls["regenerate"]
    assert regenerated >= 1  # the regeneration path ran, on the decoded copies only


def test_optimize_rejects_a_result_the_artifact_does_not_hold(rec_pipeline):
    # One entry of an emitted artwork replaced by a reduced graph after
    # emission: the artwork no longer holds the fixed point it carries, so
    # it is regenerated, and the consumer rejects it.
    from artpta import ArtError, tamper
    from artpta.tamper import REDUCTIVE_KINDS

    p, result, _ = rec_pipeline
    sections = ("i_loop", "i_in", "i_out")
    for seed in range(8):
        for kind in REDUCTIVE_KINDS:
            a = emit_artwork(p, result)
            mutated, _ = tamper(a, kind, seed)
            [(entries, key, g)] = [
                (getattr(a, s), key, g)
                for s in sections
                for key, g in getattr(mutated, s).items()
                if g != getattr(a, s)[key]
            ]
            entries[key] = g
            assert a.fixed_point is result
            with pytest.raises(ArtError, match="^artifact does not regenerate: "):
                optimize_artwork(p, a)


def test_the_carried_fixed_point_is_not_part_of_the_value(rec_pipeline):
    import dataclasses

    from artpta import TamperKind, tamper

    p, result, a = rec_pipeline
    assert a.fixed_point is result
    copy = decode(encode(a), p)
    assert copy.fixed_point is None
    assert copy == a and encode(copy) == encode(a)
    # decode keeps file order and emission program order, so the reprs to
    # compare are of the same maps
    bare = dataclasses.replace(a)
    assert bare.fixed_point is None
    assert repr(bare) == repr(a) and "fixed_point" not in repr(a)
    opt = optimize_artwork(p, a)
    assert opt.fixed_point is None
    for source in (a, opt):
        for kind in TamperKind:
            mutated, _ = tamper(source, kind, 3, program=p)
            assert mutated.fixed_point is None, kind


def test_a_loop_seed_stays_in_its_statement_and_flows_on(loopy):
    # ``_inject`` seeds at a loop header: the seed is met into the header's
    # OUT on every evaluation, so it survives re-evaluation and reaches the
    # exit.  A field the program never touches makes it a fixed point.
    from artpta import subsumes

    edge = (Site("main", 6), "zz", Site("main", 6))
    r = analyze_inter(loopy, _inject={"loop": {("main", 5): PointsToGraph.of(field_edges=[edge])}})
    assert edge in r.out[("main", 5)].field_edges
    assert edge in r.out[("main", 13)].field_edges
    assert validate_result(loopy, r) == []
    least = analyze_inter(loopy)
    assert all(subsumes(r.out[k], least.out[k]) for k in least.out)


# ---------------------------------------------------------------------------
# Pinned values: the worklist engine's least fixed point on the shapes whose
# method re-visits dominate its cost, recorded as digests so that any change
# to how the engine schedules its evaluations must leave every value as it is.
# ---------------------------------------------------------------------------

# one self-recursive method of 300 statements (the benchmark's large shape)
LARGE_SHAPE = dict(methods_min=1, methods_max=1, stmts_min=300, stmts_max=300, recursion_prob=1.0)
# 3-6 methods, every one of them on a call-graph cycle
RECURSIVE_SHAPE = dict(methods_min=3, methods_max=6, recursion_prob=1.0)


def _values_digest(r) -> str:
    """sha256 prefix of every value of ``r``: each point's OUT (the
    ``--dump-results`` bytes), then each IN and OUT summary."""
    h = hashlib.sha256(naive_encode(r))
    for kind, summaries in (("in", r.in_summary), ("out", r.out_summary)):
        for name in sorted(summaries):
            h.update(f"[{kind} {name}]\n".encode())
            h.update("\n".join(render_edges(summaries[name])).encode())
    return h.hexdigest()[:16]


def _generated(shape: dict, seed: int) -> list[tuple[str, Program]]:
    files = generate_corpus(CorpusConfig(program_count=4, seed=seed, **shape))
    return [(name, parse_program(text)) for name, text in files if name.startswith("gen")]


def _seed_graph(p: Program, scope: str) -> PointsToGraph:
    """A deterministic extra edge pair for an entry of method ``scope``: its
    first variable to the last allocation site, and the program's first field
    of the first site to the last site."""
    from artpta.ir import Alloc, FieldLoad, FieldStore

    sites = [Site(m.name, s.label) for m in p.methods for s in m.body if isinstance(s.instr, Alloc)]
    fields = sorted(
        {s.instr.f for m in p.methods for s in m.body if isinstance(s.instr, (FieldStore, FieldLoad))}
    )
    var_edges = [(VarId(scope, 0), sites[-1])] if sites and p.method(scope).var_count else []
    field_edges = [(sites[0], fields[0], sites[-1])] if sites and fields else []
    return PointsToGraph.of(var_edges=var_edges, field_edges=field_edges)


def _inject_cases(corpus) -> list[tuple[str, Program, dict]]:
    """``_inject`` seeds of each kind, one at the first entry of each section
    of each program's artifact, as add-edge tampering builds them."""
    cases = []
    for name, p in corpus:
        a = emit_artwork(p, analyze_inter(p))
        for kind, section in (("loop", a.i_loop), ("in", a.i_in), ("out", a.i_out)):
            if section:
                key = min(section)
                scope = key[0] if kind == "loop" else key
                cases.append((f"{name}:{kind}", p, {kind: {key: _seed_graph(p, scope)}}))
    return cases


# recorded with the engine that re-evaluated every statement on each method re-visit
PINNED_VALUES = {
    "large": {
        "gen000.ir": "306c8a23e6df6375",
        "gen001.ir": "90e9be8f46caabf6",
        "gen002.ir": "b307c422e43d5c45",
        "gen003.ir": "9430e0a28df8f755",
    },
    "recursive": {
        "gen000.ir": "7cacd0046823d870",
        "gen001.ir": "c67a27ca07f11cb7",
        "gen002.ir": "0e1a7be953f6f1d3",
        "gen003.ir": "fc9fe25bbeda402f",
    },
    "inject": {
        "loopy.ir:loop": "b278c5459ee14280",
        "loopy.ir:in": "ea10bfec9d1ca607",
        "rec.ir:in": "d4259094fe5da171",
        "rec.ir:out": "64c70b11fee604f9",
        "arith.ir:loop": "ddc937706756ecd7",
        "arith.ir:in": "4cc9b1eb43ebfb6f",
        "gen000.ir:loop": "190c771cb710c87b",
        "gen000.ir:in": "0c0bbbe8614b21a0",
        "gen000.ir:out": "88c05bbea32487b1",
        "gen001.ir:loop": "7cd4051f55da3179",
        "gen001.ir:in": "bd8b988fcaef301e",
        "gen001.ir:out": "5e74f615d7a38b33",
        "gen002.ir:loop": "ba4f215e15cdad2e",
        "gen002.ir:in": "45de7c069e3df2c5",
        "gen003.ir:loop": "b078891ab60a01a7",
        "gen003.ir:in": "3dca7fb13e7efb69",
        "gen003.ir:out": "d72545478b09f4d4",
        "gen004.ir:loop": "2ee449ffe1686f8a",
        "gen004.ir:in": "7650590498fb17f2",
        "gen005.ir:loop": "7b996e1143e3d2e8",
        "gen005.ir:in": "f90ea85c3d5f3366",
        "gen005.ir:out": "541c37017ce75b04",
        "gen006.ir:loop": "cf853783c4d0b13a",
        "gen006.ir:in": "807f7b0397cb06ae",
        "gen006.ir:out": "e50b3cdd1857977b",
        "gen007.ir:loop": "a1c8e8f6623efd4d",
        "gen007.ir:in": "72eea1ba14ecc665",
        "gen007.ir:out": "5496437002cc5850",
        "gen008.ir:loop": "ef4995c552aa2dcc",
        "gen008.ir:in": "36d1e46a84cbb96a",
        "gen008.ir:out": "866b1a2184efc8ab",
        "gen009.ir:loop": "67682c777dc5b305",
        "gen009.ir:in": "9dc2a3e9af97393d",
    },
}


@pytest.mark.parametrize("group", list(PINNED_VALUES))
def test_pinned_values_and_oracle_agreement(group, small_corpus):
    if group == "inject":
        # the oracle takes no seeds: these are pinned by digest alone
        got = {case: _values_digest(analyze_inter(p, _inject=inj)) for case, p, inj in _inject_cases(small_corpus)}
    else:
        programs = _generated(LARGE_SHAPE if group == "large" else RECURSIVE_SHAPE, seed=1)
        got = {}
        for name, p in programs:
            r = analyze_inter(p)
            assert r.same_values(chaotic_oracle(p)), name
            got[name] = _values_digest(r)
    assert got == PINNED_VALUES[group]


# rec's recursive call follows a straight-line prefix (1-6).  rec takes no
# parameters, so its IN summary stays empty; only its OUT summary grows, twice.
REVISITED_AFTER_A_PREFIX = """\
method main() {
  1: a = new A
  2: r = call [rec]()
}
method rec() {
  1: x = new B
  2: y = new C
  3: x.f = y
  4: z = x.f
  5: w = z
  6: if goto 9
  7: r = call [rec]()
  8: r.g = x
  9: return x
}
"""


def test_a_revisit_evaluates_only_what_a_grown_summary_reaches(monkeypatch):
    from artpta import producer

    p = parse_program(REVISITED_AFTER_A_PREFIX)
    evaluated: Counter = Counter()
    original = producer.eval_statement

    def counted(s, in_g, m, summary_of):
        evaluated[(m.name, s.label)] += 1
        return original(s, in_g, m, summary_of)

    monkeypatch.setattr(producer, "eval_statement", counted)
    r = analyze_inter(p)
    monkeypatch.undo()
    assert r.same_values(chaotic_oracle(p))
    assert [evaluated[("rec", label)] for label in range(1, 7)] == [1] * 6
    assert r.iteration_count == sum(evaluated.values()) == 16


def test_large_shape_iteration_count():
    # 308 statements: a first pass over all of them, then the re-visits
    # evaluate only what the grown OUT summary reaches.
    name, p = _generated(LARGE_SHAPE, seed=1)[0]
    assert analyze_inter(p).iteration_count == 437, name
