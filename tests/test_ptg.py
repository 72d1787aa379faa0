import copy
import dataclasses
import functools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artpta import (
    EMPTY,
    NULL_OBJECT,
    ArityMismatchError,
    Artwork,
    CorpusConfig,
    MalformedArtworkError,
    PointsToGraph,
    Site,
    VarId,
    analyze_inter,
    decode,
    emit_artwork,
    encode,
    generate_corpus,
    meet,
    meet_all,
    optimize_artwork,
    parse_artwork,
    parse_program,
    print_program,
    project_in,
    project_out,
    regen_inter,
    render_edges,
    render_graph,
    restrict_to_summary,
    subsumes,
    TamperKind,
    tamper,
    transfer,
)
from artpta.ir import (
    Alloc,
    AssignNull,
    Branch,
    Call,
    Copy,
    FieldLoad,
    FieldStore,
    Goto,
    LabeledStatement,
    Method,
    Nop,
    Program,
    Return,
)
from artpta.ptg import (
    NullObject,
    edited,
    parse_object,
    ret_var,
    var_id,
)

from helpers import parse_edge_line

CTX = parse_program(
    """\
method main() {
  1: nop
}
method m(a, b) {
  1: c = new A
  2: d = new B
  3: nop
}
"""
)
M = CTX.method("m")


def _graph_of_lines(lines) -> PointsToGraph:
    """The graph of rendered edge lines, in any order."""
    return edited(EMPTY, [("+", (*e[:-1], frozenset(e[-1:]))) for e in map(parse_edge_line, lines)])

VARS = [VarId("m", i) for i in range(5)]  # a, b, c, d and the return carrier
SITES = [Site("m", 1), Site("m", 2), Site("main", 9)]
OBJS = SITES + [NULL_OBJECT]
NAMES = ["a", "b", "c", "d"]
FIELDS = ["f", "g"]

graphs = st.builds(
    PointsToGraph,
    st.frozensets(st.tuples(st.sampled_from(VARS), st.sampled_from(OBJS)), max_size=6),
    st.frozensets(
        st.tuples(st.sampled_from(SITES), st.sampled_from(FIELDS), st.sampled_from(OBJS)),
        max_size=6,
    ),
)


def _stmt(instr) -> LabeledStatement:
    return LabeledStatement(label=7, instr=instr)


@functools.lru_cache(maxsize=None)
def _placed(s: LabeledStatement) -> tuple[LabeledStatement, Method]:
    """``s`` placed through ``parse_program`` after M's assignments to ``c``
    and ``d``, so that its method has M's slots (a-d = 0-3, carrier 4):
    the parsed statement and its method.  The flow functions take only a
    method's own statements."""
    m = Method(M.name, M.params, M.body[:2] + (s,))
    placed = parse_program(print_program(Program((CTX.method("main"), m), "main"))).method("m")
    assert placed.slot_of == M.slot_of
    return placed.body[-1], placed


def _transfer(s: LabeledStatement, graph: PointsToGraph) -> PointsToGraph:
    """``transfer`` of ``s`` placed as ``_placed`` does."""
    s, m = _placed(s)
    return transfer(s, graph, m)


statements = st.one_of(
    st.builds(lambda x, t: _stmt(Alloc(x, t)), st.sampled_from(NAMES), st.sampled_from(["A", "B"])),
    st.builds(lambda x, y: _stmt(Copy(x, y)), st.sampled_from(NAMES), st.sampled_from(NAMES)),
    st.builds(lambda x: _stmt(AssignNull(x)), st.sampled_from(NAMES)),
    st.builds(
        lambda x, f, y: _stmt(FieldStore(x, f, y)),
        st.sampled_from(NAMES),
        st.sampled_from(FIELDS),
        st.sampled_from(NAMES),
    ),
    st.builds(
        lambda x, y, f: _stmt(FieldLoad(x, y, f)),
        st.sampled_from(NAMES),
        st.sampled_from(NAMES),
        st.sampled_from(FIELDS),
    ),
    st.builds(lambda x: _stmt(Return(x)), st.sampled_from(NAMES + [None])),
    st.just(_stmt(Branch(1))),
    st.just(_stmt(Goto(1))),
    st.just(_stmt(Nop())),
)


def g(var_edges=(), field_edges=()):
    return PointsToGraph.of(var_edges, field_edges)


# ---------------------------------------------------------------------------
# meet / subsumes
# ---------------------------------------------------------------------------


def test_meet_identity_and_idempotence():
    a = g([(VARS[0], SITES[0])], [(SITES[0], "f", SITES[1])])
    assert meet(a, EMPTY) == a
    assert meet(a, a) == a


def test_meet_is_union():
    a = g([(VARS[0], SITES[0])])
    b = g([(VARS[0], SITES[1])])
    assert meet(a, b) == g([(VARS[0], SITES[0]), (VARS[0], SITES[1])])


def test_subsumes_examples():
    a = g([(VARS[0], SITES[0]), (VARS[1], SITES[1])])
    b = g([(VARS[0], SITES[0])])
    assert subsumes(a, a)
    assert subsumes(meet(a, b), a) and subsumes(meet(a, b), b)
    assert not subsumes(b, a)  # removing an edge breaks subsumption


@given(graphs, graphs, graphs)
def test_meet_lattice_laws(a, b, c):
    assert meet(a, b) == meet(b, a)
    assert meet(meet(a, b), c) == meet(a, meet(b, c))
    assert meet(a, a) == a
    assert subsumes(meet(a, b), a) and subsumes(meet(a, b), b)


@given(graphs, graphs, graphs)
def test_subsumes_partial_order(a, b, c):
    assert subsumes(a, a)
    if subsumes(a, b) and subsumes(b, a):
        assert a == b
    if subsumes(a, b) and subsumes(b, c):
        assert subsumes(a, c)


@given(graphs, graphs)
def test_equality_is_mutual_subsumption(a, b):
    assert (a == b) == (subsumes(a, b) and subsumes(b, a))


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------


def test_transfer_nop_identity():
    a = g([(VARS[0], SITES[0])])
    assert _transfer(_stmt(Nop()), a) == a


def test_transfer_rejects_a_call_statement(rec):
    """A call's OUT is the engines' business (``equations.eval_statement``);
    ``transfer`` refuses one."""
    m, s = next((m, s) for m in rec.methods for s in m.body if isinstance(s.instr, Call))
    with pytest.raises(ValueError, match="^call statements are handled by the analysis engines$"):
        transfer(s, EMPTY, m)


def test_transfer_alloc_strong_update():
    before = g([(var_id(M, "a"), Site("m", 2))])
    after = _transfer(LabeledStatement(5, Alloc("a", "T")), before)
    assert after == g([(var_id(M, "a"), Site("m", 5))])


def test_transfer_store_is_weak_and_skips_null():
    before = g(
        [(var_id(M, "a"), SITES[0]), (var_id(M, "a"), NULL_OBJECT), (var_id(M, "b"), SITES[1])],
        [(SITES[0], "f", SITES[2])],
    )
    after = _transfer(_stmt(FieldStore("a", "f", "b")), before)
    assert after.field_edges == frozenset(
        {(SITES[0], "f", SITES[2]), (SITES[0], "f", SITES[1])}
    )
    assert after.var_edges == before.var_edges


def test_transfer_load_through_null_contributes_nothing():
    before = g([(var_id(M, "a"), NULL_OBJECT)])
    after = _transfer(_stmt(FieldLoad("b", "a", "f")), before)
    assert after.pts(var_id(M, "b")) == frozenset()


def test_transfer_return_feeds_ret_slot():
    before = g([(var_id(M, "a"), SITES[0])])
    after = _transfer(_stmt(Return("a")), before)
    assert after.pts(ret_var(M)) == {SITES[0]}
    assert _transfer(_stmt(Return(None)), before) == before


def test_loopy_one_body_pass_grows_header(loopy):
    # Propagating the pre-loop value once through the body adds field edges,
    # so the loop needs iteration; the fixed point reaches three sites of two
    # type tags through c.f.
    result = analyze_inter(loopy)
    m = loopy.method("main")
    header_fixed = result.out[("main", 5)]
    pre_loop = result.out[("main", 4)]
    body = pre_loop
    for label in (6, 7, 8, 9):
        body = transfer(m.body[label - 1], body, m)
    assert not subsumes(pre_loop, body)  # one pass discovered new facts
    c = var_id(m, "c")
    f_targets = {
        t for o in header_fixed.pts(c) for t in header_fixed.field_targets(o, "f")
    }
    assert f_targets == {Site("main", 3), Site("main", 9), Site("main", 11)}
    tags = {m.body[t.label - 1].instr.type_tag for t in f_targets}
    assert tags == {"F1", "F2"}


@settings(max_examples=300)
@given(statements, graphs, graphs)
def test_transfer_monotone(s, g1, extra):
    g2 = meet(g1, extra)
    assert subsumes(_transfer(s, g2), _transfer(s, g1))


@given(statements, graphs)
def test_transfer_never_adds_null_source_edges(s, g1):
    out = _transfer(s, g1)
    assert not any(isinstance(src, type(NULL_OBJECT)) for src, _, _ in out.field_edges)


# ---------------------------------------------------------------------------
# project-in / project-out / summary restriction
# ---------------------------------------------------------------------------

PROJ = parse_program(
    """\
method main() {
  1: nop
}
method cal() {
  1: a = new A
  2: b = new B
  3: c = new C
  4: a.f = b
  5: b.g = c
  6: call [tgt](a)
  7: call [z]()
}
method tgt(p) {
  1: return
}
method z() {
  1: return
}
"""
)
CAL = PROJ.method("cal")
TGT = PROJ.method("tgt")
Z = PROJ.method("z")
CALL_TGT = CAL.body[5]
CALL_Z = CAL.body[6]


def _reachable_field_edges_oracle(graph, roots):
    """Brute-force closure over the heap, independent of project_in."""
    seen = set(roots)
    edges = set()
    grew = True
    while grew:
        grew = False
        for e in graph.field_edges:
            if e[0] in seen and e not in edges:
                edges.add(e)
                seen.add(e[2])
                grew = True
    return frozenset(edges)


def test_project_in_zero_args_is_empty():
    state = g([(var_id(CAL, "a"), Site("cal", 1))], [(Site("cal", 1), "f", Site("cal", 2))])
    assert project_in(state, CAL, CALL_Z, Z) == EMPTY


def test_project_in_two_level_heap():
    o1, o2, o3 = Site("cal", 1), Site("cal", 2), Site("cal", 3)
    state = g(
        [(var_id(CAL, "a"), o1)],
        [(o1, "f", o2), (o2, "g", o3)],
    )
    expected_fields = _reachable_field_edges_oracle(state, {o1})
    got = project_in(state, CAL, CALL_TGT, TGT)
    assert got.var_edges == frozenset({(VarId("tgt", 0), o1)})
    assert got.field_edges == expected_fields == frozenset({(o1, "f", o2), (o2, "g", o3)})


def test_project_in_mentions_only_formals():
    o1 = Site("cal", 1)
    state = g([(var_id(CAL, "a"), o1), (var_id(CAL, "b"), Site("cal", 2))])
    got = project_in(state, CAL, CALL_TGT, TGT)
    assert {v for v, _ in got.var_edges} == {VarId("tgt", 0)}


@given(graphs)
def test_project_out_keeps_callsite_field_edges(summary_like):
    state = g(
        [(var_id(CAL, "a"), Site("cal", 1))],
        [(Site("cal", 1), "f", Site("cal", 2))],
    )
    summary = PointsToGraph(frozenset(), summary_like.field_edges)
    out = project_out(summary, CAL, CALL_TGT, state)
    assert state.field_edges <= out.field_edges


def test_project_out_identity_without_binding_or_summary():
    state = g([(var_id(CAL, "a"), Site("cal", 1))])
    assert project_out(EMPTY, CAL, CALL_TGT, state) == state


def test_project_out_binds_from_return_edges():
    text = """\
method main() {
  1: x = new A
  2: x = call [t]()
}
method t() {
  1: r = new B
  2: return r
}
"""
    p = parse_program(text)
    main, t = p.method("main"), p.method("t")
    call = main.body[1]
    o1, o9 = Site("main", 1), Site("t", 9)
    summary = g([(ret_var(t), o9)])
    state = g([(var_id(main, "x"), o1)], [(o1, "f", o1)])
    out = project_out(summary, main, call, state)
    assert out.pts(var_id(main, "x")) == {o9}
    assert state.field_edges <= out.field_edges


def test_rec_project_in_at_call_sites(rec_pipeline):
    rec, result, _ = rec_pipeline
    main, foo = rec.method("main"), rec.method("foo")
    # main's call: formal p points to main's argument object (null here).
    at_main = project_in(result.out[("main", 1)], main, main.body[1], foo)
    assert at_main == g([(VarId("foo", 0), NULL_OBJECT)])
    # foo's recursive call rediscovers (p, O4) and (O4, f, null).
    at_rec = project_in(result.out[("foo", 6)], foo, foo.body[6], foo)
    assert (VarId("foo", 0), Site("foo", 4)) in at_rec.var_edges
    assert (Site("foo", 4), "f", NULL_OBJECT) in at_rec.field_edges
    for edge in at_rec.var_edges | {e for e in at_rec.field_edges}:
        assert edge  # sanity: non-empty projection
    assert subsumes(result.in_summary["foo"], at_rec)


def test_restrict_examples():
    text = "method main() {\n  1: nop\n}\nmethod v(w) {\n  1: x = new A\n  2: return x\n}\n"
    p = parse_program(text)
    v = p.method("v")
    o1, o2 = Site("v", 1), Site("v", 2)
    exit_graph = g(
        [(var_id(v, "x"), o1), (ret_var(v), o1)],
        [(o1, "f", o2)],
    )
    assert restrict_to_summary(exit_graph, v) == g([(ret_var(v), o1)], [(o1, "f", o2)])
    # void method with only locals: empty summary
    assert restrict_to_summary(g([(var_id(v, "x"), o1)]), v) == EMPTY


def test_rec_out_summary_contains_rediscovered_edge(rec_pipeline):
    _, result, _ = rec_pipeline
    assert (Site("foo", 5), "f", Site("foo", 4)) in result.out_summary["foo"].field_edges


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_render_sections_sorted_and_parseable():
    a = g(
        [(VARS[1], SITES[0]), (VARS[0], NULL_OBJECT), (VARS[0], SITES[2])],
        [(SITES[0], "g", SITES[1]), (SITES[0], "f", NULL_OBJECT)],
    )
    lines = render_edges(a)
    n_vars = len(a.var_edges)
    assert lines[:n_vars] == sorted(lines[:n_vars])
    assert lines[n_vars:] == sorted(lines[n_vars:])
    assert _graph_of_lines(lines) == a


def test_render_object_forms():
    a = g([(VarId("m", 0), Site("m", 4)), (VarId("m", 1), NULL_OBJECT), (VarId("m", 2), Site("main", 9))])
    text = render_graph(a)
    assert "m/0 -> m:4" in text
    assert "m/1 -> null" in text
    assert "m/2 -> main:9" in text


@given(graphs)
def test_render_parse_round_trip(a):
    assert _graph_of_lines(render_edges(a)) == a


def test_field_edge_with_null_source_rejected():
    with pytest.raises(ValueError):
        PointsToGraph(frozenset(), frozenset({(NULL_OBJECT, "f", SITES[0])}))


def test_meet_all_empty_is_empty():
    assert meet_all([]) == EMPTY


# ---------------------------------------------------------------------------
# Value semantics: copies, pickles, the null-source test and repr
# ---------------------------------------------------------------------------

FIXED = g(
    [(VARS[0], SITES[0]), (VARS[0], NULL_OBJECT), (VARS[1], SITES[2])],
    [(SITES[0], "f", SITES[1]), (SITES[2], "g", NULL_OBJECT)],
)


def _graphs_by_maker():
    """A non-empty graph made by each of the paths that build graphs."""
    other = g([(VARS[2], SITES[1])], [(SITES[1], "f", SITES[0])])
    data = b"ART/6\n[loop]\n[in]\nm {\n  /0 :1 null\n  :1 .f :2\n}\n[out]\n"
    return {
        "of": FIXED,
        "edited": edited(FIXED, [("-", (VARS[0], frozenset({NULL_OBJECT}))), ("+", (SITES[1], "g", frozenset({SITES[2]})))]),
        "meet": meet(FIXED, other),
        "transfer": _transfer(_stmt(FieldStore("a", "g", "b")), FIXED),
        "decode": decode(data, CTX).i_in["m"],
        "empty": EMPTY,
    }


@pytest.mark.parametrize("maker", sorted(_graphs_by_maker()))
def test_copies_and_pickles_are_equal_graphs(maker):
    graph = _graphs_by_maker()[maker]
    copies = [copy.copy(graph), copy.deepcopy(graph)]
    copies += [pickle.loads(pickle.dumps(graph, protocol)) for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is PointsToGraph
        assert other == graph and not other != graph
        assert hash(other) == hash(graph)
        assert render_edges(other) == render_edges(graph)


def test_every_constructor_keeps_the_null_source_test():
    bad = (NULL_OBJECT, "f", SITES[0])
    exact = "^field edge with null source$"
    with pytest.raises(ValueError, match=exact):
        PointsToGraph((), [bad])
    with pytest.raises(ValueError, match=exact):
        PointsToGraph.of(FIXED.var_edges, [*FIXED.field_edges, bad])
    with pytest.raises(ValueError, match=exact):
        edited(FIXED, [("+", (NULL_OBJECT, "f", frozenset({SITES[0]})))])


def test_repr_lists_edges_in_render_order():
    assert repr(FIXED) == (
        "PointsToGraph(var_edges=frozenset({"
        "(VarId(method='m', slot=0), Site(method='m', label=1)), "
        "(VarId(method='m', slot=0), NullObject()), "
        "(VarId(method='m', slot=1), Site(method='main', label=9))}), "
        "field_edges=frozenset({"
        "(Site(method='m', label=1), 'f', Site(method='m', label=2)), "
        "(Site(method='main', label=9), 'g', NullObject())}))"
    )
    assert repr(EMPTY) == "PointsToGraph(var_edges=frozenset(), field_edges=frozenset())"


# ---------------------------------------------------------------------------
# The indexed representation against edge-scan oracles
# ---------------------------------------------------------------------------
#
# Each oracle is the edge-set formulation of its operation: it reads only the
# public edge views and returns (var_edges, field_edges).

CALLS = parse_program(
    """\
method main() {
  1: nop
}
method m(a, b) {
  1: c = new A
  2: d = new B
  3: call [m](a, b)
  4: c = call [m](d, c)
  5: d = call [k]()
}
method k() {
  1: return
}
"""
)
CALLER = CALLS.method("m")
CALL_STMTS = [s for s in CALLER.body if isinstance(s.instr, Call)]
calls = st.sampled_from(CALL_STMTS)


def _scan_pts(var_edges, v):
    return frozenset(o for (w, o) in var_edges if w == v)


def _scan_kill(var_edges, v):
    return frozenset(e for e in var_edges if e[0] != v)


def _meet_oracle(g1, g2):
    return g1.var_edges | g2.var_edges, g1.field_edges | g2.field_edges


def _meet_all_oracle(graphs):
    var_edges, field_edges = set(), set()
    for graph in graphs:
        var_edges |= graph.var_edges
        field_edges |= graph.field_edges
    return frozenset(var_edges), frozenset(field_edges)


def _subsumes_oracle(g1, g2):
    return g2.var_edges <= g1.var_edges and g2.field_edges <= g1.field_edges


def _transfer_oracle(s, graph, m):
    ve, fe = graph.var_edges, graph.field_edges
    instr = s.instr
    if isinstance(instr, Alloc):
        x = var_id(m, instr.x)
        return _scan_kill(ve, x) | {(x, Site(m.name, s.label))}, fe
    if isinstance(instr, Copy):
        x, y = var_id(m, instr.x), var_id(m, instr.y)
        return _scan_kill(ve, x) | {(x, o) for o in _scan_pts(ve, y)}, fe
    if isinstance(instr, AssignNull):
        x = var_id(m, instr.x)
        return _scan_kill(ve, x) | {(x, NULL_OBJECT)}, fe
    if isinstance(instr, FieldStore):
        x, y = var_id(m, instr.x), var_id(m, instr.y)
        added = {
            (o, instr.f, t)
            for o in _scan_pts(ve, x)
            if o != NULL_OBJECT
            for t in _scan_pts(ve, y)
        }
        return ve, fe | added
    if isinstance(instr, FieldLoad):
        x, y = var_id(m, instr.x), var_id(m, instr.y)
        sources = _scan_pts(ve, y)
        added = {(x, t) for (o, f, t) in fe if o in sources and f == instr.f}
        return _scan_kill(ve, x) | added, fe
    if isinstance(instr, Return) and instr.x is not None:
        r, y = ret_var(m), var_id(m, instr.x)
        return _scan_kill(ve, r) | {(r, o) for o in _scan_pts(ve, y)}, fe
    return ve, fe


def _project_in_oracle(graph, caller, s, callee):
    var_edges, roots = set(), set()
    for i, arg in enumerate(s.instr.args):
        for o in _scan_pts(graph.var_edges, var_id(caller, arg)):
            var_edges.add((VarId(callee.name, i), o))
            roots.add(o)
    return frozenset(var_edges), _reachable_field_edges_oracle(graph, roots)


def _project_out_oracle(summary, caller, s, graph):
    field_edges = graph.field_edges | summary.field_edges
    if s.instr.bind is None:
        return graph.var_edges, field_edges
    x = var_id(caller, s.instr.bind)
    added = {(x, o) for (_, o) in summary.var_edges}
    return _scan_kill(graph.var_edges, x) | added, field_edges


def _restrict_oracle(exit_graph, m):
    r = ret_var(m)
    return frozenset(e for e in exit_graph.var_edges if e[0] == r), exit_graph.field_edges


def _edge_sets(graph):
    return graph.var_edges, graph.field_edges


@settings(max_examples=300)
@given(statements, graphs)
def test_transfer_matches_oracle(s, a):
    before = render_edges(a)  # read from the index, not the cached views
    s, m = _placed(s)
    assert _edge_sets(transfer(s, a, m)) == _transfer_oracle(s, a, m)
    assert render_edges(a) == before  # the input's shared maps are untouched


@given(graphs, graphs, graphs)
def test_meet_subsumes_restrict_match_oracles(a, b, c):
    before = [render_edges(x) for x in (a, b, c)]
    assert _edge_sets(meet(a, b)) == _meet_oracle(a, b)
    for group in ([], [a], [a, b], [a, b, c], [c, a, c, b]):
        assert _edge_sets(meet_all(group)) == _meet_all_oracle(group)
    assert subsumes(a, b) == _subsumes_oracle(a, b)
    assert subsumes(meet(a, b), b) and _subsumes_oracle(meet(a, b), b)
    assert _edge_sets(restrict_to_summary(a, M)) == _restrict_oracle(a, M)
    assert [render_edges(x) for x in (a, b, c)] == before


@given(graphs, graphs, st.data())
def test_meet_returns_its_first_operand_exactly_when_it_subsumes(a, b, data):
    # ``b`` as drawn, and subgraphs of ``a`` rebuilt through the constructor,
    # so that equal but distinct target sets and field maps are compared
    var_edges = sorted(a.var_edges, key=repr)
    field_edges = sorted(a.field_edges, key=repr)
    n = len(var_edges) + len(field_edges)
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    part = PointsToGraph(
        [e for e, k in zip(var_edges, keep) if k],
        [e for e, k in zip(field_edges, keep[len(var_edges) :]) if k],
    )
    for other in (b, part, PointsToGraph(var_edges, field_edges)):
        assert (meet(a, other) is a) == _subsumes_oracle(a, other) == subsumes(a, other)
    assert subsumes(a, part)


@settings(max_examples=200)
@given(calls, graphs, graphs)
def test_projections_match_oracles(s, a, summary):
    before = [render_edges(a), render_edges(summary)]
    for callee in (CALLS.method(t) for t in s.instr.targets):
        assert _edge_sets(project_in(a, CALLER, s, callee)) == _project_in_oracle(
            a, CALLER, s, callee
        )
    assert _edge_sets(project_out(summary, CALLER, s, a)) == _project_out_oracle(
        summary, CALLER, s, a
    )
    assert [render_edges(a), render_edges(summary)] == before


@given(graphs, graphs, statements)
def test_equal_edges_by_any_path_are_equal_and_hash_equal(a, b, s):
    union_edges = _meet_oracle(a, b)
    built = [
        meet(a, b),
        meet(b, a),
        meet_all([a, b, a]),
        PointsToGraph(*union_edges),
        PointsToGraph.of(sorted(union_edges[0], key=repr), list(union_edges[1])),
        _graph_of_lines(render_edges(meet(a, b))),
    ]
    for graph in built:
        assert graph == built[0]
        assert hash(graph) == hash(built[0])
    after = _transfer(s, a)
    rebuilt = PointsToGraph(after.var_edges, after.field_edges)
    assert after == rebuilt and hash(after) == hash(rebuilt)
    # A strong update to an empty points-to set leaves no trace behind.
    c, d = var_id(M, "c"), var_id(M, "d")
    no_d = edited(a, [("-", (d, a.pts(d)))])
    emptied = _transfer(_stmt(Copy("c", "d")), no_d)
    expected = edited(no_d, [("-", (c, no_d.pts(c)))])
    assert emptied == expected and hash(emptied) == hash(expected)


@given(graphs, st.sampled_from(FIELDS), st.sampled_from(OBJS))
def test_null_source_rejected_wherever_edges_enter(a, f, t):
    bad = (NULL_OBJECT, f, t)
    with pytest.raises(ValueError):
        PointsToGraph(a.var_edges, a.field_edges | {bad})
    with pytest.raises(ValueError):
        PointsToGraph.of(a.var_edges, [*a.field_edges, bad])
    with pytest.raises(ValueError):
        _graph_of_lines([*render_edges(a), f"null .{f}-> m:1"])
    text = "\n".join(f"  {line}" for line in [*render_edges(a), f"null .{f}-> m:1"])
    data = f"ART/6\n[loop]\n[in]\nm {{\n{text}\n}}\n[out]\n".encode()
    with pytest.raises(MalformedArtworkError):
        decode(data, CTX)


target_sets = st.frozensets(st.sampled_from(OBJS), min_size=1, max_size=3)
set_edges = st.one_of(
    st.tuples(st.sampled_from(VARS), target_sets),
    st.tuples(st.sampled_from(SITES), st.sampled_from(FIELDS), target_sets),
)
edit_lists = st.lists(st.tuples(st.sampled_from("-+"), set_edges), max_size=8)


def _edit_oracle(g, edits):
    """The edge sets of ``edited(g, edits)``, each edit applied in order."""
    var_edges, field_edges = set(g.var_edges), set(g.field_edges)
    for sign, (*key, objs) in edits:
        edges = var_edges if len(key) == 1 else field_edges
        changed = {(*key, o) for o in objs}
        if sign == "+":
            edges |= changed
        else:
            edges -= changed
    return var_edges, field_edges


@settings(max_examples=300)
@given(graphs, edit_lists, set_edges, target_sets)
def test_edited_matches_an_edge_set_oracle(g, edits, e, refill):
    before = render_edges(g)
    sequences = [
        edits,
        [*edits, ("+", e), ("-", e)],  # add, then remove
        [("-", e), ("+", e), *edits],  # remove, then add back
    ]
    # empty a variable's set, or an object's whole field map, then refill it
    for v, objs in g._vars.items():
        sequences.append([("-", (v, objs)), *edits, ("+", (v, refill))])
    for src, fields in g._heap.items():
        emptied = [("-", (src, f, ts)) for f, ts in fields.items()]
        sequences.append([*emptied, *edits, ("+", (src, FIELDS[0], refill))])
    for seq in sequences:
        out = edited(g, seq)
        oracle = PointsToGraph(*_edit_oracle(g, seq))
        assert _edge_sets(out) == _edit_oracle(g, seq)
        assert out == oracle and hash(out) == hash(oracle)
        # nothing empty or mutable is stored
        for objs in [*out._vars.values(), *(ts for fields in out._heap.values() for ts in fields.values())]:
            assert objs and objs.__class__ is frozenset
        assert all(out._heap.values())
        # what no edit touches is shared, and a key added by one edit holds that edit's set
        touched = [edge[:-1] for _, edge in seq]
        for v, objs in g._vars.items():
            if (v,) not in touched:
                assert out._vars[v] is objs
        for src, fields in g._heap.items():
            if not any(len(key) == 2 and key[0] == src for key in touched):
                assert out._heap[src] is fields
            for f, ts in fields.items():
                if (src, f) not in touched:
                    assert out._heap[src][f] is ts
        for sign, edge in seq:
            key = edge[:-1]
            had = g.pts(*key) if len(key) == 1 else g.field_targets(*key)
            if sign == "+" and not had and touched.count(key) == 1:
                stored = out._vars[key[0]] if len(key) == 1 else out._heap[key[0]][key[1]]
                assert stored is edge[-1]
    assert render_edges(g) == before  # the input's maps are untouched


# ---------------------------------------------------------------------------
# Identifiers: value semantics across kinds and construction paths
# ---------------------------------------------------------------------------


def test_same_field_identifiers_of_different_kinds_are_distinct():
    ids = [VarId("m", 1), Site("m", 1), NULL_OBJECT]
    for i, x in enumerate(ids):
        for y in ids[i + 1 :]:
            assert x != y and y != x
            assert not (x == y)
    assert len(set(ids)) == 3
    table = {x: k for k, x in enumerate(ids)}
    assert [table[x] for x in ids] == [0, 1, 2]
    assert len({VarId("m", 1), VarId("m", 1), Site("m", 1), Site("m", 1)}) == 2
    # as graph keys: a variable and an object of the same fields never merge
    a = g([(VarId("m", 1), Site("m", 1))], [(Site("m", 1), "f", Site("m", 1))])
    assert a.var_edges == {(VarId("m", 1), Site("m", 1))}
    assert a.field_edges == {(Site("m", 1), "f", Site("m", 1))}


def test_identifier_fields_and_repr():
    v, s = VarId("m", 3), Site("main", 9)
    assert (v.method, v.slot) == ("m", 3)
    assert (s.method, s.label) == ("main", 9)
    assert repr(v) == "VarId(method='m', slot=3)"
    assert repr(s) == "Site(method='main', label=9)"
    assert repr(NULL_OBJECT) == "NullObject()"
    assert NullObject() == NULL_OBJECT and hash(NullObject()) == hash(NULL_OBJECT)


def test_identifiers_built_by_different_paths_are_equal_and_hash_equal():
    pairs = [
        (parse_object("m:1"), Site("m", 1)),
        (parse_object("null"), NULL_OBJECT),
        (parse_edge_line("m/2 -> m:1")[0], var_id(M, "c")),
        (parse_edge_line("m/4 -> main:9"), (ret_var(M), Site("main", 9))),
        (parse_edge_line("m:2 .f-> null"), (Site("m", 2), "f", NULL_OBJECT)),
        (_transfer(_stmt(Alloc("d", "T")), EMPTY).var_edges, frozenset({(var_id(M, "d"), Site("m", 7))})),
    ]
    for built, direct in pairs:
        assert built == direct and hash(built) == hash(direct)


def test_identifiers_from_tamper_and_analysis_match_parsed_ones(rec_pipeline):
    p, _, a = rec_pipeline
    artifacts = [a] + [tamper(a, TamperKind.ADD_EDGE, seed, p)[0] for seed in range(4)]
    for art in artifacts:
        for graph in [*art.i_loop.values(), *art.i_in.values(), *art.i_out.values()]:
            parsed_vars, parsed_fields = set(), set()
            for line in render_edges(graph):
                edge = parse_edge_line(line)
                (parsed_vars if len(edge) == 2 else parsed_fields).add(edge)
            # set equality looks every edge up by hash, then compares it
            assert parsed_vars == graph.var_edges
            assert parsed_fields == graph.field_edges
            assert _graph_of_lines(render_edges(graph)) == graph


# The binding lines and ART/6 bytes of the fixture artifacts, written out:
# in an entry of a method, that method's identifiers are written without its
# name.
_FIXTURE_ART = {
    "loopy": (
        "ART/6\n[loop]\nmain:5 {\n"
        "  /0 :6\n  /1 :11 :9\n"
        "  :6 .f :11 :3 :9\n}\n[in]\nmain {\n}\n[out]\n"
    ),
    "rec": (
        "ART/6\n[loop]\n[in]\nfoo {\n  /0 :4 null\n  :4 .f null\n}\n"
        "main {\n}\n[out]\nfoo ^\n+ :5 .f :4\n"
    ),
    # the loop adds nothing at its header, so both entries are empty and
    # the second repeats the first
    "arith": "ART/6\n[loop]\nmain:3 {\n}\n[in]\nmain ^\n[out]\n",
}


@pytest.mark.parametrize("fixture", sorted(_FIXTURE_ART))
def test_fixture_artifact_rendering_and_bytes(fixture, request):
    p, _, a = request.getfixturevalue(f"{fixture}_pipeline")
    expected = _FIXTURE_ART[fixture]
    assert encode(a) == expected.encode()
    # each binding line holds the render_edges lines of its key, once the
    # entry's method is written before each scoped identifier
    lines = set()
    for line in expected.split("\n"):
        if line.endswith((" {", " ^")):
            method = line.split(" ")[0].split(":")[0]
        elif line[:2] in ("  ", "+ "):
            tokens = [method + t if t[0] in "/:" else t for t in line[2:].split(" ")]
            head = f"{tokens[0]} ->" if "/" in tokens[0] else f"{tokens[0]} {tokens.pop(1)}->"
            lines |= {f"{head} {t}" for t in tokens[1:]}
    for graph in [*a.i_loop.values(), *a.i_in.values(), *a.i_out.values()]:
        assert set(render_edges(graph)) <= lines
    assert decode(encode(a), p) == a


def test_repeated_graph_bytes_with_every_object_form():
    shared = g(
        [(VarId("m", 0), Site("main", 9)), (VarId("m", 1), NULL_OBJECT), (VarId("m", 1), Site("m", 2))],
        [(Site("m", 1), "g", Site("m", 2)), (Site("main", 9), "f", NULL_OBJECT)],
    )
    assert render_edges(shared) == [
        "m/0 -> main:9",
        "m/1 -> m:2",
        "m/1 -> null",
        "m:1 .g-> m:2",
        "main:9 .f-> null",
    ]
    edited = g(
        [(VarId("m", 0), Site("main", 9)), (VarId("m", 1), Site("m", 2)), (VarId("m", 4), Site("m", 1))],
        [(Site("m", 1), "g", Site("m", 2)), (Site("m", 1), "f", Site("main", 9))],
    )
    art = Artwork(
        i_loop={("m", 3): shared},
        i_in={"m": shared, "main": EMPTY, "n": EMPTY},
        i_out={"m": shared, "n": edited},
    )
    # A repeat crosses section headers, and an empty graph repeats too.
    # After an empty graph, the edits are shorter than the block; an edit
    # entry removes, then adds, each group in render_edges order.  The
    # identifiers of m are scoped in m's entries and in full in n's.
    assert encode(art) == (
        b"ART/6\n[loop]\nm:3 {\n  /0 main:9\n  /1 :2 null\n"
        b"  :1 .g :2\n  main:9 .f null\n}\n[in]\nm ^\nmain {\n}\nn ^\n[out]\n"
        b"m ^\n+ /0 main:9\n+ /1 :2 null\n+ :1 .g :2\n+ main:9 .f null\n"
        b"n ^\n- m/1 null\n- main:9 .f null\n+ m/4 m:1\n+ m:1 .f main:9\n"
    )
    assert parse_artwork(encode(art)) == art


# ---------------------------------------------------------------------------
# Resolved operands: what the builder records, and only a method's own
# ---------------------------------------------------------------------------


def test_every_evaluation_of_an_allocation_site_yields_one_object_set():
    p = parse_program(generate_corpus(CorpusConfig(program_count=1, seed=1))[-1][1])
    result = analyze_inter(p)
    regen = regen_inter(p, emit_artwork(p, result)).result
    others = [EMPTY, g([(VARS[0], SITES[0])]), *result.out.values()]
    sites = 0
    for m in p.methods:
        for s in m.body:
            if not isinstance(s.instr, Alloc):
                continue
            sites += 1
            x = var_id(m, s.instr.x)
            objs = transfer(s, EMPTY, m).pts(x)
            assert objs == {Site(m.name, s.label)}
            assert all(transfer(s, other, m).pts(x) is objs for other in others)
            # the engines' own evaluations bind the same set
            assert result.out[(m.name, s.label)].pts(x) is objs
            assert regen.out[(m.name, s.label)].pts(x) is objs
    assert sites


def test_flow_functions_take_only_a_methods_own_statements():
    not_own = "not a statement of method 'm'"
    # A statement that carries a body label but is not the body's statement:
    # an equal copy of it, or another instruction.
    for own in M.body:
        for s in (LabeledStatement(own.label, own.instr), LabeledStatement(own.label, Copy("c", "a"))):
            with pytest.raises(ValueError, match=not_own):
                transfer(s, EMPTY, M)
    k = CALLS.method("k")
    for own in CALL_STMTS:
        # the second passes ``k`` an argument: ownership is checked first
        for s in (LabeledStatement(own.label, own.instr), LabeledStatement(own.label, Call(None, ("k",), ("a",)))):
            with pytest.raises(ValueError, match=not_own):
                project_in(EMPTY, CALLER, s, k)
            with pytest.raises(ValueError, match=not_own):
                project_out(EMPTY, CALLER, s, EMPTY)
    # A method built by hand has no mark: no statement is its own.
    by_hand = Method(CALLER.name, CALLER.params, CALLER.body, slot_of=CALLER.slot_of)
    for s in CALLER.body:
        with pytest.raises(ValueError, match=not_own):
            transfer(s, EMPTY, by_hand)
    for s in CALL_STMTS:
        with pytest.raises(ValueError, match=not_own):
            project_in(EMPTY, by_hand, s, CALLS.method(s.instr.targets[0]))
        with pytest.raises(ValueError, match=not_own):
            project_out(EMPTY, by_hand, s, EMPTY)


def test_flow_functions_reject_copies_reparses_and_replaced_methods():
    # A statement's operands start with its method's mark.  A replaced
    # statement has no operands, a second parse of the same text makes new
    # marks, and a replaced method has no mark.
    not_own = "not a statement of method 'm'"
    again = parse_program(print_program(CALLS)).method("m")
    replaced = dataclasses.replace(CALLER)
    cases = [(dataclasses.replace(s), CALLER) for s in CALLER.body]
    cases += [(s, CALLER) for s in again.body]
    cases += [(s, replaced) for s in replaced.body]
    assert len(cases) == 3 * len(CALLER.body)
    for s, m in cases:
        assert s in CALLER.body  # equal to one of the method's own
        with pytest.raises(ValueError, match=not_own):
            transfer(s, EMPTY, m)
        if isinstance(s.instr, Call):
            with pytest.raises(ValueError, match=not_own):
                project_in(EMPTY, m, s, CALLS.method(s.instr.targets[0]))
            with pytest.raises(ValueError, match=not_own):
                project_out(EMPTY, m, s, EMPTY)
    # The second parse's statements are its own method's.
    for s in again.body:
        if isinstance(s.instr, Call):
            project_in(EMPTY, again, s, CALLS.method(s.instr.targets[0]))
            project_out(EMPTY, again, s, EMPTY)
        else:
            transfer(s, EMPTY, again)
