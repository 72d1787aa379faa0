import heapq
import itertools
import random
from collections import Counter

import pytest

from artpta import (
    CorpusConfig,
    DuplicateNameError,
    IrreducibleCfgError,
    ParseError,
    Program,
    ResolutionError,
    build_call_graph,
    build_cfg,
    generate_corpus,
    parse_program,
    print_program,
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
    Return,
)


def test_empty_method_body():
    p = parse_program("method main() { }")
    assert len(p.methods) == 1
    assert p.method("main").body == ()


def test_loopy_parses_with_one_back_edge(loopy):
    assert len(p_methods := loopy.methods) == 1
    cfg = build_cfg(p_methods[0])
    assert len(cfg.back_edges) == 1
    (src, header), = cfg.back_edges
    assert header == 5  # the loop's first statement
    assert header in cfg.loop_headers
    # the header's block is a key block: its leader is the header itself
    assert any(b.leader == header for b in cfg.blocks)


def test_rec_call_graph_cyclic(rec):
    cg = build_call_graph(rec)
    assert frozenset({"foo"}) in cg.sccs
    assert cg.is_recursive_method("foo")
    assert not cg.is_recursive_method("main")
    assert cg.recursive_call_sites == {("foo", 7)}


def test_instruction_kinds_round_trip():
    text = """\
method main() {
  1: a = new A
  2: b = a
  3: b = null
  4: a.f = b
  5: c = a.f
  6: c = call [helper, helper2](a, b)
  7: call [helper](a, a)
  8: if goto 10
  9: goto 10
  10: nop
  11: return
}
method helper(x, y) {
  1: return x
}
method helper2(p, q) {
  1: return
}
"""
    p = parse_program(text)
    body = p.method("main").body
    assert [type(s.instr) for s in body] == [
        Alloc, Copy, AssignNull, FieldStore, FieldLoad, Call, Call, Branch, Goto, Nop, Return,
    ]
    assert body[5].instr.bind == "c"
    assert body[5].instr.targets == ("helper", "helper2")
    assert body[6].instr.bind is None
    assert parse_program(print_program(p)) == p


def test_parse_is_whitespace_insensitive():
    a = parse_program("method main() {\n  1: a = new A\n  2: a.f = a\n}")
    b = parse_program("method main()   {\n 1:a=new A\n   2:  a . f =  a\n}")
    assert a == b


def test_comments_ignored():
    p = parse_program("# header\nmethod main() { # open\n  1: nop # body\n}\n")
    assert len(p.method("main").body) == 1


def test_slot_assignment_params_then_locals():
    p = parse_program(
        "method main() {\n  1: nop\n}\nmethod f(a, b) {\n  1: c = new T\n  2: d = c\n  3: call [f](d, c)\n}"
    )
    assert p.method("f").slot_of == {"a": 0, "b": 1, "c": 2, "d": 3}
    assert p.method("f").ret_slot == 4


@pytest.mark.parametrize(
    "text,exc",
    [
        ("method main() {\n  1: x = y\n}", ResolutionError),  # use before def
        ("method main() {\n  1: goto 9\n}", ResolutionError),  # unknown label
        ("method main() {\n  1: call [ghost]()\n}", ResolutionError),  # unknown target
        ("method foo() {\n  1: nop\n}", ResolutionError),  # no entry method
        ("method main(x) {\n  1: nop\n}", ResolutionError),  # entry takes params
        ("method main() {\n  1: nop\n  1: nop\n}", DuplicateNameError),
        ("method main() {\n  1: nop\n}\nmethod main() {\n  1: nop\n}", DuplicateNameError),
        ("method main(a, a) {\n  1: nop\n}", DuplicateNameError),
        ("method main() {\n  0: nop\n}", ParseError),  # labels are positive
        ("method main() {\n  1: x =\n}", ParseError),
        ("method main() {\n  1: nop 2: nop\n}", ParseError),  # one per line
        ("method main() {\n  1: x ~ y\n}", ParseError),
        ("", ParseError),
    ],
)
def test_parse_errors(text, exc):
    with pytest.raises(exc):
        parse_program(text)


def test_duplicate_method_error_names_the_first_repeated_name():
    text = "".join(f"method {n}() {{\n  1: nop\n}}\n" for n in ("main", "b", "a", "b", "a"))
    with pytest.raises(DuplicateNameError, match="^duplicate method name 'b'$"):
        parse_program(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_program("method main() {\n  1: a = new A\n  2: b ~ c\n}")
    assert info.value.line == 3 and info.value.col == 8


def test_straight_line_cfg():
    p = parse_program("method main() {\n  1: a = new A\n  2: b = a\n  3: b.f = a\n}")
    cfg = build_cfg(p.method("main"))
    assert len(cfg.blocks) == 1
    assert cfg.back_edges == frozenset()
    assert len(cfg.topo_order) == 1


def test_irreducible_two_header_loop_rejected():
    # Four blocks: [1] branches to A=[2,3] and B=[4,5]; A jumps into B, B
    # jumps back into A, and B can fall through to [6].  Neither 2 nor 4
    # dominates the retreating edge source (the entry branch reaches each
    # directly), so no edge is a dominator back-edge and the A/B cycle
    # survives: irreducible.
    text = """\
method main() {
  1: if goto 4
  2: nop
  3: goto 4
  4: nop
  5: if goto 2
  6: nop
}
"""
    with pytest.raises(IrreducibleCfgError):
        build_cfg(parse_program(text).method("main"))


def test_return_has_exit_successor():
    p = parse_program("method main() {\n  1: return\n  2: nop\n}")
    cfg = build_cfg(p.method("main"))
    assert cfg.succ[1] == ("exit",)
    assert "exit" not in cfg.succ[2] or cfg.succ[2] == ("exit",)


def test_unreachable_straight_line_code_allowed():
    p = parse_program("method main() {\n  1: goto 3\n  2: nop\n  3: nop\n}")
    cfg = build_cfg(p.method("main"))
    assert len(cfg.topo_order) == len(cfg.blocks) == 3


def test_unreachable_cycle_rejected():
    text = "method main() {\n  1: return\n  2: nop\n  3: goto 2\n}"
    with pytest.raises(IrreducibleCfgError):
        build_cfg(parse_program(text).method("main"))


def test_call_graph_no_calls():
    p = parse_program("method main() {\n  1: a = new A\n}")
    cg = build_call_graph(p)
    assert cg.edges == ()
    assert all(len(s) == 1 for s in cg.sccs)
    assert cg.recursive_call_sites == frozenset()


def test_call_graph_two_cycle():
    text = """\
method main() {
  1: call [foo]()
}
method foo() {
  1: call [bar]()
}
method bar() {
  1: call [foo]()
}
"""
    cg = build_call_graph(parse_program(text))
    assert cg.recursive_call_sites == {("foo", 1), ("bar", 1)}
    assert cg.is_recursive_edge("foo", "bar") and cg.is_recursive_edge("bar", "foo")
    assert not cg.is_recursive_edge("main", "foo")


def test_recursive_sites_stable_under_method_shuffle(small_corpus):
    rng = random.Random(5)
    for _, program in small_corpus:
        cg = build_call_graph(program)
        methods = list(program.methods)
        rng.shuffle(methods)
        shuffled = Program(methods=tuple(methods), entry=program.entry)
        assert build_call_graph(shuffled).recursive_call_sites == cg.recursive_call_sites


def test_corpus_round_trip_and_reducible():
    files = generate_corpus(CorpusConfig(program_count=15, seed=11))
    for name, text in files:
        p = parse_program(text)
        assert parse_program(print_program(p)) == p, name
        for m in p.methods:
            build_cfg(m)  # raises on irreducible


def test_back_edges_and_topo_are_consistent(small_corpus):
    for _, program in small_corpus:
        for m in program.methods:
            cfg = build_cfg(m)
            pos = {b.leader: i for i, b in enumerate(cfg.topo_order)}
            block_leader = {}
            for b in cfg.blocks:
                for s in b.statements:
                    block_leader[s.label] = b.leader
            for u, vs in cfg.succ.items():
                if not isinstance(u, int):
                    continue
                for v in vs:
                    if not isinstance(v, int) or block_leader[v] != v:
                        continue  # only block-to-block edges
                    if (u, v) in cfg.back_edges:
                        assert pos[v] <= pos[block_leader[u]]
                    else:
                        assert pos[block_leader[u]] < pos[v] or block_leader[u] == v
            # removing back-edges leaves an acyclic block graph
            reduced = {b.leader: [] for b in cfg.blocks}
            for b in cfg.blocks:
                u = b.statements[-1].label
                for v in cfg.succ[u]:
                    if isinstance(v, int) and (u, v) not in cfg.back_edges:
                        reduced[b.leader].append(block_leader[v])
            state = {}

            def acyclic(n):
                if state.get(n) == 1:
                    return False
                if state.get(n) == 2:
                    return True
                state[n] = 1
                ok = all(acyclic(w) for w in reduced[n])
                state[n] = 2
                return ok

            assert all(acyclic(b.leader) for b in cfg.blocks)


def test_print_preserves_method_order():
    text = "method main() {\n  1: call [zeta]()\n}\nmethod zeta() {\n  1: nop\n}\n"
    p = parse_program(text)
    assert print_program(p).index("main") < print_program(p).index("zeta")


def test_bottom_up_order_puts_callees_first(small_corpus):
    for name, program in small_corpus:
        cg = build_call_graph(program)
        order = cg.bottom_up_order()
        assert sorted(order) == sorted(program.method_names), name
        pos = {n: i for i, n in enumerate(order)}
        for _, caller, callee in cg.edges:
            if callee not in cg.scc_of(caller):
                assert pos[callee] < pos[caller], (name, caller, callee)


# ---------------------------------------------------------------------------
# Scanner and parser: exact error positions and messages, line handling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,message,line,col",
    [
        # a character no token can start with
        ("method main() {\n  1: x ~ y\n}", "unexpected character '~'", 2, 8),
        ("method main() {\n\t1: a = new A\n\t2: b @ a\n}", "unexpected character '@'", 3, 7),
        ("method main() {\n  1: x = y \xe9\n}", "unexpected character '\xe9'", 2, 12),
        # the whole text is scanned before parsing starts
        ("method 1() {\n  1: ~\n}", "unexpected character '~'", 2, 6),
        # expected identifier / integer / a given token
        ("method 1() {\n}", "expected identifier, found '1'", 1, 8),
        ("method main() {\n  1: 2\n}", "expected identifier, found '2'", 2, 6),
        ("method main() {\n  1: call [](a)\n}", "expected identifier, found ']'", 2, 12),
        ("method main() {\n  1: goto x\n}", "expected integer, found 'x'", 2, 11),
        ("method main() {\n  1: if goto x\n}", "expected integer, found 'x'", 2, 14),
        ("method main() {\n  x: nop\n}", "expected statement label, found 'x'", 2, 3),
        ("method main() {\n  1 nop\n}", "expected ':', found 'nop'", 2, 5),
        ("method main() {\n  1: a = new A\n  2: a.f a\n}", "expected '=', found 'a'", 3, 10),
        ("method main() {\n  1: if 3\n}", "expected 'goto', found '3'", 2, 9),
        ("method main() {\n  1: call (a)\n}", "expected '[', found '('", 2, 11),
        ("method main() {\n  1: call [main]\n}", "expected '(', found '}'", 3, 1),
        ("main() {}", "expected 'method', found 'main'", 1, 1),
        ("method main() {\n  1: nop\n}\n}", "expected 'method', found '}'", 4, 1),
        # end of input: reported at the last token
        ("method main() {\n  1: nop\n", "expected statement label, found end of input", 2, 6),
        ("method main() {\n  1: a = \n", "expected identifier, found end of input", 2, 8),
        ("method", "expected identifier, found end of input", 1, 1),
        # two statements on one line
        ("method main() {\n  1: nop\n  2: nop 3: nop\n}", "expected end of line after statement", 3, 10),
        (
            "method main() {\n  1: a = new A\n  2: return a 3: nop\n}",
            "expected end of line after statement",
            3,
            15,
        ),
        # a keyword used as an identifier (after `return`, it is no operand)
        ("method main() {\n  1: return new\n}", "expected end of line after statement", 2, 13),
        ("method main() {\n  1: new = new A\n}", "expected identifier, found 'new'", 2, 6),
        ("method main() {\n  1: a = new if\n}", "expected identifier, found 'if'", 2, 14),
        ("method main(null) {\n}", "expected identifier, found 'null'", 1, 13),
        (
            "method main() {\n  1: nop\n}\nmethod f(a, new) {\n  1: nop\n}",
            "expected identifier, found 'new'",
            4,
            13,
        ),
        # splitlines line endings count lines
        ("method main() {\r\n  1: a = new A\r\n  2: b $ a\r\n}", "unexpected character '$'", 3, 8),
        ("method main() {\r  1: a = new A\r  2: b $ a\r}", "unexpected character '$'", 3, 8),
        (
            "method main() {\x0c  1: nop\x0b  2: nop 3: nop }",
            "expected end of line after statement",
            3,
            10,
        ),
    ],
)
def test_parse_error_message_and_position(text, message, line, col):
    with pytest.raises(ParseError) as info:
        parse_program(text)
    assert (info.value.line, info.value.col) == (line, col)
    assert str(info.value) == f"{line}:{col}: {message}"


@pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n", "  \t\n# x ~ y\n"])
def test_no_method_error_has_no_position(text):
    with pytest.raises(ParseError) as info:
        parse_program(text)
    assert (info.value.line, info.value.col) == (0, 0)
    assert str(info.value) == "expected at least one method"


_PLAIN = "method main() {\n  1: a = new A\n  2: a.f = a\n  3: b = a.f\n  4: return b\n}\n"


@pytest.mark.parametrize(
    "text",
    [
        _PLAIN.replace("\n", "\r\n"),
        _PLAIN.replace("\n", "\r"),
        _PLAIN.replace("  ", "\t"),
        _PLAIN.replace("  ", " \xa0"),  # any str.isspace() character separates
        "# leading\nmethod main() {#c\n  1: a = new A#c ~ $\n  2: a.f = a # c\n"
        "# between\n  3: b = a.f\n  4: return b\n}# trailing",
        # a statement split across lines
        "method main() {\n  1: a =\n new\n A\n  2: a\n.f = a\n  3: b = a .\nf\n  4: return\n b\n}",
    ],
)
def test_layout_does_not_change_the_program(text):
    assert parse_program(text) == parse_program(_PLAIN)


def test_return_operand_is_optional_before_close_and_next_label():
    p = parse_program("method main() {\n  1: a = new A\n  2: return a }\nmethod f() {\n  1: return }")
    assert p.method("main").body[1].instr == Return("a")
    assert p.method("f").body[0].instr == Return(None)
    p = parse_program("method main() {\n  1: return\n  2: nop\n}")
    assert [s.instr for s in p.method("main").body] == [Return(None), Nop()]


@pytest.mark.parametrize(
    "shape",
    [
        {},
        {"methods_min": 1, "methods_max": 1, "stmts_min": 300, "stmts_max": 300, "recursion_prob": 1.0},
    ],
    ids=["default", "roundtrip-large"],
)
def test_print_parse_round_trip_over_generated_corpus(shape):
    files = generate_corpus(CorpusConfig(program_count=12, seed=3, **shape))
    for name, text in files:
        p = parse_program(text)
        printed = print_program(p)
        assert parse_program(printed) == p, name
        assert print_program(parse_program(printed)) == printed, name


def test_call_graph_lookups_match_edge_scans(small_corpus, rec, loopy):
    programs = [p for _, p in small_corpus] + [rec, loopy]
    for program in programs:
        cg = build_call_graph(program)
        for name in [*program.method_names, "no_such_method"]:
            callers, sites = [], []
            for site, caller, callee in cg.edges:
                if callee == name:
                    callers += [caller] if caller not in callers else []
                    sites += [site] if site not in sites else []
            assert cg.call_sites_of(name) == tuple(sites)
            if name == "no_such_method":
                with pytest.raises(KeyError):
                    cg.scc_of(name)
                continue
            (scc,) = [c for c in cg.sccs if name in c]
            assert cg.scc_of(name) == scc
            for other in program.method_names:
                assert cg.is_recursive_edge(name, other) == (
                    other in scc and name in cg.recursive_methods
                )


# ---------------------------------------------------------------------------
# build_cfg against the dominator-set construction
# ---------------------------------------------------------------------------


def _dominator_cfg(m):
    """The CFG facts ``build_cfg`` must produce, found the slow way: block
    dominators as frozenset intersections iterated to a fixed point,
    back-edges as the block edges whose target dominates their source, and
    Kahn's order (smallest leader first) over the other edges.  Returns
    ``(succ, pred, back_edges, loop_headers, topo_leaders)``; raises
    IrreducibleCfgError when the edges left after removing the back-edges
    still close a cycle."""
    body = m.body
    labels = [s.label for s in body]
    succ = {"entry": (labels[0],) if labels else ("exit",)}
    leaders = set(labels[:1])
    for i, s in enumerate(body):
        fall = labels[i + 1] if i + 1 < len(labels) else "exit"
        if isinstance(s.instr, Goto):
            succ[s.label] = (s.instr.target,)
        elif isinstance(s.instr, Branch):
            succ[s.label] = (fall,) if s.instr.target == fall else (fall, s.instr.target)
        elif isinstance(s.instr, Return):
            succ[s.label] = ("exit",)
        else:
            succ[s.label] = (fall,)
        if isinstance(s.instr, (Goto, Branch)):
            leaders.add(s.instr.target)
        if isinstance(s.instr, (Goto, Branch, Return)) and i + 1 < len(labels):
            leaders.add(fall)
    pred = {"entry": [], "exit": [], **{n: [] for n in labels}}
    for u, vs in succ.items():
        for v in vs:
            pred[v].append(u)

    blocks = []
    for n in labels:
        if n in leaders or not blocks:
            blocks.append([])
        blocks[-1].append(n)
    block_of = {n: bi for bi, b in enumerate(blocks) for n in b}
    bsucc = {bi: {block_of[v] for v in succ[b[-1]] if v != "exit"} for bi, b in enumerate(blocks)}
    bpred = {bi: {u for u in bsucc if bi in bsucc[u]} for bi in bsucc}

    back = set()
    if blocks:
        reachable, stack = set(), [0]
        while stack:
            n = stack.pop()
            if n not in reachable:
                reachable.add(n)
                stack.extend(bsucc[n])
        dom = {bi: frozenset(reachable) for bi in reachable}
        dom[0] = frozenset({0})
        changed = True
        while changed:
            changed = False
            for bi in sorted(reachable - {0}):
                new = frozenset(reachable)
                for p in bpred[bi] & reachable:
                    new &= dom[p]
                new |= {bi}
                if new != dom[bi]:
                    dom[bi], changed = new, True
        back = {(u, v) for u in reachable for v in bsucc[u] if v in dom[u]}

    indeg = {bi: 0 for bi in bsucc}
    for u, vs in bsucc.items():
        for v in vs - {v for (x, v) in back if x == u}:
            indeg[v] += 1
    heap = [(blocks[bi][0], bi) for bi in indeg if indeg[bi] == 0]
    heapq.heapify(heap)
    topo = []
    while heap:
        _, u = heapq.heappop(heap)
        topo.append(blocks[u][0])
        for v in sorted(bsucc[u]):
            if (u, v) not in back:
                indeg[v] -= 1
                if indeg[v] == 0:
                    heapq.heappush(heap, (blocks[v][0], v))
    if len(topo) != len(blocks):
        raise IrreducibleCfgError(f"method '{m.name}' has a cycle that is not a natural loop")
    back_edges = frozenset((blocks[u][-1], blocks[v][0]) for u, v in back)
    return (
        succ,
        {n: tuple(ps) for n, ps in pred.items()},
        back_edges,
        frozenset(h for _, h in back_edges),
        tuple(topo),
    )


def _matches_dominator_cfg(m) -> bool:
    """Check ``build_cfg(m)`` against the dominator-set construction; true
    when the method is reducible."""
    try:
        expected = _dominator_cfg(m)
    except IrreducibleCfgError as oracle_error:
        with pytest.raises(IrreducibleCfgError) as info:
            build_cfg(m)
        assert str(info.value) == str(oracle_error)
        return False
    cfg = build_cfg(m)
    found = (
        cfg.succ,
        cfg.pred,
        cfg.back_edges,
        cfg.loop_headers,
        tuple(b.leader for b in cfg.topo_order),
    )
    assert found == expected, print_program(Program(methods=(m,), entry=m.name))
    return True


def _method(instrs):
    return Method(
        name="main",
        params=(),
        body=tuple(LabeledStatement(i, instr) for i, instr in enumerate(instrs, start=1)),
    )


def _control_instrs(n):
    """Every control instruction a method of ``n`` statements can hold."""
    return [Nop(), Return(None)] + [k(t) for t in range(1, n + 1) for k in (Goto, Branch)]


@pytest.mark.parametrize("seed", [1, 90917])
@pytest.mark.parametrize(
    "shape, count",
    [
        ({}, 200),
        ({"methods_min": 1, "methods_max": 1, "stmts_min": 300, "stmts_max": 300, "recursion_prob": 1.0}, 20),
    ],
    ids=["default", "roundtrip-large"],
)
def test_cfg_matches_dominator_sets_over_generated_corpus(shape, count, seed):
    files = generate_corpus(CorpusConfig(program_count=count, seed=seed, **shape))
    for _, text in files:
        for m in parse_program(text).methods:
            assert _matches_dominator_cfg(m)


def test_cfg_matches_dominator_sets_on_every_small_method():
    outcomes = Counter()
    for n in range(5):
        for instrs in itertools.product(_control_instrs(n), repeat=n):
            outcomes[_matches_dominator_cfg(_method(instrs))] += 1
    assert sum(outcomes.values()) == 1 + 4 + 6**2 + 8**3 + 10**4
    assert outcomes[True] and outcomes[False]


def test_cfg_matches_dominator_sets_on_random_methods():
    rng = random.Random(90917)
    outcomes = Counter()
    for _ in range(3000):
        n = rng.randint(5, 9)
        kinds = _control_instrs(n) + [Alloc("a", "A")] * 4
        outcomes[_matches_dominator_cfg(_method(rng.choice(kinds) for _ in range(n)))] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100
