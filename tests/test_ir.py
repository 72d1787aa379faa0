import ast
import dataclasses
import heapq
import itertools
import random
import re
from collections import Counter

import pytest

from artpta import (
    ArtError,
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
from artpta import ir
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
    assert any(b[0].label == header for b in cfg.blocks)


def test_rec_call_graph_cyclic(rec):
    cg = build_call_graph(rec)
    assert frozenset({"foo"}) in cg.sccs
    assert cg.is_recursive_method("foo")
    assert not cg.is_recursive_method("main")
    assert _recursive_sites(cg) == {("foo", 7)}


def _recursive_sites(cg) -> set:
    """The call-sites of the edges that lie on a call-graph cycle."""
    return {site for site, caller, callee in cg.edges if cg.is_recursive_edge(caller, callee)}


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


def test_program_method_of_an_unknown_name_is_a_key_error(rec):
    with pytest.raises(KeyError):
        rec.method("ghost")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_program("method main() {\n  1: a = new A\n  2: b ~ c\n}")
    assert info.value.line == 3 and info.value.col == 8


@pytest.mark.parametrize(
    "text,exc,message",
    [
        # a syntax error anywhere beats every other fault
        (
            "method main() {\n  1: x = y\n}\nmethod f() {\n  1: goto x\n}\n",
            ParseError,
            "5:11: expected integer, found 'x'",
        ),
        (
            "method main() {\n  1: x = y\n}\nmethod f() {\n  1: x ~ y\n}\n",
            ParseError,
            "5:8: unexpected character '~'",
        ),
        # a duplicate parameter is reported at the end of its method: after
        # a syntax error in its own body, before one in a later method
        (
            "method main() {\n  1: nop\n}\nmethod f(a, b, a) {\n  1: x = y\n}\n"
            "method g() {\n  1: goto x\n}\n",
            DuplicateNameError,
            "duplicate parameter 'a' in method 'f'",
        ),
        (
            "method main() {\n  1: nop\n}\nmethod f(a, a) {\n  1: goto x\n}\n",
            ParseError,
            "5:11: expected integer, found 'x'",
        ),
        ("method main() {\n}\nmethod f(a, b, b, a) {\n}\n", DuplicateNameError, "duplicate parameter 'b' in method 'f'"),
        # a scanner error in a later method still beats a duplicate
        # parameter, on canonical lines and after a comment line
        (
            "method f(a, a) {\n}\nmethod main() {\n  1: x = $\n}\n",
            ParseError,
            "4:10: unexpected character '$'",
        ),
        (
            "method f(a, a) {\n}\n# a comment\nmethod main() {\n  1: x = $\n}\n",
            ParseError,
            "5:10: unexpected character '$'",
        ),
        # then a duplicate method name, the missing entry, entry parameters
        (
            "method main() {\n  0: call [ghost]()\n}\nmethod main() {\n  1: nop\n}\n",
            DuplicateNameError,
            "duplicate method name 'main'",
        ),
        (
            "method f() {\n  0: x = y\n  2: call [ghost]()\n}\n",
            ResolutionError,
            "program has no entry method 'main'",
        ),
        (
            "method main(a) {\n  1: x = y\n  2: call [ghost]()\n}\n",
            ResolutionError,
            "entry method 'main' must take no parameters",
        ),
        # within a method, the earliest statement at fault; within one
        # statement its label, then its operands, then its jump target
        ("method main() {\n  1: goto 9\n  2: x = y\n}\n", ResolutionError, "unknown branch label 9 at main:1"),
        (
            "method main() {\n  1: x = y\n  2: goto 9\n}\n",
            ResolutionError,
            "variable 'y' used at main:1 before any assignment",
        ),
        (
            "method main() {\n  1: if goto 3\n  2: x = y\n  3: nop\n}\n",
            ResolutionError,
            "variable 'y' used at main:2 before any assignment",
        ),
        ("method main() {\n  1: goto 9\n  1: nop\n}\n", ResolutionError, "unknown branch label 9 at main:1"),
        ("method main() {\n  0: goto 9\n}\n", ParseError, "label 0 in method 'main' must be positive"),
        ("method main() {\n  1: nop\n  1: goto 9\n}\n", DuplicateNameError, "duplicate label 1 in method 'main'"),
        ("method main() {\n  1: goto 0\n  0: nop\n}\n", ParseError, "label 0 in method 'main' must be positive"),
        (
            "method main() {\n  1: x = new A\n  2: y.f = z\n}\n",
            ResolutionError,
            "variable 'y' used at main:2 before any assignment",
        ),
        ("method main() {\n  1: x = x\n}\n", ResolutionError, "variable 'x' used at main:1 before any assignment"),
        (
            "method main() {\n  1: return y\n  2: goto 9\n}\n",
            ResolutionError,
            "variable 'y' used at main:1 before any assignment",
        ),
        # a statement fault anywhere in a method beats its unknown call
        # targets, which beat the faults of later methods
        (
            "method main() {\n  1: call [ghost]()\n  2: x = y\n}\n",
            ResolutionError,
            "variable 'y' used at main:2 before any assignment",
        ),
        (
            "method main() {\n  1: call [ghost]()\n}\nmethod f() {\n  1: x = y\n}\n",
            ResolutionError,
            "unknown call target 'ghost' at main:1",
        ),
        (
            "method main() {\n  1: call [f, ghost, phantom]()\n}\nmethod f() {\n}\n",
            ResolutionError,
            "unknown call target 'ghost' at main:1",
        ),
    ],
)
def test_front_end_error_precedence(text, exc, message):
    with pytest.raises(exc) as info:
        parse_program(text)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_a_call_binding_defines_its_variable():
    p = parse_program("method main() {\n  1: x = call [main]()\n  2: return x\n}\n")
    assert p.method("main").slot_of == {"x": 0}


def test_straight_line_cfg():
    p = parse_program("method main() {\n  1: a = new A\n  2: b = a\n  3: b.f = a\n}")
    cfg = build_cfg(p.method("main"))
    assert len(cfg.blocks) == 1
    assert cfg.back_edges == frozenset()
    assert cfg.block_succ == ((),)


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
    assert cfg.pred["exit"] == (1, 2)
    assert cfg.pred[2] == ()


def test_unreachable_straight_line_code_allowed():
    p = parse_program("method main() {\n  1: goto 3\n  2: nop\n  3: nop\n}")
    cfg = build_cfg(p.method("main"))
    assert [b[0].label for b in cfg.blocks] == [1, 2, 3]


def test_unreachable_cycle_rejected():
    text = "method main() {\n  1: return\n  2: nop\n  3: goto 2\n}"
    with pytest.raises(IrreducibleCfgError):
        build_cfg(parse_program(text).method("main"))


def test_call_graph_no_calls():
    p = parse_program("method main() {\n  1: a = new A\n}")
    cg = build_call_graph(p)
    assert cg.edges == ()
    assert all(len(s) == 1 for s in cg.sccs)
    assert _recursive_sites(cg) == set()


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
    assert _recursive_sites(cg) == {("foo", 1), ("bar", 1)}
    assert cg.is_recursive_edge("foo", "bar") and cg.is_recursive_edge("bar", "foo")
    assert not cg.is_recursive_edge("main", "foo")


def test_recursive_sites_stable_under_method_shuffle(small_corpus):
    rng = random.Random(5)
    for _, program in small_corpus:
        cg = build_call_graph(program)
        methods = list(program.methods)
        rng.shuffle(methods)
        shuffled = Program(methods=tuple(methods), entry=program.entry)
        assert _recursive_sites(build_call_graph(shuffled)) == _recursive_sites(cg)


def test_corpus_round_trip_and_reducible():
    files = generate_corpus(CorpusConfig(program_count=15, seed=11))
    for name, text in files:
        p = parse_program(text)
        assert parse_program(print_program(p)) == p, name
        for m in p.methods:
            build_cfg(m)  # raises on irreducible


def _walk_order_edges(cfg) -> tuple[int, int]:
    """Check that every block edge of ``cfg`` that is no back-edge goes to a
    higher-numbered block, and every back-edge to a block numbered no
    higher than its source: the engines walk the blocks by number.  Returns
    the counts of edges and of back-edges."""
    edges = back = 0
    for u, vs in enumerate(cfg.block_succ):
        for v in vs:
            edges += 1
            if (cfg.blocks[u][-1].label, cfg.blocks[v][0].label) in cfg.back_edges:
                back += 1
                assert v <= u
            else:
                assert v > u
    return edges, back


def test_back_edges_and_topo_are_consistent(small_corpus):
    for _, program in small_corpus:
        for m in program.methods:
            _walk_order_edges(build_cfg(m))


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


_HUGE = "9" * 5000  # past CPython's default limit of 4,300 digits for int()


@pytest.mark.parametrize(
    "text,col",
    [
        (f"method main() {{\n  {_HUGE}: nop\n}}\n", 3),
        (f"method main() {{\n  1: goto {_HUGE}\n}}\n", 11),
        (f"method main() {{\n  1: if goto {_HUGE}\n}}\n", 14),
    ],
    ids=["label", "goto-target", "branch-target"],
)
def test_an_integer_past_the_digit_limit_is_a_parse_error(text, col):
    with pytest.raises(ParseError) as info:
        parse_program(text)
    assert str(info.value) == f"2:{col}: integer too long (5000 digits)"


@pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n", "  \t\n# x ~ y\n"])
def test_no_method_error_has_no_position(text):
    with pytest.raises(ParseError) as info:
        parse_program(text)
    assert (info.value.line, info.value.col) == (0, 0)
    assert str(info.value) == "expected at least one method"


_PLAIN = "method main() {\n  1: a = new A\n  2: a.f = a\n  3: b = a.f\n  4: return b\n}\n"
#: _PLAIN with statements split across lines
_SPLIT = "method main() {\n  1: a =\n new\n A\n  2: a\n.f = a\n  3: b = a .\nf\n  4: return\n b\n}"


@pytest.mark.parametrize(
    "text",
    [
        _PLAIN.replace("\n", "\r\n"),
        _PLAIN.replace("\n", "\r"),
        _PLAIN.replace("  ", "\t"),
        _PLAIN.replace("  ", " \xa0"),  # any str.isspace() character separates
        "# leading\nmethod main() {#c\n  1: a = new A#c ~ $\n  2: a.f = a # c\n"
        "# between\n  3: b = a.f\n  4: return b\n}# trailing",
        _SPLIT,
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


#: The benchmark's two corpus shapes: its roundtrip-small and tamper-verify
#: workloads use the default one.
_WORKLOAD_SHAPES = [
    {},
    {"methods_min": 1, "methods_max": 1, "stmts_min": 300, "stmts_max": 300, "recursion_prob": 1.0},
]


@pytest.mark.parametrize("shape", _WORKLOAD_SHAPES, ids=["default", "roundtrip-large"])
def test_print_parse_round_trip_over_generated_corpus(shape):
    files = generate_corpus(CorpusConfig(program_count=12, seed=3, **shape))
    for name, text in files:
        p = parse_program(text)
        printed = print_program(p)
        assert parse_program(printed) == p, name
        assert print_program(parse_program(printed)) == printed, name


# ---------------------------------------------------------------------------
# Resolved operands
# ---------------------------------------------------------------------------


def _by_hand(p):
    """``p`` rebuilt from its fields, as by hand: the same statements and
    slots, and no mark."""
    methods = tuple(Method(m.name, m.params, m.body, slot_of=dict(m.slot_of)) for m in p.methods)
    return Program(methods=methods, entry=p.entry)


@pytest.mark.parametrize("shape", _WORKLOAD_SHAPES, ids=["default", "roundtrip-large"])
def test_resolved_operands_leave_equality_hashing_printing_alone(shape):
    for name, text in generate_corpus(CorpusConfig(program_count=6, seed=5, **shape)):
        p = parse_program(text)
        plain = _by_hand(p)
        marks = [m.mark for m in p.methods]
        assert len(set(map(id, marks))) == len(marks) and None not in marks, name
        assert not any(isinstance(mark, (Method, LabeledStatement)) for mark in marks), name
        assert all(s.operands[0] is m.mark for m in p.methods for s in m.body), name
        assert all(m.mark is None for m in plain.methods)
        assert p == plain and hash(p) == hash(plain), name
        assert repr(p) == repr(plain) and "operands" not in repr(p), name
        assert print_program(p) == print_program(plain) == text, name
        again = parse_program(print_program(plain))
        assert again == p and hash(again) == hash(p) and repr(again) == repr(p), name
        for m in p.methods:
            copy = dataclasses.replace(m)  # the mark is derived: replace drops it
            assert copy == m and copy.mark is None
            for s in m.body:
                bare = dataclasses.replace(s)  # and so are a statement's operands
                assert bare == s and hash(bare) == hash(s) and repr(bare) == repr(s), name
                assert bare.operands is None and "operands" not in repr(s), name


def _variables(ops):
    """The ``VarId`` operands of one resolved statement."""
    _, kind, a, b, _ = ops
    found = [v for v in (a, b) if isinstance(v, ir.VarId)]
    if kind is Call:
        found += b
    return found


def _slots(m):
    """The slots of ``m`` worked out from its text: the parameters, then the
    locals in order of first assignment."""
    slots = {p: k for k, p in enumerate(m.params)}
    for s in m.body:
        instr = s.instr
        x = instr.bind if isinstance(instr, Call) else getattr(instr, "x", None)
        if x is not None and not isinstance(instr, (FieldStore, Return)):
            slots.setdefault(x, len(slots))
    return slots


def _by_name(s, m):
    """The operands of ``s`` looked up by name, through ``m.slot_of``, after
    ``m``'s mark."""

    def var(x):
        return ir.VarId(m.name, m.slot_of[x])

    instr = s.instr
    kind = instr.__class__
    if kind is Alloc:
        return m.mark, kind, var(instr.x), frozenset({ir.Site(m.name, s.label)}), None
    if kind is Copy:
        return m.mark, kind, var(instr.x), var(instr.y), None
    if kind is AssignNull:
        return m.mark, kind, var(instr.x), None, None
    if kind is FieldStore or kind is FieldLoad:
        return m.mark, kind, var(instr.x), var(instr.y), instr.f
    if kind is Return:
        x = None if instr.x is None else var(instr.x)
        return m.mark, kind, x, ir.VarId(m.name, m.ret_slot), None
    if kind is Call:
        bind = None if instr.bind is None else var(instr.bind)
        return m.mark, kind, bind, tuple(map(var, instr.args)), None
    return m.mark, kind, None, None, None


@pytest.mark.parametrize("seed", [1, 90917])
@pytest.mark.parametrize("shape", _WORKLOAD_SHAPES, ids=["default", "roundtrip-large"])
def test_the_builder_resolves_each_statement_as_by_name(shape, seed):
    for name, text in generate_corpus(CorpusConfig(program_count=6, seed=seed, **shape)):
        for m in parse_program(text).methods:
            assert m.slot_of == _slots(m), (name, m.name)
            made: dict = {}
            for s in m.body:
                ops = s.operands
                assert ops[0] is m.mark and ops[1] is s.instr.__class__
                assert ops == _by_name(s, m), (name, m.name, s.label)
                for v in _variables(ops):
                    # one identifier per variable, the carrier included
                    assert made.setdefault(v.slot, v) is v
                    assert v.method == m.name
            assert set(made) <= set(range(m.var_count + 1))


# ---------------------------------------------------------------------------
# The line reader against the token parser
# ---------------------------------------------------------------------------


def _token_parse(text):
    """The token parser alone: the reference the line reader must match."""
    builder = ir._Builder()
    ir._Parser(*ir._scan(text), builder).program()
    return builder.program()


def _outcome(parse, text):
    """``(program, slots)``, ``(error type, message)``, or None when
    ``parse`` returns None."""
    try:
        p = parse(text)
    except ArtError as exc:
        return type(exc), str(exc)
    return p and (p, [m.slot_of for m in p.methods])


def _check_readers_agree(text):
    """Whenever the line reader returns a program or raises, it agrees with
    the token parser, slots included; whenever the token parser raises,
    ``parse_program`` raises the same.  Returns whether the line reader
    read the text."""
    expected = _outcome(_token_parse, text)
    assert _outcome(parse_program, text) == expected
    read = _outcome(ir._read_lines, text)
    assert read in (None, expected)
    return read is not None


@pytest.mark.parametrize("seed", [1, 90917])
@pytest.mark.parametrize("shape", _WORKLOAD_SHAPES, ids=["default", "roundtrip-large"])
def test_line_reader_reads_every_corpus_program(shape, seed):
    for name, text in generate_corpus(CorpusConfig(program_count=8, seed=seed, **shape)):
        assert _check_readers_agree(text), name
        assert _check_readers_agree(print_program(parse_program(text))), name


_KEYWORDISH = ["newx", "nullx", "gotox", "callx", "new", "null", "goto", "call"]


def _mutate(text, rng):
    """``text`` with a few random layout, naming, label and syntax changes."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        line = lines[i]
        kind = rng.randrange(12)
        if kind == 0:  # other whitespace for some spaces, or none
            other = ["\t", "\xa0", "  ", ""]
            lines[i] = "".join(rng.choice(other) if c == " " and rng.random() < 0.3 else c for c in line)
        elif kind == 1:  # split after a token
            cuts = [j for j, c in enumerate(line) if c in " :=.,(["]
            if cuts:
                j = rng.choice(cuts) + 1
                lines[i : i + 1] = [line[:j], line[j:]]
        elif kind == 2 and line.strip() == "}" and i:  # close on a statement line
            lines[i - 1 : i + 1] = [lines[i - 1] + " }"]
        elif kind == 3:  # a name that starts with a keyword or is one; a repeated parameter
            old, word = rng.choice([("p1", "p0"), ("q", "p")] + [("v1", w) for w in _KEYWORDISH])
            lines = [s.replace(old, word) for s in lines]
        elif kind == 4:  # comments
            lines[i] = line + rng.choice(["# c", " # x ~ y", "#"])
            if rng.random() < 0.5:
                lines.insert(i, "# a comment line")
        elif kind in (5, 6):  # labels 0, 007, a repeated one, a huge one
            head, sep, rest = line.partition(":")
            if sep and head.strip().isdigit():
                label = rng.choice(["0", "007", "1", "2", "9" * 5000])
                lines[i] = f"  {label}:{rest}"
        elif kind == 7:  # a missing, an extra or a respaced comma
            old, new = rng.choice([(",", ""), ("(", "(,"), (")", ", )"), (", ", ","), (", ", " ,  ")])
            lines[i] = line.replace(old, new, 1)
        elif kind == 8:  # jump targets: leading zeros, unknown
            lines[i] = line.replace("goto ", rng.choice(["goto 0", "goto 999", "goto"]), 1)
        elif kind == 9:  # a blank line, spaces only or not
            lines.insert(i, rng.choice(["", "   ", "\t"]))
        elif kind == 10:  # drop a line
            del lines[i]
        elif kind == 11:  # a keyword joined to the next token
            word = rng.choice(["method", "new", "if", "goto", "return", "call"])
            lines = [s.replace(f"{word} ", word, 1) for s in lines]
    if not lines:
        return ""
    sep = rng.choice(["\n", "\n", "\r", "\r\n", "\x0b"])
    return sep.join(lines) + rng.choice([sep, ""])


_CALLS = (
    "method main() {\n  1: a = new A\n  2: b = call [f, g](a, a)\n  3: call [g](b, a)\n  4: return b\n}\n"
    "method f(p, q) {\n  1: return p\n}\nmethod g(p, q) {\n  1: p.f = q\n  2: q = null\n  3: return\n}\n"
)


def test_line_reader_agrees_with_the_token_parser_on_mutated_programs():
    rng = random.Random(12)
    bases = [text for _, text in generate_corpus(CorpusConfig(program_count=12, seed=5))]
    bases += [_PLAIN, _CALLS] * 6
    read = 0
    for _ in range(1500):
        read += _check_readers_agree(_mutate(rng.choice(bases), rng))
    # both paths are exercised: a share of the mutants stays canonical
    assert 100 < read < 1400


def test_canonical_text_is_never_scanned(monkeypatch):
    calls = []
    scan = ir._scan
    monkeypatch.setattr(ir, "_scan", lambda text: calls.append(text) or scan(text))
    for _, text in generate_corpus(CorpusConfig(program_count=20, seed=1)):
        parse_program(text)
    assert calls == []
    assert parse_program(_SPLIT) == parse_program(_PLAIN)
    assert calls == [_SPLIT]


#: Where a token or a stray character starts, written apart from the
#: scanner: every character that is not whitespace starts one or continues
#: a name or an integer.
_TOKEN_START = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\S")


def _token_starts(text):
    """``(line, column)`` of every token of ``text``, comments cut, in order."""
    return [
        (n, m.start() + 1)
        for n, line in enumerate(text.splitlines(), start=1)
        for m in _TOKEN_START.finditer(line.partition("#")[0])
    ]


def _check_error_position(text):
    """The kind of ``ParseError`` ``text`` raises at a position, after
    checking that the position points at what the message names; None when
    ``text`` raises none with a position."""
    try:
        parse_program(text)
    except ParseError as exc:
        line, col, message = exc.line, exc.col, str(exc)
    except ArtError:
        return None
    else:
        return None
    if not line:
        return None
    message = message.removeprefix(f"{line}:{col}: ")
    starts = _token_starts(text)
    where = (line, col)
    assert where in starts, (text, message)
    rest = text.splitlines()[line - 1].partition("#")[0][col - 1 :]
    if message.endswith(", found end of input"):
        assert where == starts[-1], (text, message)
        return "end of input"
    quoted = re.fullmatch(r"(?:unexpected character|.*, found) ('.*'|\".*\")", message)
    if quoted:
        assert rest.startswith(ast.literal_eval(quoted[1])), (text, message)
        return message.partition(" ")[0] if message.startswith("unexpected") else "found"
    digits = re.fullmatch(r"integer too long \(([0-9]+) digits\)", message)
    if digits:
        assert re.match(r"[0-9]+", rest)[0] == rest[: int(digits[1])], (text, message)
        return "integer too long"
    assert message == "expected end of line after statement", (text, message)
    return "end of line"


def test_every_parse_error_position_points_at_its_token():
    rng = random.Random(12)
    bases = [text for _, text in generate_corpus(CorpusConfig(program_count=12, seed=5))]
    bases += [_PLAIN, _CALLS] * 6
    texts = [_mutate(rng.choice(bases), rng) for _ in range(1500)]
    # a tab before the bad token and a comment after it; a comment that
    # hides the rest of a statement; a stray character after a tab; two
    # statements on one line
    cases = {
        "method main() {\n\t1: x = new A  # a\n\t2: y = x.\t7  # b\n}\n": "3:12: expected identifier, found '7'",
        "method main() {  # (\n  1: x = new A # $\n  2: x.f = # y\n}\n": "4:1: expected identifier, found '}'",
        "method main() {\n  1: x = new A\t$ # $\n}\n": "2:16: unexpected character '$'",
        "method main() {\n  1: nop 2: nop\n}\n": "2:10: expected end of line after statement",
    }
    for text, message in cases.items():
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_program(text)
    kinds = Counter(_check_error_position(text) for text in texts + list(cases))
    assert {"found", "unexpected", "integer too long", "end of input", "end of line"} <= set(kinds)
    assert sum(kinds.values()) - kinds[None] > 250


def _break_statement(text, rng):
    """``text`` with one statement line broken: a character that starts no
    token put into it, or the line after it joined to it with a space."""
    lines = text.splitlines()
    i = rng.choice([i for i, line in enumerate(lines[:-1]) if re.match(r"\s*[0-9]+:", line)])
    if rng.random() < 0.5:
        j = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:j] + rng.choice("$@;") + lines[i][j:]
    else:
        lines[i : i + 2] = [lines[i] + " " + lines[i + 1]]
    return "\n".join(lines) + "\n"


def test_stray_characters_and_joined_statements_read_alike_and_point_at_their_token():
    """The scanner's error and the error after a statement's last token,
    which ``_mutate``'s draws never reach: on these draws the two readers
    agree, and each error's position points at what its message names."""
    rng = random.Random(93)
    bases = [text for _, text in generate_corpus(CorpusConfig(program_count=12, seed=5))]
    bases += [_PLAIN, _CALLS] * 6
    texts = [_break_statement(rng.choice(bases), rng) for _ in range(300)]
    for text in texts:
        _check_readers_agree(text)
    kinds = Counter(_check_error_position(text) for text in texts)
    assert kinds["unexpected"] >= 20 and kinds["end of line"] >= 20, kinds


_EVERY_KIND = (
    "method main() {\n  1: a = new A\n  2: b = a\n  3: b = null\n  4: r = call [f](a)\n"
    "  5: a.f = b\n  6: c = a.f\n  7: if goto 9\n  8: goto 9\n  9: nop\n  10: return c\n}\n"
    "method f(p) {\n  1: return\n}\n"
)
#: The statements of ``_EVERY_KIND`` built by hand, each with its ``repr``.
_EVERY_KIND_STATEMENTS = [
    (LabeledStatement(1, Alloc("a", "A")), "LabeledStatement(label=1, instr=Alloc(x='a', type_tag='A'))"),
    (LabeledStatement(2, Copy("b", "a")), "LabeledStatement(label=2, instr=Copy(x='b', y='a'))"),
    (LabeledStatement(3, AssignNull("b")), "LabeledStatement(label=3, instr=AssignNull(x='b'))"),
    (
        LabeledStatement(4, Call(bind="r", targets=("f",), args=("a",))),
        "LabeledStatement(label=4, instr=Call(bind='r', targets=('f',), args=('a',)))",
    ),
    (
        LabeledStatement(5, FieldStore("a", "f", "b")),
        "LabeledStatement(label=5, instr=FieldStore(x='a', f='f', y='b'))",
    ),
    (
        LabeledStatement(6, FieldLoad("c", "a", "f")),
        "LabeledStatement(label=6, instr=FieldLoad(x='c', y='a', f='f'))",
    ),
    (LabeledStatement(7, Branch(9)), "LabeledStatement(label=7, instr=Branch(target=9))"),
    (LabeledStatement(8, Goto(9)), "LabeledStatement(label=8, instr=Goto(target=9))"),
    (LabeledStatement(9, Nop()), "LabeledStatement(label=9, instr=Nop())"),
    (LabeledStatement(10, Return("c")), "LabeledStatement(label=10, instr=Return(x='c'))"),
    (LabeledStatement(1, Return(None)), "LabeledStatement(label=1, instr=Return(x=None))"),
]


def _statements(p):
    return [s for m in p.methods for s in m.body]


def test_every_kind_reads_as_built_by_hand_from_either_reader():
    by_lines = ir._read_lines(_EVERY_KIND)
    assert by_lines is not None
    by_tokens = _token_parse(_EVERY_KIND)
    assert {s.instr.__class__ for s, _ in _EVERY_KIND_STATEMENTS} == set(ir.Instr.__args__)
    pairs = zip(_statements(by_lines), _statements(by_tokens), _EVERY_KIND_STATEMENTS, strict=True)
    for read, parsed, (hand, text) in pairs:
        assert read == parsed == hand
        assert hash(read) == hash(parsed) == hash(hand)
        assert repr(read) == repr(parsed) == repr(hand) == text


@pytest.mark.parametrize(
    "a, b",
    [
        (Branch(3), Goto(3)),
        (Return("x"), AssignNull("x")),
        (Alloc("x", "y"), Copy("x", "y")),
        (FieldStore("x", "f", "y"), FieldLoad("x", "f", "y")),
    ],
)
def test_kinds_with_equal_field_values_differ(a, b):
    assert a != b
    assert LabeledStatement(1, a) != LabeledStatement(1, b)


def test_statements_are_immutable_and_carry_no_dict():
    hand = [s for s, _ in _EVERY_KIND_STATEMENTS]
    for s in _statements(parse_program(_EVERY_KIND)) + hand:
        for name in ("label", "instr"):
            with pytest.raises(AttributeError):
                setattr(s, name, getattr(s, name))
        for name in s.instr._fields:
            with pytest.raises(AttributeError):
                setattr(s.instr, name, getattr(s.instr, name))
        assert not hasattr(s, "__dict__") and not hasattr(s.instr, "__dict__")


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


#: Methods out of sorted order: two two-method SCCs ({eta, theta} and
#: {alpha, beta}), two self-calls (zeta, delta) and edges between SCCs.
_SCC_PROGRAM = (
    "method main() {\n  1: call [zeta, beta]()\n  2: call [delta]()\n}\n"
    "method zeta() {\n  1: call [eta]()\n  2: call [zeta]()\n}\n"
    "method eta() {\n  1: call [theta]()\n}\n"
    "method theta() {\n  1: call [eta, gamma]()\n}\n"
    "method beta() {\n  1: call [alpha]()\n  2: call [gamma]()\n}\n"
    "method alpha() {\n  1: call [beta]()\n  2: call [theta]()\n}\n"
    "method gamma() {\n  1: nop\n}\n"
    "method delta() {\n  1: call [delta, gamma]()\n}\n"
)


def test_call_graph_scc_order_is_pinned():
    cg = build_call_graph(parse_program(_SCC_PROGRAM))
    assert cg.sccs == (
        frozenset({"gamma"}),
        frozenset({"eta", "theta"}),
        frozenset({"alpha", "beta"}),
        frozenset({"delta"}),
        frozenset({"zeta"}),
        frozenset({"main"}),
    )
    assert cg.bottom_up_order() == ("gamma", "eta", "theta", "alpha", "beta", "delta", "zeta", "main")
    assert cg.recursive_methods == {"alpha", "beta", "delta", "eta", "theta", "zeta"}


# ---------------------------------------------------------------------------
# build_cfg against the dominator-set construction
# ---------------------------------------------------------------------------


def _dominator_cfg(m):
    """The CFG facts ``build_cfg`` must produce, found the slow way: block
    dominators as frozenset intersections iterated to a fixed point,
    back-edges as the block edges whose target dominates their source, and
    Kahn's order (smallest leader first) over the other edges.  Returns
    ``(pred, back_edges, loop_headers, topo_leaders)``; raises
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
    found = (cfg.pred, cfg.back_edges, cfg.loop_headers, tuple(b[0].label for b in cfg.blocks))
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


CORPUS_SHAPES = pytest.mark.parametrize(
    "shape, count",
    [
        ({}, 200),
        ({"methods_min": 1, "methods_max": 1, "stmts_min": 300, "stmts_max": 300, "recursion_prob": 1.0}, 20),
    ],
    ids=["default", "roundtrip-large"],
)


@pytest.mark.parametrize("seed", [1, 90917])
@CORPUS_SHAPES
def test_cfg_matches_dominator_sets_over_generated_corpus(shape, count, seed):
    files = generate_corpus(CorpusConfig(program_count=count, seed=seed, **shape))
    for _, text in files:
        for m in parse_program(text).methods:
            assert _matches_dominator_cfg(m)


@pytest.mark.parametrize("seed", [1, 90917])
@CORPUS_SHAPES
def test_blocks_are_numbered_in_walk_order(shape, count, seed):
    edges = back = 0
    for _, text in generate_corpus(CorpusConfig(program_count=count, seed=seed, **shape)):
        for m in parse_program(text).methods:
            e, b = _walk_order_edges(build_cfg(m))
            edges, back = edges + e, back + b
    assert edges > back > 0


def _small_methods():
    """Every method of at most four control statements."""
    for n in range(5):
        for instrs in itertools.product(_control_instrs(n), repeat=n):
            yield _method(instrs)


def _random_methods():
    rng = random.Random(90917)
    for _ in range(3000):
        n = rng.randint(5, 9)
        kinds = _control_instrs(n) + [Alloc("a", "A")] * 4
        yield _method(rng.choice(kinds) for _ in range(n))


def _relabeled(m, labels):
    """``m`` with its statements labeled ``labels`` in body order; each
    jump still goes to the statement it went to."""
    new = {s.label: label for s, label in zip(m.body, labels)}

    def moved(instr):
        return instr.__class__(new[instr.target]) if isinstance(instr, (Goto, Branch)) else instr

    return Method(
        name=m.name,
        params=m.params,
        body=tuple(LabeledStatement(new[s.label], moved(s.instr)) for s in m.body),
    )


# Labels that fall in body order, or rise and fall at random (a seeded
# shuffle of a range with gaps), so that Kahn's rule and body order differ.
RELABELINGS = {
    "reversed": lambda n, rng: range(n, 0, -1),
    "shuffled": lambda n, rng: rng.sample(range(1, 3 * n + 1), n),
}


def _numbering(m) -> str:
    """How ``build_cfg`` numbers ``m``'s blocks once checked against the
    dominator-set construction: in body order, renumbered, or not at all
    (``"irreducible"``)."""
    if not _matches_dominator_cfg(m):
        return "irreducible"
    leaders = [b[0].label for b in build_cfg(m).blocks]
    starts = set(leaders)
    return "body order" if leaders == [s.label for s in m.body if s.label in starts] else "renumbered"


def test_cfg_matches_dominator_sets_on_every_small_method():
    outcomes = Counter(map(_matches_dominator_cfg, _small_methods()))
    assert sum(outcomes.values()) == 1 + 4 + 6**2 + 8**3 + 10**4
    assert outcomes[True] and outcomes[False]


def test_cfg_matches_dominator_sets_on_random_methods():
    outcomes = Counter(map(_matches_dominator_cfg, _random_methods()))
    assert outcomes[True] > 100 and outcomes[False] > 100


@pytest.mark.parametrize("labeling", sorted(RELABELINGS))
@pytest.mark.parametrize("methods", [_small_methods, _random_methods], ids=["every_small", "random"])
def test_cfg_matches_dominator_sets_with_labels_out_of_body_order(methods, labeling):
    rng = random.Random(35)
    outcomes = Counter(
        _numbering(_relabeled(m, RELABELINGS[labeling](len(m.body), rng))) for m in methods()
    )
    # both the body-order numbering and Kahn's renumbering are checked
    assert outcomes["body order"] > 100 and outcomes["renumbered"] > 100 and outcomes["irreducible"] > 100


def test_forward_inputs_are_a_header_s_inputs_without_its_back_edges():
    """Per loop-header block, ``forward_inputs`` lists the predecessors of
    its leader that are no back-edge's source, in the oracle's order."""
    headers = 0
    for n in range(5):
        for instrs in itertools.product(_control_instrs(n), repeat=n):
            m = _method(instrs)
            try:
                pred, back_edges, loop_headers, _ = _dominator_cfg(m)
            except IrreducibleCfgError:
                continue
            cfg = build_cfg(m)
            assert cfg.forward_inputs == {
                cfg.position[h][0]: tuple(u for u in pred[h] if (u, h) not in back_edges)
                for h in loop_headers
            }, print_program(Program(methods=(m,), entry=m.name))
            headers += len(loop_headers)
    assert headers > 1000


def test_build_cfg_scales_linearly_in_fan_in():
    """Three in four statements of the method jump to its first statement
    and the rest return, so statement 1 and Exit get a predecessor per
    jump: four times the statements must cost well under sixteen times the
    time (best of five with the collector off, to ride out a loaded
    machine; building each predecessor tuple by concatenation costs more
    than ten times)."""
    import gc
    import time

    def method(n):
        return _method([Nop()] + [Goto(1) if k % 4 else Return(None) for k in range(n)])

    def best(m):
        times = []
        gc.disable()
        try:
            for _ in range(5):
                t0 = time.perf_counter()
                cfg = build_cfg(m)
                times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        return min(times), cfg

    n = 6000
    small, cfg = best(method(n))
    assert len(cfg.pred[1]) == 1 + 3 * n // 4 and len(cfg.pred["exit"]) == n // 4
    large, cfg = best(method(4 * n))
    assert len(cfg.pred[1]) == 1 + 3 * n and len(cfg.pred["exit"]) == n
    assert large < 8 * small
