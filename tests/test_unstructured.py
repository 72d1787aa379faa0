"""Properties on programs the corpus never writes.

``corpus`` writes structured programs only: straight runs, properly nested
loops and guarded calls, so a loop header with two or more back-edges
never occurs in it, and the roundtrip-large shape has no call at a loop
header.  ``programs`` draws unstructured ones instead: one to three
methods, every statement kind, multi-target calls that bind a result or
not, and jumps to any label.  A draw whose control-flow graph
``ProgramIndex`` rejects (a cycle that is not a natural loop) is rejected
as a draw, never counted as UNSAFE.  On the rest:

* the worklist engine equals the round-robin oracle;
* the plain artifact and its ``-O`` form each decode and regenerate SAFE
  to the analysis's values, so the consumer's one pass, which meets a
  loop header's forward inputs alone, holds on headers with several
  back-edges and on calls at headers;
* ``-O`` of the decoded plain artifact, which regenerates its fixed point,
  writes the same bytes as ``-O`` of the emitted one, which reads the
  fixed point it carries;
* every single-edge reduction of the plain artifact is rejected.

The first draw ``ProgramIndex`` rejects goes through ``artpta regen`` with
the empty artifact: an input error, exit 2, never UNSAFE (exit 1).

The draws include self-recursive methods whose first self-call, in block
order, reaches no exit, heads a loop, or follows a ``return``, and
self-calls in blocks Entry does not reach: the cases that decide an
``[out]`` entry's base (``equations.self_call``).
"""

from collections import Counter, defaultdict

from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from artpta import (
    Artwork,
    IrreducibleCfgError,
    ProgramIndex,
    analyze_inter,
    chaotic_oracle,
    decode,
    emit_artwork,
    encode,
    optimize_artwork,
    parse_program,
    regen_inter,
)
from artpta.cli import main
from artpta.equations import self_call
from artpta.ir import ENTRY, EXIT, Call, Return
from artpta.ptg import edited, render_edge, set_edge

METHODS = ("main", "f", "g")
PARAMS = ("p", "q")
LOCALS = ("a", "b", "c")
KINDS = ("nop", "alloc", "copy", "null", "load", "store", "call", "goto", "if", "return")
#: the kinds that read a variable whatever they draw
READS = ("copy", "load", "store")


def _statement(draw, name, label, n, arity, assigned, hot):
    """One statement line of method ``name`` of ``n`` statements;
    ``assigned``, the variables some earlier line assigns, grows by what
    this one does.  A jump goes to any label, or to one of the labels
    ``hot``, so that several jumps share a target; a call is likelier at
    those, and half of those calls are self-calls, so that a self-call
    often heads a loop."""
    kind = draw(st.sampled_from(KINDS))
    if label in hot and draw(st.booleans()):
        kind = "call"
    if kind in READS and not assigned:
        kind = "alloc"
    if kind in ("alloc", "copy", "null", "load", "call"):
        x = draw(st.sampled_from(PARAMS + LOCALS))
    if kind == "alloc":
        text = f"{x} = new {draw(st.sampled_from('AB'))}"
    elif kind == "copy":
        text = f"{x} = {draw(st.sampled_from(assigned))}"
    elif kind == "null":
        text = f"{x} = null"
    elif kind == "load":
        text = f"{x} = {draw(st.sampled_from(assigned))}.{draw(st.sampled_from('fg'))}"
    elif kind == "store":
        y, z = draw(st.sampled_from(assigned)), draw(st.sampled_from(assigned))
        return f"{y}.{draw(st.sampled_from('fg'))} = {z}"
    elif kind == "call":
        t = name if label in hot and draw(st.booleans()) else draw(st.sampled_from(sorted(arity)))
        if arity[t] and not assigned:
            return "nop"
        alike = [u for u in sorted(arity) if u != t and arity[u] == arity[t]]
        targets = [t, *draw(st.lists(st.sampled_from(alike), unique=True))] if alike else [t]
        args = ", ".join(draw(st.sampled_from(assigned)) for _ in range(arity[t]))
        text = f"call [{', '.join(targets)}]({args})"
        if not draw(st.booleans()):
            return text
        text = f"{x} = {text}"
    elif kind in ("goto", "if"):
        target = draw(st.sampled_from(hot) | st.integers(1, n))
        return f"goto {target}" if kind == "goto" else f"if goto {target}"
    elif kind == "return":
        if assigned and draw(st.booleans()):
            return f"return {draw(st.sampled_from(assigned))}"
        return "return"
    else:
        return "nop"
    if x not in assigned:
        assigned.append(x)
    return text


@st.composite
def programs(draw):
    """The text of a program of one to three methods, ``main`` first."""
    names = METHODS[: draw(st.integers(1, len(METHODS)))]
    arity = {name: 0 if name == "main" else draw(st.integers(0, len(PARAMS))) for name in names}
    text = []
    for name in names:
        params = PARAMS[: arity[name]]
        n = draw(st.integers(4, 14))
        hot = draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=2))
        assigned = list(params)
        body = [_statement(draw, name, label, n, arity, assigned, hot) for label in range(1, n + 1)]
        text.append(f"method {name}({', '.join(params)}) {{\n")
        text += [f"  {label}: {line}\n" for label, line in enumerate(body, start=1)]
        text.append("}\n")
    return "".join(text)


def _features(index):
    """What the corpus never writes, as found in ``index``."""
    found = Counter()
    for name, cfg in index.cfgs.items():
        back_edges = Counter(h for _, h in cfg.back_edges)
        found["header with 2+ back-edges"] += sum(k > 1 for k in back_edges.values())
        statements = {s.label: s for s in index.methods[name].body}
        found["call at a header"] += sum(isinstance(statements[h].instr, Call) for h in cfg.loop_headers)
        found["method in a multi-method SCC"] += len(index.call_graph.scc_of(name)) > 1
        if index.call_graph.scc_of(name) == {name} and index.call_graph.is_recursive_method(name):
            found.update(_self_call_features(index, name))
    return found


def _closure(start, step) -> set:
    """``start`` and every point ``step`` leads to from it, transitively."""
    seen, todo = {start}, [start]
    while todo:
        for v in step[todo.pop()]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def _self_call_features(index, name) -> Counter:
    """What self-recursive method ``name``'s self-calls show, read off the
    statement-level predecessor relation: whether its first self-call in
    block order reaches no exit, heads a loop or follows a ``return``, and
    whether a self-call sits where Entry does not reach."""
    cfg = index.cfgs[name]
    succ = defaultdict(list)
    for v, us in cfg.pred.items():
        for u in us:
            succ[u].append(v)
    to_exit, from_entry = _closure(EXIT, cfg.pred), _closure(ENTRY, succ)
    order = [s for block in cfg.blocks for s in block]
    calls = [k for k, s in enumerate(order) if isinstance(s.instr, Call) and name in s.instr.targets]
    first = order[calls[0]]
    # the base is taken at the first self-call exactly when it reaches Exit
    assert self_call(index, name) == (first.label if first.label in to_exit else None)
    return Counter(
        {
            "first self-call reaches no exit": first.label not in to_exit,
            "first self-call heads a loop": first.label in cfg.loop_headers,
            "return before the first self-call": any(isinstance(s.instr, Return) for s in order[: calls[0]]),
            "self-call in an unreachable block": any(order[k].label not in from_entry for k in calls),
        }
    )


SECTIONS = ("i_loop", "i_in", "i_out")


def _single_edge_reductions(a: Artwork):
    """(where, artwork) for every entry of ``a`` with one edge taken away."""
    for section in SECTIONS:
        for key, g in getattr(a, section).items():
            for edge in (*g.var_edges, *g.field_edges):
                maps = {s: dict(getattr(a, s)) for s in SECTIONS}
                maps[section][key] = edited(g, [("-", set_edge(edge))])
                yield f"{section} {key} - {render_edge(edge)}", Artwork(**maps)


#: Calls at a loop header whose forward meet projects less into the callee
#: than the header's full meet, the callee having no other call-site: ``-O``
#: keeps the callee's IN entry only if it projects from the forward meet, as
#: the consumer's pass does.  The draws rarely make one (none of the 250
#: here, one of 3,000 random ones), so two are written out.
HEADER_CALLS = (
    "method main() {\n  1: a = new A\n  2: call [f](a)\n  3: a.f = a\n  4: if goto 2\n}\n"
    "method f(p) {\n  1: q = new B\n  2: p.g = q\n}\n",
    "method main() {\n  1: nop\n  2: p = new A\n  3: call [f](p)\n  4: nop\n  5: goto 3\n  6: nop\n}\n"
    "method f(p) {\n  1: nop\n  2: nop\n  3: p.f = p\n  4: nop\n}\n",
)

#: ``f``'s first self-call, at 4, reaches no exit: the heap there holds
#: ``f:2 .h-> f:2``, which no Exit value holds, so that call gives ``f``'s
#: ``[out]`` entry no base.
NOEXIT = (
    "method main() {\n  1: x = new A\n  2: call [f](x)\n}\n"
    "method f(p) {\n  1: if goto 6\n  2: r = new C\n  3: r.h = r\n  4: call [f](p)\n  5: goto 2\n  6: return\n}\n"
)
#: ``f``'s first self-call, at 2, heads a loop: the base is taken from the
#: pass input there, the forward meet, which lacks ``main:1 .g-> f:1``; the
#: full meet holds it, as the header's back-edge brings it round.
HDRSELF = (
    "method main() {\n  1: x = new A\n  2: call [f](x)\n}\n"
    "method f(p) {\n  1: q = new B\n  2: call [f](q)\n  3: p.g = q\n  4: if goto 2\n  5: return\n}\n"
)


def test_the_pinned_self_calls_regenerate():
    for text, label in ((NOEXIT, None), (HDRSELF, 2)):
        p = parse_program(text)
        assert self_call(ProgramIndex.of(p), "f") == label
        result = analyze_inter(p)
        plain = emit_artwork(p, result)
        for a in (plain, optimize_artwork(p, plain)):
            outcome = regen_inter(p, decode(encode(a), p))
            assert outcome.safe, outcome.violation.describe()
            assert outcome.result.same_values(result)


def test_unstructured_programs_analyze_like_the_oracle_and_round_trip():
    seen = Counter()

    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(programs())
    @example(HEADER_CALLS[0])
    @example(HEADER_CALLS[1])
    @example(NOEXIT)
    @example(HDRSELF)
    def check(text):
        p = parse_program(text)
        try:
            index = ProgramIndex.of(p)
        except IrreducibleCfgError:
            seen["rejected"] += 1
            reject()
        seen["programs"] += 1
        seen.update(_features(index))
        result = analyze_inter(p)
        assert result.same_values(chaotic_oracle(p))
        plain = emit_artwork(p, result)
        optimized = encode(optimize_artwork(p, plain))
        for data in (encode(plain), optimized):
            outcome = regen_inter(p, decode(data, p))
            assert outcome.safe, outcome.violation.describe()
            assert outcome.result.same_values(result)
        assert encode(optimize_artwork(p, decode(encode(plain), p))) == optimized
        for where, reduced in _single_edge_reductions(plain):
            assert not regen_inter(p, reduced).safe, where
            seen["reductions"] += 1

    check()
    # the draws reach what the corpus never writes
    assert seen["programs"] >= 200 and seen["rejected"] > 0, seen
    assert seen["header with 2+ back-edges"] >= 20, seen
    assert seen["call at a header"] >= 20, seen
    assert seen["method in a multi-method SCC"] >= 20, seen
    assert seen["first self-call reaches no exit"] >= 10, seen
    assert seen["first self-call heads a loop"] >= 10, seen
    assert seen["return before the first self-call"] > 0, seen
    assert seen["self-call in an unreachable block"] > 0, seen


def test_regen_of_the_first_irreducible_draw_is_an_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ART_COLOR", "0")
    empty = tmp_path / "empty.art"
    empty.write_bytes(encode(Artwork.empty()))
    prog = tmp_path / "irreducible.ir"
    ran = []

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(programs())
    def first(text):
        if ran:
            return
        try:
            ProgramIndex.of(parse_program(text))
        except IrreducibleCfgError as exc:
            prog.write_text(text)
            capsys.readouterr()
            assert main(["regen", str(prog), str(empty)]) == 2
            assert capsys.readouterr() == ("", f"error: {exc}\n")
            ran.append(text)

    first()
    assert ran
