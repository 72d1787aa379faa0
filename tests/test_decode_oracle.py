"""Decoded graphs against a test-local oracle: every graph ``decode`` builds
straight into the index maps equals ``PointsToGraph(var_edges,
field_edges)`` built from the same binding lines, each split into one edge
per target, whatever their order and however often a line repeats.  And
a round trip over random multi-target bindings and edit chains."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artpta import (
    Artwork,
    CorpusConfig,
    PointsToGraph,
    analyze_inter,
    decode,
    emit_artwork,
    encode,
    generate_corpus,
    optimize_artwork,
    parse_artwork,
    parse_program,
)
from artpta.ir import identifiers
from artpta.ptg import NULL_OBJECT, VarId, edited
from helpers import parse_edge_line

LARGE_SHAPE = dict(methods_min=1, methods_max=1, stmts_min=300, stmts_max=300, recursion_prob=1.0)


def _full(token: str, method: str) -> str:
    """A token of an entry of ``method`` in full spelling: a scoped variable
    or object (``/k``, ``:label``, ``?i``) with the method's name before it."""
    return method + token if token[0] in "/:?" else token


def _line_edges(line: str, method: str = "") -> list:
    """The edges of one binding line of an entry of ``method`` after its
    two-character prefix: the line's key with each of its targets in turn."""
    key, *targets = (_full(t, method) for t in line[2:].split(" "))
    head = f"{key} ->" if "/" in key else f"{key} {targets.pop(0)}->"
    return [parse_edge_line(f"{head} {t}") for t in targets]


def _oracle_edges(lines: list[str], method: str = "") -> set:
    return {edge for line in lines for edge in _line_edges(line, method)}


def _oracle_graph(lines: list[str]) -> PointsToGraph:
    edges = _oracle_edges(lines)
    return PointsToGraph({e for e in edges if len(e) == 2}, {e for e in edges if len(e) == 3})


def _oracle_decode(text: str) -> Artwork:
    """A well-formed ART/5 text read line by line into edge-set graphs, each
    scoped token of an entry expanded with the entry's method."""
    lines = text.split("\n")[:-1]
    sections: dict[str, dict] = {}
    section = None
    edges: set = set()  # the entry before's
    i = 1
    while i < len(lines):
        line = lines[i]
        i += 1
        if line in ("[loop]", "[in]", "[out]"):
            section = line[1:-1]
            sections[section] = {}
            continue
        m = re.fullmatch(r"(\w+)(?::(\d+))? (\{|\^)", line)
        assert m is not None, line
        key = (m.group(1), int(m.group(2))) if section == "loop" else m.group(1)
        method = m.group(1)
        j = i
        while j < len(lines) and lines[j][:2] in ("  ", "- ", "+ "):
            j += 1
        if m.group(3) == "{":
            edges = _oracle_edges(lines[i:j], method)
            i = j + 1  # the closing brace
        else:  # "^": the entry before's edges, less the "- " lines, with the "+ " lines
            edges = (edges - _oracle_edges([e for e in lines[i:j] if e[0] == "-"], method)) | _oracle_edges(
                [e for e in lines[i:j] if e[0] == "+"], method
            )
            i = j
        sections[section][key] = PointsToGraph(
            {e for e in edges if len(e) == 2}, {e for e in edges if len(e) == 3}
        )
    return Artwork(i_loop=sections["loop"], i_in=sections["in"], i_out=sections["out"])


def _scramble(text: str, rng: random.Random) -> str:
    """``text`` with the edge lines of every graph shuffled, and some of them
    written twice, and the edit lines of every entry shuffled (``- `` and
    ``+ `` lines mixed: an entry never removes and adds one edge, and a key
    has at most one line of each sign)."""
    out: list[str] = []
    run: list[str] = []
    for line in text.split("\n"):
        if line[:2] in ("  ", "- ", "+ "):
            run.append(line)
            continue
        if run:
            if run[0].startswith("  "):
                run += rng.sample(run, rng.randrange(len(run) + 1))
            rng.shuffle(run)
            out += run
            run = []
        out.append(line)
    return "\n".join(out)


def _graphs(a: Artwork) -> list[PointsToGraph]:
    return [*a.i_loop.values(), *a.i_in.values(), *a.i_out.values()]


def _assert_canonical_maps(g: PointsToGraph) -> None:
    # ``==`` is map equality only because no map holds an empty value.
    for objs in g._vars.values():
        assert type(objs) is frozenset and objs
    for fields in g._heap.values():
        assert type(fields) is dict and fields
        for targets in fields.values():
            assert type(targets) is frozenset and targets


@pytest.fixture(scope="module")
def artifacts(small_corpus):
    """(program, artifact bytes): plain and optimized artifacts of
    ``small_corpus`` and of four roundtrip-large-shape programs, and each
    plain one with every ``[loop]`` entry holding the header's whole
    value, which the consumer reads alike and which gives the codec
    larger graphs."""
    large = [
        (name, parse_program(text))
        for name, text in generate_corpus(CorpusConfig(program_count=4, seed=11, **LARGE_SHAPE))
        if name.startswith("gen")
    ]
    out = []
    for _, p in [*small_corpus, *large]:
        r = analyze_inter(p)
        a = emit_artwork(p, r)
        out.append((p, encode(a)))
        out.append((p, encode(optimize_artwork(p, a))))
        out.append((p, encode(Artwork({key: r.out[key] for key in a.i_loop}, a.i_in, a.i_out))))
    return out


def test_the_corpus_includes_repeated_and_large_artifacts(artifacts):
    for large in (False, True):
        for form in (b" ^\n", b"\n- ", b"\n+ "):
            assert any(
                form in data
                for p, data in artifacts
                if (len(p.methods) == 1 and len(p.methods[0].body) > 200) == large
            )
    # one artifact's graphs hold more than 1,000 edges between them
    assert max(
        sum(len(g.var_edges) + len(g.field_edges) for g in _graphs(parse_artwork(data)))
        for _, data in artifacts
    ) > 1000


def test_decoded_graphs_equal_the_edge_set_oracle(artifacts):
    for p, data in artifacts:
        decoded = decode(data, p)
        expected = _oracle_decode(data.decode())
        assert decoded == expected
        assert parse_artwork(data) == expected
        for g, want in zip(_graphs(decoded), _graphs(expected)):
            _assert_canonical_maps(g)
            assert hash(g) == hash(want)
        # a "^" entry with no edits holds the graph object of the entry
        # before it; one with edits shares every map it does not edit
        graphs = _graphs(decoded)
        lines = data.decode().split("\n")
        heads = [k for k, line in enumerate(lines) if line.endswith((" {", " ^"))]
        for k, at in enumerate(heads):
            if not lines[at].endswith(" ^"):
                continue
            if not lines[at + 1].startswith(("- ", "+ ")):
                assert graphs[k] is graphs[k - 1]
                continue
            old, new = graphs[k - 1], graphs[k]
            end = heads[k + 1] if k + 1 < len(heads) else len(lines)
            method = lines[at].split(" ")[0].split(":")[0]
            touched = {_line_edges(e, method)[0][0] for e in lines[at + 1 : end] if e[:2] in ("- ", "+ ")}
            for v, objs in new._vars.items():
                assert (objs is old._vars.get(v)) == (v not in touched and v in old._vars)
            for src, fields in new._heap.items():
                assert (fields is old._heap.get(src)) == (src not in touched and src in old._heap)


def test_shuffled_and_repeated_edge_lines_decode_to_the_same_graphs(artifacts):
    rng = random.Random(5)
    for p, data in artifacts:
        canonical = decode(data, p)
        for _ in range(2):
            text = _scramble(data.decode(), rng)
            decoded = decode(text.encode(), p)
            assert decoded == _oracle_decode(text)
            assert decoded == canonical
            for g in _graphs(decoded):
                _assert_canonical_maps(g)


def test_one_variable_spread_over_a_block_decodes_to_one_set():
    p = parse_program("method main() {\n  1: x = new C\n  2: y = new D\n  3: x.f = y\n}\n")
    body = [
        "main/0 main:1", "main:1 .f main:2", "main/0 main:2", "main/1 main:2",
        "main:1 .f main:1", "main/0 null", "main:1 .g null", "main/0 main:1",
        "main:1 .f main:2", "main/0 main:1 null", "main:1 .f main:2 main:1",
    ]
    text = "ART/5\n[loop]\n[in]\nmain {\n" + "".join(f"  {e}\n" for e in body) + "}\n[out]\n"
    g = decode(text.encode(), p).i_in["main"]
    _assert_canonical_maps(g)
    assert g == _oracle_graph([f"  {e}" for e in body])
    assert len(g.var_edges) == 4 and len(g.field_edges) == 3


# ---------------------------------------------------------------------------
# Round trip over multi-target bindings and edit chains
# ---------------------------------------------------------------------------

# Three methods, so that one file holds entries of each, every graph may
# name any method's identifiers (scoped in an entry of their method, full in
# any other) and a "^" entry may follow an entry of another method.
ROUND_TRIP = parse_program(
    "method main() {\n  1: x = new C\n  2: y = new D\n  3: z = new E\n  4: x.f = y\n"
    "  5: y.g = z\n  6: call [r](x)\n  7: call [s](y, z)\n}\n"
    "method r(p) {\n  1: call [r](p)\n  2: q = new F\n  3: p.f = q\n}\n"
    "method s(a, b) {\n  1: c = new G\n  2: a.f = c\n}\n"
)
_IDS = [o for o in identifiers(ROUND_TRIP) if not isinstance(o, str)]
_VARS = [o for o in _IDS if isinstance(o, VarId)]
_OBJECTS = [o for o in _IDS if not isinstance(o, VarId)] + [NULL_OBJECT]
_SOURCES = _OBJECTS[:-1]

_targets = st.frozensets(st.sampled_from(_OBJECTS), min_size=1, max_size=4)
_bindings = st.one_of(
    st.tuples(st.sampled_from(_VARS), _targets),
    st.tuples(st.sampled_from(_SOURCES), st.sampled_from(["f", "g"]), _targets),
)
# each step of the chain: edits to the graph before, or a fresh graph
_steps = st.lists(
    st.tuples(st.booleans(), st.lists(st.tuples(st.sampled_from("-+"), _bindings), max_size=6)),
    min_size=1,
    max_size=7,
)


@settings(max_examples=200, deadline=None)
@given(_steps)
def test_round_trip_over_multi_target_bindings_and_edit_chains(steps):
    graphs, g = [], None
    for fresh, edits in steps:
        g = edited(PointsToGraph.of() if fresh or g is None else g, edits)
        graphs.append(g)
    keys = [("main", k) for k in range(1, 8)] + [("r", k) for k in range(1, 4)] + [("s", 1)]
    a = Artwork(
        i_loop=dict(zip(keys, graphs[:-3])),
        i_in={
            "main": graphs[-1],
            **({"r": graphs[-2]} if len(graphs) > 1 else {}),
            **({"s": graphs[-3]} if len(graphs) > 2 else {}),
        },
        i_out={"r": graphs[0]},
    )
    _assert_round_trip(a)


def _assert_round_trip(a: Artwork) -> bytes:
    data = encode(a)
    assert decode(data, ROUND_TRIP) == a
    assert encode(decode(data, ROUND_TRIP)) == data
    assert encode(parse_artwork(data)) == data
    assert parse_artwork(data) == _oracle_decode(data.decode())
    # the same file with every token in full spelling is the same artwork
    text, method, full = data.decode().split("\n"), None, []
    for line in text:
        if line.endswith((" {", " ^")):
            method = line.split(" ")[0].split(":")[0]
        elif line[:2] in ("  ", "- ", "+ "):
            line = line[:2] + " ".join(_full(t, method) for t in line[2:].split(" "))
        full.append(line)
    assert decode("\n".join(full).encode(), ROUND_TRIP) == a
    return data


def test_a_round_trip_file_mixes_scoped_and_full_spellings():
    ids = {(o.method, o.kind, o[1]): o for o in _IDS}
    x, f = ids["main", "site", 1], ids["r", "site", 2]
    main0, r0, s0 = ids["main", "var", 0], ids["r", "var", 0], ids["s", "var", 0]
    g1 = edited(PointsToGraph.of(), [("+", (main0, frozenset({x, NULL_OBJECT}))), ("+", (x, "f", frozenset({f})))])
    g2 = edited(g1, [("+", (r0, frozenset({x}))), ("+", (f, "g", frozenset({x})))])
    g3 = edited(g2, [("-", (main0, frozenset({NULL_OBJECT}))), ("+", (s0, frozenset({f})))])
    data = _assert_round_trip(Artwork(i_loop={("main", 6): g1}, i_in={"r": g2, "s": g3}, i_out={}))
    assert data == (
        b"ART/5\n[loop]\nmain:6 {\n  /0 :1 null\n  :1 .f r:2\n}\n"
        # an entry of r: its own identifiers scoped, main's in full, and a
        # "^" after an entry of main
        b"[in]\nr ^\n+ /0 main:1\n+ :2 .g main:1\n"
        b"s ^\n- main/0 null\n+ /0 r:2\n[out]\n"
    )
