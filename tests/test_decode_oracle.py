"""Decoded graphs against a test-local oracle: every graph ``decode`` builds
straight into the index maps equals ``PointsToGraph(var_edges,
field_edges)`` built from the same edge lines, whatever their order and
however often a line repeats."""

import random
import re

import pytest

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
from artpta.ptg import parse_edge_line

LARGE_SHAPE = dict(methods_min=1, methods_max=1, stmts_min=300, stmts_max=300, recursion_prob=1.0)


def _oracle_graph(lines: list[str]) -> PointsToGraph:
    var_edges, field_edges = set(), set()
    for line in lines:
        edge = parse_edge_line(line[2:])
        (var_edges if len(edge) == 2 else field_edges).add(edge)
    return PointsToGraph(var_edges, field_edges)


def _oracle_decode(text: str) -> Artwork:
    """A well-formed ART/1 text read line by line into edge-set graphs."""
    lines = text.split("\n")[:-1]
    sections: dict[str, dict] = {}
    section = graph = None
    i = 1
    while i < len(lines):
        line = lines[i]
        i += 1
        if line in ("[loop]", "[in]", "[out]"):
            section = line[1:-1]
            sections[section] = {}
            continue
        m = re.fullmatch(r"m:(\w+)(?: l:(\d+))? = (\{|\^)", line)
        assert m is not None, line
        key = (m.group(1), int(m.group(2))) if section == "loop" else m.group(1)
        if m.group(3) == "{":
            j = i
            while lines[j].startswith("  "):
                j += 1
            graph = _oracle_graph(lines[i:j])
            i = j + 1  # the closing brace
        sections[section][key] = graph  # "^": the graph of the entry before
    return Artwork(i_loop=sections["loop"], i_in=sections["in"], i_out=sections["out"])


def _scramble(text: str, rng: random.Random) -> str:
    """``text`` with the edge lines of every graph shuffled, and some of them
    written twice."""
    out: list[str] = []
    run: list[str] = []
    for line in text.split("\n"):
        if line.startswith("  "):
            run.append(line)
            continue
        if run:
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
    ``small_corpus`` and of four roundtrip-large-shape programs."""
    large = [
        (name, parse_program(text))
        for name, text in generate_corpus(CorpusConfig(program_count=4, seed=11, **LARGE_SHAPE))
        if name.startswith("gen")
    ]
    out = []
    for _, p in [*small_corpus, *large]:
        a = emit_artwork(p, analyze_inter(p))
        out.append((p, encode(a)))
        out.append((p, encode(optimize_artwork(p, a))))
    return out


def test_the_corpus_includes_repeated_and_large_artifacts(artifacts):
    for large in (False, True):
        assert any(
            b" = ^\n" in data
            for p, data in artifacts
            if (len(p.methods) == 1 and len(p.methods[0].body) > 200) == large
        )
    assert max(data.count(b"\n  ") for _, data in artifacts) > 1000


def test_decoded_graphs_equal_the_edge_set_oracle(artifacts):
    for p, data in artifacts:
        decoded = decode(data, p)
        expected = _oracle_decode(data.decode())
        assert decoded == expected
        assert parse_artwork(data) == expected
        for g, want in zip(_graphs(decoded), _graphs(expected)):
            _assert_canonical_maps(g)
            assert hash(g) == hash(want)
        # a "^" entry holds the graph object of the entry before it
        graphs = _graphs(decoded)
        heads = [line for line in data.decode().split("\n") if line.startswith("m:")]
        for k, head in enumerate(heads):
            if head.endswith(" = ^"):
                assert graphs[k] is graphs[k - 1]


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
        "main/0 -> main:1", "main:1 .f-> main:2", "main/0 -> main:2", "main/1 -> main:2",
        "main:1 .f-> main:1", "main/0 -> null", "main:1 .g-> null", "main/0 -> main:1",
        "main:1 .f-> main:2",
    ]
    text = "ART/1\n[loop]\n[in]\nm:main = {\n" + "".join(f"  {e}\n" for e in body) + "}\n[out]\n"
    g = decode(text.encode(), p).i_in["main"]
    _assert_canonical_maps(g)
    assert g == _oracle_graph([f"  {e}" for e in body])
    assert len(g.var_edges) == 4 and len(g.field_edges) == 3
