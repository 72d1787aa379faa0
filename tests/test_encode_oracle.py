"""Encoded bytes against test-local oracles: ``encode`` equals conftest's
line-by-line ``reference_encode`` (``^`` and the lines it removes and
adds for an entry that differs from the entry before it in no more lines
than it has) and ``naive_encode`` equals a dump
written with ``render_edges``, on seeded random graphs whose names collide on
prefixes and which share index maps the way the analysis's graphs do."""

import random
from collections import Counter

from artpta import (
    NULL_OBJECT,
    AnalysisResult,
    Artwork,
    Placeholder,
    PointsToGraph,
    Site,
    VarId,
    encode,
    meet,
    naive_encode,
    parse_artwork,
    render_edges,
)
from artpta.ir import ENTRY, EXIT

# Names that are prefixes of one another, or equal up to one character.
METHODS = ["a", "a_b", "ab", "a1"]
SLOTS = [1, 10, 100]
FIELDS = ["f", "f_", "fg", "f1"]
VARS = [VarId(m, s) for m in METHODS for s in SLOTS]
# a placeholder next to the site with the same method and number
OBJECTS = [Site(m, s) for m in METHODS for s in SLOTS] + [
    Placeholder(m, s) for m in METHODS for s in SLOTS
] + [NULL_OBJECT]
SOURCES = [o for o in OBJECTS if o is not NULL_OBJECT]


def _fresh_graph(rng: random.Random) -> PointsToGraph:
    var_edges = {(rng.choice(VARS), rng.choice(OBJECTS)) for _ in range(rng.randrange(7))}
    field_edges = {
        (rng.choice(SOURCES), rng.choice(FIELDS), rng.choice(OBJECTS))
        for _ in range(rng.randrange(7))
    }
    return PointsToGraph(var_edges, field_edges)


def _graphs(rng: random.Random, n: int) -> list[PointsToGraph]:
    """``n`` graphs: fresh ones, meets of earlier ones (which share their
    operands' target sets and per-object field maps), repeats of the same
    object and equal copies built apart."""
    graphs = [_fresh_graph(rng)]
    while len(graphs) < n:
        roll = rng.random()
        if roll < 0.3:
            graphs.append(_fresh_graph(rng))
        elif roll < 0.7:
            graphs.append(meet(rng.choice(graphs), rng.choice(graphs)))
        elif roll < 0.85:
            graphs.append(rng.choice(graphs))
        else:
            g = rng.choice(graphs)
            graphs.append(PointsToGraph(g.var_edges, g.field_edges))
    return graphs


def _random_artwork(rng: random.Random) -> Artwork:
    graphs = _graphs(rng, rng.randrange(1, 9))
    pick = lambda: rng.choice(graphs)  # noqa: E731
    return Artwork(
        i_loop={(rng.choice(METHODS), rng.choice(SLOTS)): pick() for _ in range(rng.randrange(5))},
        i_in={m: pick() for m in rng.sample(METHODS, rng.randrange(5))},
        i_out={m: pick() for m in rng.sample(METHODS, rng.randrange(5))},
    )


def _edits_over_bindings(a: Artwork):
    """For each entry after the first that differs from the entry before
    it, in file order: the number of its edit lines from that entry less its
    number of bindings."""
    graphs = [g for entries in (a.i_loop, a.i_in, a.i_out) for _, g in sorted(entries.items())]
    for old, new in zip(graphs, graphs[1:]):
        was, now = dict(old.target_sets()), dict(new.target_sets())
        edits = sum(bool(ts - now.get(k, frozenset())) for k, ts in was.items())
        edits += sum(bool(ts - was.get(k, frozenset())) for k, ts in now.items())
        if edits:
            yield edits - len(now)


def test_encode_matches_the_line_by_line_reference(reference_encode):
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(1500):
        a = _random_artwork(rng)
        expected = reference_encode(a)
        lines = expected.decode().split("\n")
        seen["bare repeat"] += any(
            line.endswith(" ^") and not after.startswith(("- ", "+ "))
            for line, after in zip(lines, lines[1:])
        )
        seen["removal"] += "\n- " in expected.decode()
        seen["addition"] += "\n+ " in expected.decode()
        seen["blocks only"] += b" ^\n" not in expected
        margins = set(_edits_over_bindings(a))
        seen["edits as many as bindings (^)"] += 0 in margins
        seen["edits one past bindings (block)"] += 1 in margins
        assert encode(a) == expected
        assert parse_artwork(expected) == a
    assert min(seen.values()) > 50, seen


def _reference_naive(result: AnalysisResult) -> bytes:
    lines = ["NAIVE/1"]
    for name in sorted({m for m, _ in result.out}):
        lines.append(f"[method {name}]")
        points = {node: g for (m, node), g in result.out.items() if m == name}
        keys = [k for k in (ENTRY,) if k in points]
        keys += sorted(k for k in points if isinstance(k, int))
        keys += [k for k in (EXIT,) if k in points]
        for k in keys:
            head = f"l:{k}" if isinstance(k, int) else k
            lines += [f"{head} = {{", *("  " + e for e in render_edges(points[k])), "}"]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_naive_encode_matches_a_render_edges_dump():
    rng = random.Random(90917)
    for _ in range(300):
        graphs = _graphs(rng, 12)
        out = {}
        for m in rng.sample(METHODS, rng.randrange(1, 5)):
            for node in [ENTRY, EXIT, *rng.sample(SLOTS, rng.randrange(4))]:
                if rng.random() < 0.8:
                    out[(m, node)] = rng.choice(graphs)
        result = AnalysisResult(out=out, in_summary={}, out_summary={})
        assert naive_encode(result) == _reference_naive(result)
