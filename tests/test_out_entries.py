"""The meaning of an ``[out]`` entry: what a recursive method's OUT summary
adds to its base.

A method that forms a call-graph SCC on its own and calls itself has a base
``B``: the field edges of the consumer's pass input at its first self-call
in block order (``equations.self_call``), when that call's block reaches an
exit.  Every other recursive method's base is the empty graph.  The
consumer claims ``meet(B, entry)`` as the OUT summary, and emission writes
the canonical entry, the OUT summary less ``B``.  Checked on the plain and
``-O`` artifacts of the three fixtures, the first 20 seed-1 default-shape
programs and two programs of the roundtrip-large shape."""

import pytest

from artpta import (
    EMPTY,
    REC,
    Artwork,
    PointsToGraph,
    analyze_inter,
    decode,
    emit_artwork,
    encode,
    meet,
    optimize_artwork,
    parse_program,
    regen_inter,
)
from artpta.cli import main
from artpta.ir import EXIT, Call, ProgramIndex
from helpers import entry_sources

SOURCES = entry_sources()


def _bases(p, result) -> dict:
    """Each recursive method's base in ``result``, read off the
    statement-level predecessor relation: the field edges of the meet of
    the OUTs that flow into its first self-call along edges that are not
    back-edges, when Exit is reached from that call; else the empty
    graph."""
    index = ProgramIndex.of(p)
    graph = index.call_graph
    bases = {}
    for name in graph.recursive_methods:
        cfg = index.cfgs[name]
        base = EMPTY
        if graph.scc_of(name) == {name}:
            first = next(
                s for block in cfg.blocks for s in block if isinstance(s.instr, Call) and name in s.instr.targets
            )
            to_exit, todo = set(), [EXIT]
            while todo:
                for u in cfg.pred[todo.pop()]:
                    if u not in to_exit:
                        to_exit.add(u)
                        todo.append(u)
            if first.label in to_exit:
                preds = [u for u in cfg.pred[first.label] if (u, first.label) not in cfg.back_edges]
                heap = set().union(*(result.out[(name, u)].field_edges for u in preds))
                base = PointsToGraph((), heap)
        bases[name] = base
    return bases


def test_the_slice_is_the_fixtures_and_the_first_programs():
    assert len(SOURCES) == 3 + 20 + 2


@pytest.mark.parametrize("name", list(SOURCES))
def test_an_out_entry_is_what_the_method_adds_to_its_base(name):
    p = parse_program(SOURCES[name])
    lfp = analyze_inter(p)
    bases = _bases(p, lfp)
    plain = emit_artwork(p, lfp)
    assert plain.i_out.keys() == bases.keys()
    for a in (plain, optimize_artwork(p, plain)):
        for key, entry in a.i_out.items():
            # no edge of the entry is one the consumer's pass holds itself
            assert not (entry.field_edges & bases[key].field_edges), key
            assert not entry.is_empty() or a is plain, key
        for key, base in bases.items():
            assert meet(base, a.i_out.get(key, EMPTY)) == lfp.out_summary[key], key


@pytest.mark.parametrize("name", list(SOURCES))
def test_whole_out_summaries_as_entries_regenerate_alike(name):
    # An entry that holds the whole OUT summary (the meaning an [out] entry
    # had in ART/5) adds only edges of the base: the verdict and every
    # regenerated value stay the same, and -O writes such an artifact as it
    # writes the canonical one.
    p = parse_program(SOURCES[name])
    lfp = analyze_inter(p)
    plain = emit_artwork(p, lfp)
    optimized = encode(optimize_artwork(p, plain))
    for a in (plain, optimize_artwork(p, plain)):
        whole = Artwork(i_loop=a.i_loop, i_in=a.i_in, i_out={key: lfp.out_summary[key] for key in a.i_out})
        canonical, full = regen_inter(p, a), regen_inter(p, decode(encode(whole), p))
        assert canonical.safe and full.safe
        assert canonical.result.same_values(full.result)
        assert canonical.result.same_values(lfp)
        assert encode(optimize_artwork(p, decode(encode(whole), p))) == optimized


def test_the_rec_bytes_are_pinned():
    # foo's [out] entry is the one store it makes after its self-call at 7
    p = parse_program(REC)
    plain = emit_artwork(p, analyze_inter(p))
    optimized = encode(optimize_artwork(p, plain))
    assert (len(encode(plain)), len(optimized)) == (84, 77)
    assert optimized.endswith(b"[out]\nfoo {\n  :5 .f :4\n}\n")


def test_an_art5_file_is_rejected(tmp_path, capsys):
    ir = tmp_path / "rec.ir"
    ir.write_text(REC)
    art = tmp_path / "rec.art"
    assert main(["analyze", str(ir), "-o", str(art)]) == 0
    old = tmp_path / "old.art"
    old.write_bytes(art.read_bytes().replace(b"ART/6", b"ART/5", 1))
    capsys.readouterr()
    assert main(["regen", str(ir), str(old)]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "error: missing ART/6 header"
    assert "internal error" not in err
