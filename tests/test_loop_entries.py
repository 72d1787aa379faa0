"""The meaning of a ``[loop]`` entry: what the loop adds at its header.

The consumer evaluates a loop header's flow equation ``f_h`` on its
forward meet ``F`` (``equations.forward_in``) and meets the entry into the
result, so the header's OUT is ``meet(f_h(F), entry)``.  Emission writes
the canonical entry, the header's OUT less ``f_h(F)``.  Checked on the
plain and ``-O`` artifacts of the three fixtures, the first 20 seed-1
default-shape programs and two programs of the roundtrip-large shape."""

import pytest

from artpta import (
    ARITH,
    LOOPY,
    REC,
    EMPTY,
    Artwork,
    CorpusConfig,
    analyze_inter,
    decode,
    emit_artwork,
    encode,
    generate_corpus,
    meet,
    optimize_artwork,
    parse_program,
    regen_inter,
    subsumes,
)
from artpta.cli import main
from artpta.equations import eval_statement, forward_in
from artpta.ir import ProgramIndex

LARGE = {"methods_min": 1, "methods_max": 1, "stmts_min": 300, "stmts_max": 300, "recursion_prob": 1.0}


def _sources() -> dict[str, str]:
    sources = {"loopy": LOOPY, "rec": REC, "arith": ARITH}
    for name, text in generate_corpus(CorpusConfig(program_count=20, seed=1)):
        if name.startswith("gen"):
            sources[f"default-{name}"] = text
    for name, text in generate_corpus(CorpusConfig(program_count=2, seed=1, **LARGE)):
        if name.startswith("gen"):
            sources[f"large-{name}"] = text
    return sources


SOURCES = _sources()


def _header_images(p, result) -> dict:
    """Each loop header's flow equation applied to its forward meet in
    ``result``, keyed (method, label)."""
    index = ProgramIndex.of(p)
    images = {}
    for name, cfg in index.cfgs.items():
        m = index.methods[name]
        for b in cfg.forward_inputs:
            s = cfg.blocks[b][0]
            forward = forward_in(cfg, result.out, name, b)
            images[(name, s.label)] = eval_statement(s, forward, m, result.out_summary.__getitem__)
    return images


def test_the_slice_is_the_fixtures_and_the_first_programs():
    assert len(SOURCES) == 3 + 20 + 2


@pytest.mark.parametrize("name", list(SOURCES))
def test_a_loop_entry_is_what_the_loop_adds_at_its_header(name):
    p = parse_program(SOURCES[name])
    lfp = analyze_inter(p)
    images = _header_images(p, lfp)
    plain = emit_artwork(p, lfp)
    assert plain.i_loop.keys() == images.keys()
    for a in (plain, optimize_artwork(p, plain)):
        for key, entry in a.i_loop.items():
            image = images[key]
            # no edge of the entry is one the consumer derives itself
            assert not (entry.var_edges & image.var_edges or entry.field_edges & image.field_edges), key
            assert not entry.is_empty() or a is plain, key
        for key, image in images.items():
            assert subsumes(lfp.out[key], image), key
            assert meet(image, a.i_loop.get(key, EMPTY)) == lfp.out[key], key


@pytest.mark.parametrize("name", list(SOURCES))
def test_whole_header_values_as_entries_regenerate_alike(name):
    # An entry that holds the whole header value (the meaning a [loop] entry
    # had in ART/4) adds only edges f_h(F) already has: the verdict and
    # every regenerated value stay the same, and -O writes such an artifact
    # as it writes the canonical one.
    p = parse_program(SOURCES[name])
    lfp = analyze_inter(p)
    plain = emit_artwork(p, lfp)
    optimized = encode(optimize_artwork(p, plain))
    for a in (plain, optimize_artwork(p, plain)):
        whole = Artwork(i_loop={key: lfp.out[key] for key in a.i_loop}, i_in=a.i_in, i_out=a.i_out)
        canonical, full = regen_inter(p, a), regen_inter(p, decode(encode(whole), p))
        assert canonical.safe and full.safe
        assert canonical.result.same_values(full.result)
        assert canonical.result.same_values(lfp)
        assert encode(optimize_artwork(p, decode(encode(whole), p))) == optimized


def test_an_art4_file_is_rejected(tmp_path, capsys):
    ir = tmp_path / "loopy.ir"
    ir.write_text(LOOPY)
    art = tmp_path / "loopy.art"
    assert main(["analyze", str(ir), "-o", str(art)]) == 0
    old = tmp_path / "old.art"
    old.write_bytes(art.read_bytes().replace(b"ART/5", b"ART/4", 1))
    capsys.readouterr()
    assert main(["regen", str(ir), str(old)]) == 2
    assert capsys.readouterr().err.strip() == "error: missing ART/5 header"
