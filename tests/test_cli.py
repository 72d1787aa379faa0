import os
import sys

import pytest

from artpta import LOOPY, REC, Artwork, PointsToGraph, analyze_inter, emit_artwork, encode, parse_program
from artpta.cli import main


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("ART_COLOR", "0")


@pytest.fixture()
def loopy_ir(tmp_path):
    path = tmp_path / "loopy.ir"
    path.write_text(LOOPY)
    return str(path)


@pytest.fixture()
def rec_ir(tmp_path):
    path = tmp_path / "rec.ir"
    path.write_text(REC)
    return str(path)


def test_analyze_then_regen_round_trip(tmp_path, loopy_ir, capsys):
    art = str(tmp_path / "loopy.art")
    dump = str(tmp_path / "loopy.dump")
    assert main(["analyze", loopy_ir, "-o", art, "--dump-results", dump]) == 0
    assert os.path.exists(art) and os.path.exists(dump)
    capsys.readouterr()

    regen_dump = str(tmp_path / "regen.dump")
    assert main(["regen", loopy_ir, art, "--dump-results", regen_dump]) == 0
    assert capsys.readouterr().out.strip() == "SAFE"

    assert main(["diff", dump, regen_dump]) == 0
    assert capsys.readouterr().out.strip() == "identical"


def test_tamper_then_regen_detects(tmp_path, loopy_ir, capsys):
    art = str(tmp_path / "loopy.art")
    bad = str(tmp_path / "bad.art")
    main(["analyze", loopy_ir, "-o", art])
    assert main(["tamper", art, "--kind", "remove-edge", "--seed", "7", "-o", bad]) == 0
    capsys.readouterr()
    rc = main(["regen", loopy_ir, bad])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out.strip() == "UNSAFE"
    assert "LoopInvariant" in captured.err


@pytest.mark.parametrize(
    "kind, seed, report",
    [
        ("remove-edge", 7, ["  missing: main/1 -> main:9"]),
        # main:9 is already a target of main/1 at the header
        ("replace-object", 1, ["  missing: main/1 -> main:11"]),
        ("replace-object", 2, ["  missing: main/0 -> main:6", "  extra: main/0 -> main:11"]),
    ],
)
def test_unsafe_report_shows_the_edge_difference(tmp_path, loopy_ir, capsys, kind, seed, report):
    """An UNSAFE verdict names the check that failed, then lists only the
    edges it found that the stored value lacks and those the value holds
    beyond them, not both whole graphs."""
    art = str(tmp_path / "loopy.art")
    bad = str(tmp_path / "bad.art")
    main(["analyze", loopy_ir, "-o", art])
    main(["tamper", art, "--kind", kind, "--seed", str(seed), "-o", bad])
    capsys.readouterr()
    assert main(["regen", loopy_ir, bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == "UNSAFE\n"
    assert captured.err.splitlines() == ["LoopInvariant violation in 'main' at 5", *report]


def test_keep_going_reports_every_summary_violation(tmp_path, rec_ir, capsys):
    """With every entry one edge short, ``--keep-going`` reports the IN
    summary check at the recursive call-site and the OUT summary check after
    the pass, each with its edge difference; plain ``regen`` stops at the
    first."""

    def drop_first_edge(g: PointsToGraph) -> PointsToGraph:
        if g.field_edges:
            return PointsToGraph(g.var_edges, g.field_edges - {min(g.field_edges, key=repr)})
        if g.var_edges:
            return PointsToGraph(g.var_edges - {min(g.var_edges, key=repr)}, g.field_edges)
        return g

    p = parse_program(REC)
    a = emit_artwork(p, analyze_inter(p))
    reduced = Artwork(*({k: drop_first_edge(g) for k, g in m.items()} for m in (a.i_loop, a.i_in, a.i_out)))
    bad = tmp_path / "bad.art"
    bad.write_bytes(encode(reduced))
    in_report = ["InSummary violation in 'foo' at foo:7", "  missing: foo:4 .f-> null", "  extra: foo/0 -> null"]
    out_report = ["OutSummary violation in 'foo' at foo", "  missing: foo:4 .f-> null"]
    for flags, report in (["--keep-going"], in_report + out_report), ([], in_report):
        assert main(["regen", rec_ir, str(bad), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == "UNSAFE\n"
        assert captured.err.splitlines() == report


def test_tamper_deterministic_bytes(tmp_path, loopy_ir):
    art = str(tmp_path / "loopy.art")
    main(["analyze", loopy_ir, "-o", art])
    out1 = str(tmp_path / "a.art")
    out2 = str(tmp_path / "b.art")
    main(["tamper", art, "--kind", "shrink-set", "--seed", "5", "-o", out1])
    main(["tamper", art, "--kind", "shrink-set", "--seed", "5", "-o", out2])
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_add_edge_needs_program_flag(tmp_path, rec_ir, capsys):
    art = str(tmp_path / "rec.art")
    main(["analyze", rec_ir, "-o", art])
    capsys.readouterr()
    rc = main(["tamper", art, "--kind", "add-edge", "--seed", "1", "-o", str(tmp_path / "x.art")])
    assert rc == 2
    assert "requires --program" in capsys.readouterr().err
    rc = main(
        ["tamper", art, "--kind", "add-edge", "--seed", "1",
         "-o", str(tmp_path / "x.art"), "--program", rec_ir]
    )
    assert rc == 0
    assert main(["regen", rec_ir, str(tmp_path / "x.art")]) == 0


def test_tamper_checks_the_artifact_against_the_given_program(tmp_path, loopy_ir, rec_ir, capsys):
    art = str(tmp_path / "rec.art")
    out = tmp_path / "x.art"
    main(["analyze", rec_ir, "-o", art])
    capsys.readouterr()
    for kind in ("add-edge", "remove-edge"):
        rc = main(["tamper", art, "--kind", kind, "--seed", "1", "-o", str(out), "--program", loopy_ir])
        assert rc == 2
        assert capsys.readouterr().err == "error: [in]: unknown method 'foo'\n"
    assert not out.exists()


TWO_HEADER_LOOP = """\
method main() {
  1: if goto 4
  2: nop
  3: goto 4
  4: nop
  5: if goto 2
  6: nop
}
"""


def test_irreducible_program_is_an_input_error_not_unsafe(tmp_path, capsys):
    ir = tmp_path / "two-headers.ir"
    ir.write_text(TWO_HEADER_LOOP)
    plain = tmp_path / "plain.ir"
    plain.write_text("method main() {\n  1: nop\n}\n")
    art = str(tmp_path / "plain.art")
    assert main(["analyze", str(plain), "-o", art]) == 0
    capsys.readouterr()
    for argv in (["analyze", str(ir), "-o", str(tmp_path / "x.art")], ["regen", str(ir), art]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: method 'main' has a cycle that is not a natural loop\n"


def test_rq2_full_detection(tmp_path, rec_ir, capsys):
    art = str(tmp_path / "rec.art")
    main(["analyze", rec_ir, "-o", art])
    capsys.readouterr()
    assert main(["rq2", rec_ir, art, "-n", "10", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "detected 10/10"
    assert len(lines) == 11


def test_rq2_runs_no_trial_on_a_base_the_consumer_rejects(tmp_path, loopy_ir, capsys):
    """A campaign against a rejected artifact reports the consumer's
    verdict, as ``regen`` and ``stats`` do, instead of counting trials."""
    art = str(tmp_path / "loopy.art")
    bad = str(tmp_path / "bad.art")
    main(["analyze", loopy_ir, "-o", art])
    main(["tamper", art, "--kind", "remove-edge", "--seed", "7", "-o", bad])
    capsys.readouterr()
    assert main(["rq2", loopy_ir, bad, "-n", "10", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "UNSAFE\n"
    assert captured.err.splitlines() == ["LoopInvariant violation in 'main' at 5", "  missing: main/1 -> main:9"]


def test_rq2_rejects_a_negative_trial_count(tmp_path, loopy_ir, capsys):
    art = str(tmp_path / "loopy.art")
    main(["analyze", loopy_ir, "-o", art])
    capsys.readouterr()
    assert main(["rq2", loopy_ir, art, "-n", "-3", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trial count must be non-negative" in captured.err


def test_diff_reports_structural_difference(tmp_path, loopy_ir, rec_ir, capsys):
    d1 = str(tmp_path / "one.dump")
    d2 = str(tmp_path / "two.dump")
    main(["analyze", loopy_ir, "-o", str(tmp_path / "l.art"), "--dump-results", d1])
    main(["analyze", rec_ir, "-o", str(tmp_path / "r.art"), "--dump-results", d2])
    capsys.readouterr()
    assert main(["diff", d1, d2]) == 1
    captured = capsys.readouterr()
    assert captured.out.strip().startswith("different")
    assert "+" in captured.err or "-" in captured.err


def test_diff_of_two_files_that_are_not_dumps(tmp_path, capsys):
    """Two differing files that are not results dumps still compare: exit 1,
    ``different``, and a note that no structural diff can be shown."""
    one, two = tmp_path / "one.txt", tmp_path / "two.txt"
    one.write_text("a\n")
    two.write_text("b\n")
    assert main(["diff", str(one), str(two)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "different\n"
    assert captured.err == "(structural diff unavailable: not a results dump)\n"


def test_stats_output(tmp_path, rec_ir, capsys):
    art = str(tmp_path / "rec.art")
    main(["analyze", rec_ir, "-o", art])
    capsys.readouterr()
    assert main(["stats", rec_ir, art]) == 0
    out = capsys.readouterr().out
    assert "artwork bytes:" in out and "naive bytes:" in out
    assert "in entries:           2" in out
    assert "out entries:          1" in out


def test_operational_errors_exit_2(tmp_path, loopy_ir, capsys):
    assert main(["regen", loopy_ir, str(tmp_path / "missing.art")]) == 2
    bad = tmp_path / "broken.art"
    bad.write_bytes(b"not an artifact\n")
    assert main(["regen", loopy_ir, str(bad)]) == 2
    bad_ir = tmp_path / "broken.ir"
    bad_ir.write_text("method main() {\n  1: x =\n}\n")
    assert main(["analyze", str(bad_ir), "-o", str(tmp_path / "x.art")]) == 2
    assert main(["bogus-subcommand"]) == 2
    capsys.readouterr()


def test_regen_writes_its_dump_before_its_verdict(tmp_path, loopy_ir, capsys):
    """A dump that cannot be written is an IO error, with no SAFE printed."""
    art = str(tmp_path / "loopy.art")
    main(["analyze", loopy_ir, "-o", art])
    capsys.readouterr()
    missing = tmp_path / "missing" / "x.dump"
    assert main(["regen", loopy_ir, art, "--dump-results", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_an_output_error_names_the_output_path(tmp_path, loopy_ir, capsys, monkeypatch):
    monkeypatch.setenv("ART_COLOR", "0")
    missing = tmp_path / "no-such-dir" / "x.art"
    assert main(["analyze", loopy_ir, "-o", str(missing)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    # a directory in the way: the rename fails, and no temporary file is left
    taken = tmp_path / "taken"
    taken.mkdir()
    (taken / "f").write_text("")
    assert main(["analyze", loopy_ir, "-o", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(f": '{taken}'\n")
    assert ".tmp-art-" not in err
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-art-")]


def test_optimized_analyze_is_smaller_and_safe(tmp_path, loopy_ir, capsys):
    plain = str(tmp_path / "plain.art")
    opt = str(tmp_path / "opt.art")
    main(["analyze", loopy_ir, "-o", plain])
    main(["analyze", loopy_ir, "-O", "-o", opt])
    assert os.path.getsize(opt) <= os.path.getsize(plain)
    capsys.readouterr()
    assert main(["regen", loopy_ir, opt]) == 0


def test_optimized_analyze_never_regenerates(tmp_path, capsys, count_calls):
    # Both IN entries of f and g are dropped, which reads the call-site
    # values off the fixed point the emitted artwork carries.
    import artpta.consumer

    ir = tmp_path / "two-sites.ir"
    ir.write_text(
        "method main() {\n  1: a = new A\n  2: call [f](a)\n  3: call [g](a)\n  4: call [f](a)\n}\n"
        "method f(p) {\n  1: nop\n}\nmethod g(p) {\n  1: nop\n}\n"
    )
    art = str(tmp_path / "two-sites.art")
    calls = count_calls(artpta.consumer, "regenerate")
    assert main(["analyze", str(ir), "-O", "-o", art]) == 0
    assert calls["regenerate"] == 0
    assert "(loop=0 in=0 out=0)" in capsys.readouterr().out
    assert main(["regen", str(ir), art]) == 0


def test_gen_corpus_deterministic(tmp_path, capsys):
    out1 = tmp_path / "c1"
    out2 = tmp_path / "c2"
    args = ["gen-corpus", "--seed", "6", "--count", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    assert "loopy.ir" in names and "rec.ir" in names and "arith.ir" in names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--methods-min", "0"], "empty methods range"),
        (["--methods-min", "3", "--methods-max", "2"], "empty methods range"),
        (["--stmts-min", "0"], "empty statements range"),
        (["--recursion-prob", "1.5"], "recursion_prob must be in [0, 1]"),
        (["--count", "-1"], "program_count must be non-negative"),
    ],
)
def test_gen_corpus_rejects_an_empty_shape(tmp_path, capsys, args, message):
    """A shape the generator cannot draw from is an input error: exit 2,
    one line naming the fault, and no corpus written."""
    out = tmp_path / "bad"
    assert main(["gen-corpus", "--seed", "1", "--out", str(out), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_recursion_prob_one_always_cyclic(tmp_path, capsys):
    from artpta import CorpusConfig, build_call_graph, generate_corpus, parse_program

    files = generate_corpus(CorpusConfig(program_count=8, recursion_prob=1.0, seed=13))
    generated = [t for n, t in files if n.startswith("gen")]
    for text in generated:
        cg = build_call_graph(parse_program(text))
        assert cg.recursive_methods


def test_internal_error_exits_2_not_unsafe(tmp_path, rec_ir, monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr("artpta.cli._cmd_stats", broken)
    assert main(["stats", rec_ir, str(tmp_path / "unused.art")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: internal error: RuntimeError: boom\n"
    assert "Traceback" not in captured.err


def test_deep_call_chain_is_never_unsafe(tmp_path, capsys):
    # A valid artifact for a 1500-deep call chain must not read as UNSAFE,
    # even where the consumer runs out of stack.
    lines = ["method main() {", "  1: x = new A", "  2: call [m1](x)", "}"]
    for i in range(1, 1501):
        body = f"  1: call [m{i + 1}](p)" if i < 1500 else "  1: p.f = p"
        lines += [f"method m{i}(p) {{", body, "}"]
    prog = tmp_path / "chain.ir"
    prog.write_text("\n".join(lines) + "\n")
    art = str(tmp_path / "chain.art")
    assert main(["analyze", str(prog), "-o", art]) == 0
    capsys.readouterr()
    rc = main(["regen", str(prog), art])
    captured = capsys.readouterr()
    assert rc in (0, 2)
    if rc == 2:
        assert captured.err.startswith("error: internal error: ")
        assert captured.err.count("\n") == 1


def test_deep_call_chain_regen_is_safe(tmp_path, capsys, call_chain):
    prog = tmp_path / "chain.ir"
    prog.write_text(call_chain(1500))
    art = str(tmp_path / "chain.art")
    assert main(["analyze", str(prog), "-o", art]) == 0
    capsys.readouterr()
    assert main(["regen", str(prog), art]) == 0
    captured = capsys.readouterr()
    assert captured.out == "SAFE\n" and captured.err == ""


def test_deep_call_chain_optimizes_to_an_empty_artifact(tmp_path, capsys, call_chain):
    # Every IN entry has one call-site outside its own SCC, and the consumer
    # re-derives it there.
    prog = tmp_path / "chain.ir"
    prog.write_text(call_chain(1500))
    art = tmp_path / "chain.art"
    assert main(["analyze", str(prog), "-O", "-o", str(art)]) == 0
    assert art.read_bytes() == b"ART/5\n[loop]\n[in]\n[out]\n"
    capsys.readouterr()
    assert main(["regen", str(prog), str(art)]) == 0
    assert capsys.readouterr().out == "SAFE\n"


def test_ten_thousand_deep_chain_regenerates_within_the_default_stack(call_chain):
    from artpta import analyze_inter, emit_artwork, parse_program, regen_inter

    limit = sys.getrecursionlimit()
    p = parse_program(call_chain(10_000))
    out = regen_inter(p, emit_artwork(p, analyze_inter(p)))
    assert out.safe
    assert len(out.methods_analyzed) == 10_001
    assert sys.getrecursionlimit() == limit


def test_stats_sizes_the_regenerated_result_without_reanalysing(
    tmp_path, loopy_ir, capsys, count_calls
):
    import artpta.producer
    from artpta import analyze_inter, decode, naive_encode, parse_program

    art = tmp_path / "loopy.art"
    assert main(["analyze", loopy_ir, "-O", "-o", str(art)]) == 0
    p = parse_program(LOOPY)
    naive = len(naive_encode(analyze_inter(p)))
    capsys.readouterr()
    counts = count_calls(artpta.producer, "analyze_inter")
    assert main(["stats", loopy_ir, str(art)]) == 0
    assert counts["analyze_inter"] == 0
    out = capsys.readouterr().out
    assert f"naive bytes:          {naive}\n" in out
    assert f"artwork bytes:        {len(art.read_bytes())}\n" in out
    assert decode(art.read_bytes(), p).i_loop  # the loop entry survives -O


def test_stats_reports_an_unsafe_artifact_instead_of_sizing_it(tmp_path, loopy_ir, capsys):
    art = str(tmp_path / "loopy.art")
    bad = str(tmp_path / "bad.art")
    main(["analyze", loopy_ir, "-o", art])
    main(["tamper", art, "--kind", "remove-edge", "--seed", "7", "-o", bad])
    capsys.readouterr()
    assert main(["stats", loopy_ir, bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == "UNSAFE\n"
    assert "LoopInvariant" in captured.err and "  missing: main/1 -> main:9" in captured.err
    assert "bytes" not in captured.err
