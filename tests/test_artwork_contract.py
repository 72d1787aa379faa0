"""The codec's untrusted-input contract: the exact message of every
rejection, which rejection wins when an artifact has several faults, and
the exit code ``artpta regen`` turns each into."""

import pytest

from artpta import MalformedArtworkError, UnknownReferenceError, decode, parse_program
from artpta.cli import main

# ``main:2`` heads a loop; ``r`` is self-recursive and ``main`` is not.  Slot
# 1 of ``main`` and slot 2 of ``r`` are their return carriers.
PROGRAM = """\
method main() {
  1: x = new C
  2: if goto 5
  3: x.f = x
  4: goto 2
  5: call [r](x)
}
method r(p) {
  1: call [r](p)
  2: q = new D
  3: p.g = q
}
"""

VALID = """\
ART/1
[loop]
m:main l:2 = {
  main/0 -> main:1
  main:1 .f-> main:1
}
[in]
m:main = {
}
m:r = {
  r/0 -> main:1
  main:1 .f-> main:1
}
[out]
m:r = {
  main:1 .f-> main:1
  main:1 .g-> r:2
}
"""


def _art(loop: str = "", in_: str = "", out: str = "", pool: str | None = None) -> str:
    head = "ART/1\n" + ("" if pool is None else "[pool]\n" + pool)
    return head + "[loop]\n" + loop + "[in]\n" + in_ + "[out]\n" + out


def _block(head: str, *edges: str) -> str:
    return head + " = {\n" + "".join(f"  {e}\n" for e in edges) + "}\n"


MALFORMED = {
    "not-utf8": (b"ART/1\n\xff\n[loop]\n[in]\n[out]\n", "not valid UTF-8"),
    "no-trailing-newline": (b"ART/1\n[loop]\n[in]\n[out]", "missing trailing newline"),
    "empty-file": (b"", "missing trailing newline"),
    "bad-header": (b"ART/2\n[loop]\n[in]\n[out]\n", "missing ART/1 header"),
    "blank-first-line": (b"\nART/1\n[loop]\n[in]\n[out]\n", "missing ART/1 header"),
    "only-header": (b"ART/1\n", "unexpected end of file"),
    "missing-loop": (b"ART/1\n[in]\n[out]\n", "expected [loop] section"),
    "missing-in": (b"ART/1\n[loop]\n[out]\n", "bad [loop] entry"),
    "missing-in-at-eof": (b"ART/1\n[loop]\n", "unexpected end of file"),
    "missing-out": (b"ART/1\n[loop]\n[in]\n", "unexpected end of file"),
    "bad-loop-entry": (_art(loop="m:main l:x = {\n}\n"), "bad [loop] entry"),
    "bad-in-entry": (_art(in_="main = {\n}\n"), "bad [in] entry"),
    "bad-out-entry": (_art(out="m:r={\n}\n"), "bad [out] entry"),
    "bad-value": (_art(in_="m:main = []\n"), "expected graph block or pool reference, got '[]'"),
    "unterminated-block": (_art(out="m:r = {\n  r/0 -> null\n"), "unterminated graph block"),
    "unterminated-empty-block": (_art(out="m:r = {\n"), "unterminated graph block"),
    "header-inside-block": (
        _art(in_="m:main = {\n  main/0 -> main:1\nm:r = {\n}\n"),
        "expected edge line or '}', got 'm:r = {'",
    ),
    "bad-edge-operator": (
        _art(in_=_block("m:main", "main/0 => main:1")),
        "bad edge line 'main/0 => main:1'",
    ),
    "edge-too-short": (_art(in_=_block("m:main", "main/0 ->")), "bad edge line 'main/0 ->'"),
    "bad-variable": (_art(in_=_block("m:main", "main/x -> main:1")), "bad variable 'main/x'"),
    "bad-object": (_art(in_=_block("m:main", "main/0 -> main")), "bad object 'main'"),
    "bad-placeholder": (_art(in_=_block("m:main", "main/0 -> main?x")), "bad object 'main?x'"),
    "empty-field-name": (
        _art(in_=_block("m:main", "main:1 .-> null")),
        "bad field edge 'main:1 .-> null'",
    ),
    "null-source": (_art(in_=_block("m:main", "null .f-> main:1")), "field edge with null source"),
    "bad-edge-before-good": (
        _art(in_=_block("m:main", "main/0 -> main:1", "main/0 -> ", "main/0 -> null")),
        "bad edge line 'main/0 -> '",
    ),
    "undefined-pool-graph": (_art(in_="m:main = g3\n"), "reference to undefined pool graph g3"),
    "pool-reference-past-the-pool": (
        _art(in_="m:main = g1\n", pool="g0:\n"),
        "reference to undefined pool graph g1",
    ),
    "misnumbered-pool-graph": (
        _art(pool="g1:\n  main/0 -> main:1\n"),
        "bad pool graph header 'g1:'",
    ),
    "bad-pool-edge": (_art(pool="g0:\n  main/0 -> nil\n"), "bad object 'nil'"),
    "pool-graph-block": (_art(pool="g0: {\n}\n"), "bad pool graph header 'g0: {'"),
    "duplicate-loop-entry": (
        _art(loop="m:main l:2 = {\n}\nm:main l:2 = {\n}\n"),
        "duplicate loop entry ('main', 2)",
    ),
    "duplicate-in-entry": (_art(in_="m:main = {\n}\nm:main = {\n}\n"), "duplicate in entry main"),
    "duplicate-out-entry": (_art(out="m:r = {\n}\nm:r = {\n}\n"), "duplicate out entry r"),
}

UNKNOWN = {
    "loop-unknown-method": (_art(loop="m:ghost l:2 = {\n}\n"), "[loop]: unknown method 'ghost'"),
    "loop-no-statement": (_art(loop="m:main l:9 = {\n}\n"), "[loop]: no statement main:9"),
    "in-unknown-method": (_art(in_="m:ghost = {\n}\n"), "[in]: unknown method 'ghost'"),
    "out-unknown-method": (_art(out="m:ghost = {\n}\n"), "[out]: unknown method 'ghost'"),
    "out-not-recursive": (_art(out="m:main = {\n}\n"), "[out]: method 'main' is not recursive"),
    "unknown-slot": (
        _art(in_=_block("m:main", "main/2 -> main:1")),
        "[in] main: unknown variable slot main/2",
    ),
    "slot-of-unknown-method": (
        _art(in_=_block("m:main", "ghost/0 -> main:1")),
        "[in] main: unknown variable slot ghost/0",
    ),
    "unknown-placeholder": (
        _art(in_=_block("m:main", "main/0 -> main?0")),
        "[in] main: unknown placeholder main?0",
    ),
    "placeholder-of-unknown-method": (
        _art(in_=_block("m:r", "r/0 -> ghost?0")),
        "[in] r: unknown placeholder ghost?0",
    ),
    "not-an-allocation": (
        _art(in_=_block("m:main", "main/0 -> main:3")),
        "[in] main: object main:3 is not an allocation site",
    ),
    "site-of-unknown-method": (
        _art(in_=_block("m:main", "main/0 -> ghost:1")),
        "[in] main: object ghost:1 is not an allocation site",
    ),
    "field-source": (
        _art(out=_block("m:r", "r:1 .g-> r:2")),
        "[out] r: object r:1 is not an allocation site",
    ),
    "field-target": (
        _art(loop=_block("m:main l:2", "main:1 .f-> r:3")),
        "[loop] main:2: object r:3 is not an allocation site",
    ),
    "pool-graph-names-its-user": (
        _art(in_="m:r = g0\n", pool="g0:\n  r/0 -> r:1\n"),
        "[in] r: object r:1 is not an allocation site",
    ),
    "unreferenced-pool-graph": (
        _art(pool="g0:\n  ghost/0 -> ghost:1\n"),
        "[pool] g0: unknown variable slot ghost/0",
    ),
    "unreferenced-pool-graph-object": (
        _art(in_="m:main = g0\n", pool="g0:\n  main/0 -> main:1\ng1:\n  main:1 .f-> main:3\n"),
        "[pool] g1: object main:3 is not an allocation site",
    ),
}

PRECEDENCE = {
    # A syntax error anywhere wins over any reference error.
    "syntax-after-references": (
        _art(
            loop="m:ghost l:1 = {\n}\n",
            in_=_block("m:main", "main/2 -> main:3"),
            out="m:r = {\n",
        ),
        MalformedArtworkError,
        "unterminated graph block",
    ),
    "syntax-after-bad-pool-reference": (
        _art(in_="m:r = g0\n", out="m:r = g1\n", pool="g0:\n  r/0 -> r:1\n"),
        MalformedArtworkError,
        "reference to undefined pool graph g1",
    ),
    # [loop] before [in] before [out]: the sections, not the lines.
    "loop-first": (
        _art(
            loop=_block("m:main l:2", "main:1 .f-> main:5"),
            in_=_block("m:main", "main/2 -> main:1"),
            out="m:main = {\n}\n",
        ),
        UnknownReferenceError,
        "[loop] main:2: object main:5 is not an allocation site",
    ),
    "in-before-out": (
        _art(in_=_block("m:main", "main/2 -> main:1"), out="m:main = {\n}\n"),
        UnknownReferenceError,
        "[in] main: unknown variable slot main/2",
    ),
    "entries-in-file-order": (
        _art(in_=_block("m:r", "r/0 -> r:1") + _block("m:main", "main/2 -> main:1")),
        UnknownReferenceError,
        "[in] r: object r:1 is not an allocation site",
    ),
    # Within an entry, the key is checked before the graph.
    "label-before-graph": (
        _art(loop=_block("m:main l:9", "main/2 -> main:1")),
        UnknownReferenceError,
        "[loop]: no statement main:9",
    ),
    "recursion-before-graph": (
        _art(out=_block("m:main", "main/2 -> main:1")),
        UnknownReferenceError,
        "[out]: method 'main' is not recursive",
    ),
    # Every entry before an unreferenced pool graph, and pool graphs in order.
    "entries-before-pool": (
        _art(out="m:main = {\n}\n", pool="g0:\n  ghost/0 -> ghost:1\n"),
        UnknownReferenceError,
        "[out]: method 'main' is not recursive",
    ),
    "entry-graph-before-pool": (
        _art(loop=_block("m:main l:2", "main/7 -> null"), pool="g0:\n  ghost/0 -> null\n"),
        UnknownReferenceError,
        "[loop] main:2: unknown variable slot main/7",
    ),
    "first-bad-pool-graph": (
        _art(pool="g0:\n  main/0 -> main:1\ng1:\n  r/0 -> r:9\ng2:\n  ghost/0 -> null\n"),
        UnknownReferenceError,
        "[pool] g1: object r:9 is not an allocation site",
    ),
    "referenced-pool-graph-reports-through-its-entry": (
        _art(out="m:r = g1\n", pool="g0:\n  main/5 -> null\ng1:\n  r/0 -> r:9\n"),
        UnknownReferenceError,
        "[out] r: object r:9 is not an allocation site",
    ),
    # Within a line, the left side before the right.
    "variable-before-object": (
        _art(in_=_block("m:main", "main/2 -> main:3")),
        UnknownReferenceError,
        "[in] main: unknown variable slot main/2",
    ),
    "source-before-target": (
        _art(in_=_block("m:main", "main:3 .f-> main:4")),
        UnknownReferenceError,
        "[in] main: object main:3 is not an allocation site",
    ),
}

CASES = {
    **{k: (data, MalformedArtworkError, msg) for k, (data, msg) in MALFORMED.items()},
    **{k: (data, UnknownReferenceError, msg) for k, (data, msg) in UNKNOWN.items()},
    **PRECEDENCE,
}


@pytest.fixture(scope="module")
def program():
    return parse_program(PROGRAM)


def _bytes(data) -> bytes:
    return data if isinstance(data, bytes) else data.encode()


def test_the_valid_artifact_decodes(program):
    a = decode(VALID.encode(), program)
    assert (len(a.i_loop), len(a.i_in), len(a.i_out)) == (1, 2, 1)


@pytest.mark.parametrize("name", list(CASES))
def test_decode_rejection_message(program, name):
    data, exc, message = CASES[name]
    with pytest.raises(exc) as info:
        decode(_bytes(data), program)
    assert type(info.value) is exc
    assert str(info.value) == message


@pytest.mark.parametrize("cut", range(1, len(VALID)))
def test_every_truncation_is_rejected_as_malformed(program, cut):
    data = VALID.encode()[:cut]
    if data.endswith(b"[out]\n"):
        # An artifact with no OUT entries: the one valid cut.
        assert decode(data, program).i_out == {}
        return
    with pytest.raises(MalformedArtworkError) as info:
        decode(data, program)
    if not data.endswith(b"\n"):
        assert str(info.value) == "missing trailing newline"


@pytest.mark.parametrize(
    "lines,message",
    [
        (5, "unterminated graph block"),  # inside the [loop] block
        (6, "unexpected end of file"),  # after the [loop] entry
        (7, "unexpected end of file"),  # after the [in] header
        (8, "unterminated graph block"),  # m:main's IN block opened
        (11, "unterminated graph block"),  # inside m:r's IN block
        (16, "unterminated graph block"),  # inside the [out] block
    ],
)
def test_truncation_at_a_line_boundary(program, lines, message):
    data = "".join(VALID.splitlines(keepends=True)[:lines]).encode()
    with pytest.raises(MalformedArtworkError) as info:
        decode(data, program)
    assert str(info.value) == message


def test_truncation_after_a_whole_entry_is_valid(program):
    # ``[in]`` ends with ``m:main``'s empty block: nothing marks the end of a
    # section, so cutting the file there drops the rest of it, and the
    # missing [out] header is what gives the cut away.
    data = "".join(VALID.splitlines(keepends=True)[:9]).encode()
    with pytest.raises(MalformedArtworkError) as info:
        decode(data, program)
    assert str(info.value) == "unexpected end of file"


@pytest.mark.parametrize("name", list(CASES))
def test_regen_exits_2_with_the_message(tmp_path, capsys, monkeypatch, name):
    monkeypatch.setenv("ART_COLOR", "0")
    data, _, message = CASES[name]
    prog = tmp_path / "p.ir"
    prog.write_text(PROGRAM)
    art = tmp_path / "a.art"
    art.write_bytes(_bytes(data))
    assert main(["regen", str(prog), str(art)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_shared_bad_line_is_reported_for_its_first_entry(program):
    line = "r/0 -> r:1"
    data = _art(in_=_block("m:r", "r/0 -> main:1", line), out=_block("m:r", line)).encode()
    with pytest.raises(UnknownReferenceError) as info:
        decode(data, program)
    assert str(info.value) == "[in] r: object r:1 is not an allocation site"
    data = _art(in_=_block("m:r", "r/0 -> main:1"), out=_block("m:r", line)).encode()
    with pytest.raises(UnknownReferenceError) as info:
        decode(data, program)
    assert str(info.value) == "[out] r: object r:1 is not an allocation site"


# Several unknown references in one entry: the first bad edge line in file
# order is reported, and within a line its left side before its right.
FIRST_BAD_LINE = """\
import sys
from artpta import UnknownReferenceError, decode, parse_program
p = parse_program("method main() {\\n  1: x = new C\\n}\\n")
for body in sys.argv[1:]:  # " = {", the edge lines, "}"
    data = ("ART/1\\n[loop]\\n[in]\\nm:main" + body + "[out]\\n").encode()
    try:
        decode(data, p)
        print("accepted")
    except UnknownReferenceError as exc:
        print(exc)
"""

SEVERAL_BAD = [
    _block("", "main/0 -> main:97", "main/0 -> main:98", "main/0 -> main:99", "main/0 -> zz:5"),
    _block("", "main:1 .f-> main:7", "main/5 -> zz:1", "main:3 .g-> main:1"),
    _block("", "main/0 -> main:1", "zz:1 .f-> zz:2", "main/0 -> main:2"),
]


def test_the_first_bad_line_is_reported_under_every_hash_seed():
    import os
    import subprocess
    import sys

    import artpta

    src = os.path.dirname(os.path.dirname(os.path.abspath(artpta.__file__)))
    seen = set()
    for seed in ("0", "1", "2", "3", "17", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", FIRST_BAD_LINE, *SEVERAL_BAD],
            env=env, capture_output=True, text=True, check=True,
        )
        seen.add(run.stdout)
    assert seen == {
        "[in] main: object main:97 is not an allocation site\n"
        "[in] main: object main:7 is not an allocation site\n"
        "[in] main: object zz:1 is not an allocation site\n"
    }


@pytest.mark.parametrize(
    "data,message",
    [
        (b"NAIVE/2\n", "missing NAIVE/1 header"),
        (b"NAIVE/1\n[method main]", "missing trailing newline"),
        (b"NAIVE/1\nentry = {\n}\n", "bad dump line 'entry = {'"),
        (b"NAIVE/1\n[method main]\nl:x = {\n}\n", "bad dump line 'l:x = {'"),
        (b"NAIVE/1\n[method main]\nentry = {\n  main/0 -> main:1\n", "unexpected end of file"),
        (b"NAIVE/1\n[method main]\nentry = {\nexit = {\n}\n", "bad dump edge line 'exit = {'"),
    ],
)
def test_parse_naive_rejection_message(data, message):
    from artpta.artwork import parse_naive

    with pytest.raises(MalformedArtworkError) as info:
        parse_naive(data)
    assert str(info.value) == message


def test_parse_naive_reads_sorted_edge_lines():
    from artpta.artwork import parse_naive

    data = (
        b"NAIVE/1\n[method main]\nentry = {\n}\n"
        b"l:2 = {\n  main:1 .f-> null\n  main/0 -> main:1\n}\n"
    )
    assert parse_naive(data) == {
        ("main", "entry"): (),
        ("main", "l:2"): ("main/0 -> main:1", "main:1 .f-> null"),
    }


def test_a_syntax_error_wins_over_a_program_the_index_rejects():
    from artpta import IrreducibleCfgError

    p = parse_program("method main() {\n  1: return\n  2: nop\n  3: goto 2\n}\n")
    with pytest.raises(MalformedArtworkError) as info:
        decode(b"ART/1\n[loop]\n[in]\nm:main = {\n", p)
    assert str(info.value) == "unterminated graph block"
    with pytest.raises(IrreducibleCfgError):
        decode(b"ART/1\n[loop]\n[in]\n[out]\n", p)
