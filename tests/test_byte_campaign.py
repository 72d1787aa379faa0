"""A seeded byte-level campaign on valid ART/5 artifacts, through the CLI.

Bytes are flipped, inserted and deleted, and lines duplicated and deleted,
in plain and ``-O`` artifacts of both corpus shapes (the default one and
roundtrip-large's one self-recursive method of 300 statements).  Every
mutated file goes through ``artpta.cli.main(["regen", ...])``: the exit code
is 0 (SAFE), 1 (UNSAFE) or 2 (rejected), stderr never reports an internal
error, and an exit of 0 means the results ``regen`` dumps subsume
``analyze_inter``'s least fixed point at every point."""

import contextlib
import functools
import io

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from artpta import (
    CorpusConfig,
    analyze_inter,
    emit_artwork,
    encode,
    generate_corpus,
    naive_encode,
    optimize_artwork,
    parse_program,
)
from artpta.artwork import parse_naive
from artpta.cli import main

LARGE_SHAPE = dict(methods_min=1, methods_max=1, stmts_min=300, stmts_max=300, recursion_prob=1.0)


@functools.cache
def _subjects() -> list[tuple[str, bytes, dict]]:
    """(program text, artifact bytes, least fixed point as dump lines) for
    the plain and ``-O`` artifacts of six default-shape programs and one of
    roundtrip-large's shape."""
    small = [f for f in generate_corpus(CorpusConfig(program_count=6, seed=1)) if f[0].startswith("gen")]
    large = [f for f in generate_corpus(CorpusConfig(program_count=1, seed=1, **LARGE_SHAPE)) if f[0].startswith("gen")]
    out = []
    for _, text in [*small, *large]:
        p = parse_program(text)
        result = analyze_inter(p)
        lfp = parse_naive(naive_encode(result))
        a = emit_artwork(p, result)
        for art in (a, optimize_artwork(p, a)):
            out.append((text, encode(art), lfp))
    return out


def _mutate(data: bytes, ops) -> bytes:
    for op, at, arg in ops:
        if op == "flip":
            k = at % len(data)
            data = data[:k] + bytes([data[k] ^ arg]) + data[k + 1 :]
        elif op == "insert":
            k = at % (len(data) + 1)
            data = data[:k] + arg + data[k:]
        elif op == "delete":
            k = at % len(data)
            data = data[:k] + data[k + arg :]
        else:
            lines = data.split(b"\n")
            k = at % len(lines)
            lines[k : k + 1] = [lines[k]] * (2 if op == "dup-line" else 0)
            data = b"\n".join(lines)
        if not data:
            data = b"\n"
    return data


# bytes the grammar gives a meaning to, and any others
_inserted = st.one_of(
    st.sampled_from([b"/", b":", b"?", b" ", b"\n", b"0", b"7", b"-", b"+", b"^", b"{", b"}", b".", b"null", b"m:"]),
    st.binary(min_size=1, max_size=3),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(1, 255)),
        st.tuples(st.just("insert"), st.integers(0, 1 << 20), _inserted),
        st.tuples(st.just("delete"), st.integers(0, 1 << 20), st.integers(1, 8)),
        st.tuples(st.sampled_from(["dup-line", "del-line"]), st.integers(0, 1 << 20), st.none()),
    ),
    min_size=1,
    max_size=3,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("campaign")


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(which=st.integers(0, 1 << 16), ops=_ops)
def test_regen_on_mutated_bytes_exits_cleanly(workdir, which, ops):
    subjects = _subjects()
    text, data, lfp = subjects[which % len(subjects)]
    prog, art, dump = workdir / "p.ir", workdir / "a.art", workdir / "r.dump"
    prog.write_text(text)
    art.write_bytes(_mutate(data, ops))
    dump.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["regen", str(prog), str(art), "--dump-results", str(dump)])
    event(f"exit {code}")
    assert code in (0, 1, 2), err.getvalue()
    assert "internal error" not in err.getvalue(), err.getvalue()
    if code == 0:
        got = parse_naive(dump.read_bytes())
        for point, lines in lfp.items():
            assert set(lines) <= set(got[point]), point
