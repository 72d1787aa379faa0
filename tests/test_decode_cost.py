"""Decode's cost on untrusted input stays linear in the artifact.

An edit entry's graph is built over shallow copies of the previous entry's
maps, so a file of one big block followed by many one-line edits would cost
a copy of the big maps per entry.  Decode builds graphs only until the
first entry at fault, and the program has each entry key once, so such a
file costs a copy per entry the program has and O(1) per line after
that."""

import gc
import time

import pytest

from artpta import UnknownReferenceError, decode, parse_program, ptg

SIZES = (1000, 2000, 4000)


def _program(n: int):
    """``main`` with ``n`` variables, each assigned its own allocation site:
    ``n + 1`` entry keys (a [loop] key per statement and the [in] key)."""
    body = "".join(f"  {k + 1}: v{k} = new C\n" for k in range(n))
    return parse_program(f"method main() {{\n{body}}}\n")


def _chain(k: int, n: int, valid_keys: int = 1) -> bytes:
    """A block of ``k`` binding lines, each a variable with one target,
    then ``n`` one-line edit entries that remove and re-add the first
    line's target; the first ``valid_keys`` entries name statements of
    ``main``, the rest statements it lacks.  Every entry is one of
    ``main``, so its identifiers are written as encode writes them, scoped
    (``/0 :1``)."""
    edges = [f"/{v} :{v + 1}" for v in sorted(range(k), key=str)]
    lines = ["ART/5", "[loop]", "main:1 {", *(f"  {e}" for e in edges), "}"]
    for j in range(n):
        label = j + 2 if j + 1 < valid_keys else 1_000_000 + j
        lines += [f"main:{label} ^", f"{'-+'[j % 2]} {edges[0]}"]
    return ("\n".join(lines + ["[in]", "[out]"]) + "\n").encode()


@pytest.mark.parametrize("size", SIZES)
def test_decode_builds_no_graph_past_the_first_entry_at_fault(count_calls, size):
    p = _program(size)
    data = _chain(size, size)
    calls = count_calls(ptg, "_graph")
    with pytest.raises(UnknownReferenceError) as info:
        decode(data, p)
    assert str(info.value) == "[loop]: no statement main:1000000"
    assert calls["_graph"] == 1  # the block's


def test_decode_builds_one_graph_per_entry_the_program_has(count_calls):
    p = _program(1000)
    data = _chain(1000, 999, valid_keys=1000)  # every statement's [loop] key
    calls = count_calls(ptg, "_graph")
    a = decode(data, p)
    assert calls["_graph"] == len(a.i_loop) == 1000


def test_decode_time_is_linear_in_the_chain():
    points = []
    for size in SIZES:
        p = _program(size)
        data = _chain(size, size)
        best = float("inf")
        for _ in range(3):
            # with the collector off, as the benchmark's load probe runs, so
            # a collection that falls in one size cannot bend the line
            enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                with pytest.raises(UnknownReferenceError):
                    decode(data, p)
                best = min(best, time.perf_counter() - start)
            finally:
                if enabled:
                    gc.enable()
        points.append((len(data), best))
    # as criterion 6 checks the consumer's work: every point within a factor
    # of two of the least-squares line through the origin
    slope = sum(x * y for x, y in points) / sum(x * x for x, _ in points)
    assert all(slope * x / 2 <= y <= 2 * slope * x for x, y in points), points
