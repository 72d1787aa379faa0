import sys
from collections import Counter

import pytest

from artpta import (
    ARITH,
    LOOPY,
    REC,
    CorpusConfig,
    analyze_inter,
    emit_artwork,
    generate_corpus,
    parse_program,
    render_edges,
)

ACCEPTANCE_SEED = 2024


@pytest.fixture(scope="session")
def loopy():
    return parse_program(LOOPY)


@pytest.fixture(scope="session")
def rec():
    return parse_program(REC)


@pytest.fixture(scope="session")
def arith():
    return parse_program(ARITH)


@pytest.fixture(scope="session")
def loopy_pipeline(loopy):
    result = analyze_inter(loopy)
    return loopy, result, emit_artwork(loopy, result)


@pytest.fixture(scope="session")
def rec_pipeline(rec):
    result = analyze_inter(rec)
    return rec, result, emit_artwork(rec, result)


@pytest.fixture(scope="session")
def arith_pipeline(arith):
    result = analyze_inter(arith)
    return arith, result, emit_artwork(arith, result)


@pytest.fixture(scope="session")
def small_corpus():
    """Parsed 10-program corpus for module-level sweeps (the acceptance suite
    runs the full 50-program one)."""
    files = generate_corpus(CorpusConfig(program_count=10, seed=ACCEPTANCE_SEED))
    return [(name, parse_program(text)) for name, text in files]


def _call_chain(n: int) -> str:
    lines = ["method main() {", "  1: x = new A", "  2: call [m1](x)", "}"]
    for i in range(1, n + 1):
        body = f"  1: call [m{i + 1}](p)" if i < n else "  1: p.f = p"
        lines += [f"method m{i}(p) {{", body, "}"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def call_chain():
    """``call_chain(n)`` is the IR text of an ``n``-deep call chain: ``main``
    calls ``m1``, each ``mi`` calls ``m(i+1)``, and ``mn`` stores into its
    parameter."""
    return _call_chain


def _bindings(g) -> dict[str, list[str]]:
    """The binding lines of ``g``, read off ``render_edges``: each key
    (``m/s`` or ``src .f``, the line's text before its arrow) mapped to its
    targets in line order, the keys in line order."""
    out: dict[str, list[str]] = {}
    for line in render_edges(g):
        key, _, target = line.rpartition(" ")
        out.setdefault(key.removesuffix(" ->").removesuffix("->"), []).append(target)
    return out


def _edit_lines(old: dict, new: dict) -> tuple[list[str], list[str]]:
    """The ``- `` lines (targets only ``old`` has) and ``+ `` lines (targets
    only ``new`` has), one per key, variables before fields, each group in
    key order."""
    keys = sorted(old.keys() | new.keys(), key=lambda k: (" " in k, k))
    removed, added = [], []
    for key in keys:
        was, now = old.get(key, []), new.get(key, [])
        gone = [t for t in was if t not in now]
        came = [t for t in now if t not in was]
        if gone:
            removed.append(f"- {key} {' '.join(gone)}")
        if came:
            added.append(f"+ {key} {' '.join(came)}")
    return removed, added


def _scoped_line(line: str, method: str) -> str:
    """An edge line of an entry of ``method``: each token that names a
    variable or an object of ``method`` without the method's name."""
    head, *tokens = line.split(" ")
    for k, token in enumerate(tokens):
        for mark in "/:?":
            if token.startswith(method + mark):
                tokens[k] = token[len(method) :]
    return " ".join([head, *tokens])


def _reference_encode(a) -> bytes:
    lines = ["ART/5"]
    sections = (
        ("[loop]", {(m, f"{m}:{l}"): g for (m, l), g in sorted(a.i_loop.items())}),
        ("[in]", {(m, m): g for m, g in sorted(a.i_in.items())}),
        ("[out]", {(m, m): g for m, g in sorted(a.i_out.items())}),
    )
    previous = None
    for header, entries in sections:
        lines.append(header)
        for (method, key), g in entries.items():
            new = _bindings(g)
            if previous is not None:
                removed, added = _edit_lines(_bindings(previous), new)
            if previous is not None and len(removed) + len(added) <= len(new):
                own = [f"{key} ^", *removed, *added]
            else:
                own = [f"{key} {{", *(f"  {k} {' '.join(ts)}" for k, ts in new.items()), "}"]
            lines += [own[0], *(_scoped_line(line, method) for line in own[1:])]
            previous = g
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.fixture(scope="session")
def reference_encode():
    """``reference_encode(a)`` writes the ART/5 bytes of artwork ``a`` line
    by line, one line per binding: a key and its targets with no arrow, as
    the lines of ``render_edges`` that share the key list them, in their
    order; in an entry of method ``m``, every ``m/k``, ``m:label`` and
    ``m?i`` is then written ``/k``, ``:label`` and ``?i``.  Each entry after the
    first whose bindings differ from those of the entry before it, in file
    order across sections, in no more lines than it has bindings is written
    ``^`` followed by the differences: per key, ``- `` and the targets it
    lacks, then per key ``+ `` and the targets it adds, each group in
    ``render_edges`` order (so an equal entry is a bare ``^``).  Every
    other entry is written inline."""
    return _reference_encode


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, *names)`` wraps every binding of each named
    function of ``module`` in every loaded ``artpta`` module and returns the
    live per-name call counts."""

    def install(module, *names):
        counts: Counter = Counter()
        for name in names:
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "artpta" or mod_name.startswith("artpta."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, key, counted)
        return counts

    return install
