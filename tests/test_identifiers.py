"""The variables and objects a program has, against a test-local copy of the
reference rules decode checks edge lines by.

The rules: a variable slot exists when its method does and the slot is at
most the method's ``var_count`` (the last slot is the return carrier); a
placeholder when its method does and its index is below the method's
parameter count; a site when its method has an allocation statement with
that label.  Null belongs to every program.

Valid artifacts of both corpus shapes get seeded binding lines of one to
three targets inserted that name known and unknown variables and objects on
either side, in full or scoped (``/0``, ``:1``, ``?0``: read against the
method of the entry they land in), and every decode outcome (the exception's type and message, or
the decoded maps) must equal what the reference predicts.  ``ir.identifiers``
must accept exactly what the rules accept, and a decoded artifact must hold
one object per identifier."""

import random
import re

import pytest

from artpta import (
    CorpusConfig,
    MalformedArtworkError,
    UnknownReferenceError,
    analyze_inter,
    decode,
    emit_artwork,
    encode,
    generate_corpus,
    optimize_artwork,
    parse_artwork,
    parse_program,
)
from artpta.ir import Alloc, Program, identifier_tables, identifiers
from artpta.ptg import NULL_OBJECT, Site, parse_object, render_object
from helpers import parse_edge_line

LARGE_SHAPE = dict(methods_min=1, methods_max=1, stmts_min=300, stmts_max=300, recursion_prob=1.0)
SEEDS = (1, 90917)
TRIALS_PER_ARTIFACT = 25


# ---------------------------------------------------------------------------
# The reference rules
# ---------------------------------------------------------------------------

_VAR_RE = re.compile(r"(.+)/([0-9]+)")
_PLACEHOLDER_RE = re.compile(r"(.+)\?([0-9]+)")
_SITE_RE = re.compile(r"(.+):([0-9]+)")


def _why_var(p: Program, text: str) -> str | None:
    method, slot = _VAR_RE.fullmatch(text).groups()
    m = next((m for m in p.methods if m.name == method), None)
    if m is None or int(slot) > m.var_count:
        return f"unknown variable slot {method}/{int(slot)}"
    return None


def _why_object(p: Program, text: str) -> str | None:
    if text == "null":
        return None
    found = _PLACEHOLDER_RE.fullmatch(text)
    if found is not None:
        method, index = found.groups()
        m = next((m for m in p.methods if m.name == method), None)
        if m is None or int(index) >= len(m.params):
            return f"unknown placeholder {method}?{int(index)}"
        return None
    method, label = _SITE_RE.fullmatch(text).groups()
    m = next((m for m in p.methods if m.name == method), None)
    if m is None or not any(s.label == int(label) and isinstance(s.instr, Alloc) for s in m.body):
        return f"object {method}:{int(label)} is not an allocation site"
    return None


def _full(line: str, method: str) -> str:
    """A binding line of an entry of ``method`` in full spelling: each
    scoped token (``/k``, ``:label``, ``?i``) with the method's name before
    it."""
    return " ".join(method + t if t[0] in "/:?" else t for t in line.split())


def _why_line(p: Program, line: str) -> str | None:
    """Why a binding line in full spelling names something ``p`` lacks: its
    left side first, then its targets in line order."""
    lhs = line.split()[0]
    whys = [_why_var(p, lhs) if "/" in lhs else _why_object(p, lhs)]
    whys += [_why_object(p, t) for t in _targets(line)]
    return next((why for why in whys if why is not None), None)


def _targets(line: str) -> list[str]:
    """The target tokens of a binding line: those after a variable, or after
    an object and its field token."""
    tokens = line.split()
    return tokens[1:] if "/" in tokens[0] else tokens[2:]


def _edge_texts(line: str) -> list[str]:
    """The edges of a binding line in full spelling, its key with each of
    its targets, as ``render_edge`` writes them."""
    key, *targets = line.split()
    head = f"{key} ->" if "/" in key else f"{key} {targets.pop(0)}->"
    return [f"{head} {t}" for t in targets]


def _line_edges(line: str) -> list:
    """The edges of a binding line in full spelling: its key with each of
    its targets."""
    return [parse_edge_line(text) for text in _edge_texts(line)]


def _reference_outcome(p: Program, text: str, memo: dict[str, str | None]):
    """What decoding ``text`` against ``p`` must give: the exception it
    raises, or the artwork.  ``text`` is a valid artifact with binding lines
    inserted into its blocks, so its only possible syntax errors are a
    field edge out of null, a target written twice (in full and scoped) and
    an edit that adds an edge an inserted line put in the entry before.  ``memo`` keeps each line's verdict."""
    lines = text.split("\n")[:-1]
    entries: list[tuple[str, str | None]] = []  # (where, why), in file order
    section = why = None
    edges: set = set()  # the entry before's
    i = 1
    while i < len(lines):
        line = lines[i]
        i += 1
        if line in ("[loop]", "[in]", "[out]"):
            section = line[1:-1]
            continue
        found = re.fullmatch(r"(\w+)(?::(\d+))? (\{|\^)", line)
        where = f"[{section}] {found[1]}" + ("" if found[2] is None else f":{found[2]}")
        j = i
        while j < len(lines) and lines[j][:2] in ("  ", "- ", "+ "):
            j += 1
        own = [e[:2] + _full(e[2:], found[1]) for e in lines[i:j]]
        if found[3] == "{":
            for e, written in zip(own, lines[i:j]):  # the first line at fault
                if e.startswith("  null ."):
                    return MalformedArtworkError("field edge with null source")
                targets = _targets(e[2:])
                for k, target in enumerate(targets):
                    if target in targets[:k]:  # written two ways: m:1 and :1
                        return MalformedArtworkError(
                            f"repeated target {_targets(written[2:])[k]} in edge line {written[2:]!r}"
                        )
            edges = {edge for e in own for edge in _line_edges(e[2:])}
            why = None
            i = j + 1  # the closing brace
        else:  # "^": the edges and the verdict of the entry before, then the edits
            for e in own:
                edge_texts = _edge_texts(e[2:])
                changed = [parse_edge_line(t) for t in edge_texts]
                for edge, edge_text in zip(changed, edge_texts):  # each target in line order
                    if (edge in edges) == (e[0] == "+"):
                        verb = "adds a present" if e[0] == "+" else "removes an absent"
                        return MalformedArtworkError(f"edit {verb} edge '{edge_text}'")
                edges ^= set(changed)
            i = j
        for e in own:
            if why is not None:
                break
            if e[2:] not in memo:
                memo[e[2:]] = _why_line(p, e[2:])
            why = memo[e[2:]]
        entries.append((where, why))
    for where, why in entries:
        if why is not None:
            return UnknownReferenceError(f"{where}: {why}")
    return parse_artwork(text.encode())


# ---------------------------------------------------------------------------
# Seeded binding lines
# ---------------------------------------------------------------------------


def _names(p: Program, rng: random.Random) -> tuple[list[str], list[str]]:
    """Variables and objects, known and unknown, rendered as binding lines
    write them."""
    variables: list[str] = []
    objects = ["null"]
    for m in p.methods:
        variables += [f"{m.name}/0", f"{m.name}/{m.var_count}", f"{m.name}/{m.var_count + 1}"]
        variables.append(f"{m.name}/{rng.randrange(m.var_count + 1)}")
        objects += [f"{m.name}?{k}" for k in range(len(m.params) + 1)]
        allocs = [s.label for s in m.body if isinstance(s.instr, Alloc)]
        others = [s.label for s in m.body if not isinstance(s.instr, Alloc)]
        objects += [f"{m.name}:{label}" for label in rng.sample(allocs, min(3, len(allocs)))]
        objects += [f"{m.name}:{label}" for label in rng.sample(others, min(2, len(others)))]
        objects.append(f"{m.name}:{max((s.label for s in m.body), default=0) + 1}")
    variables += ["nosuch/0", "nosuch/1"]
    objects += ["nosuch?0", "nosuch:1"]
    return variables, objects


def _edge_line(variables: list[str], objects: list[str], rng: random.Random) -> str:
    """A binding line with one to three distinct targets."""
    targets = " ".join(rng.sample(objects, rng.choice((1, 1, 2, 3))))
    if rng.random() < 0.5:
        return f"  {rng.choice(variables)} {targets}"
    src = rng.choice(objects)
    if src == "null" and rng.random() < 0.8:  # keep syntax errors rare
        src = rng.choice(objects)
    return f"  {src} .{rng.choice(['f', 'g', 'next'])} {targets}"


def _insert(text: str, new_lines: list[str], rng: random.Random) -> str:
    """``text`` with each of ``new_lines`` inserted into a graph picked at
    random: an entry's block, at any position in it."""
    lines = text.split("\n")
    for new in new_lines:
        head = rng.choice([k for k, line in enumerate(lines) if line.endswith(" {")])
        end = head + 1
        while lines[end].startswith("  "):
            end += 1
        lines.insert(rng.randint(head + 1, end), new)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def artifacts():
    """(program, artifact text): plain and optimized artifacts of default- and
    roundtrip-large-shape programs at seeds 1 and 90917."""
    out = []
    for seed in SEEDS:
        small = generate_corpus(CorpusConfig(program_count=8, seed=seed))
        large = generate_corpus(CorpusConfig(program_count=2, seed=seed, **LARGE_SHAPE))
        for name, text in [*small, *(f for f in large if f[0].startswith("gen"))]:
            p = parse_program(text)
            a = emit_artwork(p, analyze_inter(p))
            for data in (encode(a), encode(optimize_artwork(p, a))):
                if b" {\n" in data:  # a graph to insert into
                    out.append((p, data.decode()))
    return out


def _outcome(p: Program, text: str):
    try:
        return decode(text.encode(), p)
    except (MalformedArtworkError, UnknownReferenceError) as exc:
        return exc


def _same(got, want) -> bool:
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return not isinstance(got, Exception) and got == want


def test_the_artifacts_cover_repeats_in_both_shapes(artifacts):
    for large in (False, True):
        assert any(
            " ^\n" in text
            for p, text in artifacts
            if (len(p.methods) == 1 and len(p.methods[0].body) > 200) == large
        )


def test_decode_agrees_with_the_reference_rules_on_inserted_edge_lines(artifacts):
    rng = random.Random(15)
    kinds = set()
    for p, text in artifacts:
        variables, objects = _names(p, rng)
        # scoped texts, read against the method of the entry they land in
        variables += ["/0", "/1", "/9999"]
        objects += [":1", ":2", ":9999", "?0", "?1"]
        memo: dict[str, str | None] = {}
        for _ in range(TRIALS_PER_ARTIFACT):
            new = [_edge_line(variables, objects, rng) for _ in range(rng.choice((1, 1, 2, 3)))]
            mutated = _insert(text, new, rng)
            want = _reference_outcome(p, mutated, memo)
            got = _outcome(p, mutated)
            assert _same(got, want), (new, got, want)
            if isinstance(want, Exception):  # the reason, without the names
                kinds.add(re.sub(r" \S*[0-9].*", "", str(want).split(": ")[-1]))
            else:
                kinds.add("ok")
    # every verdict the rules can give came up
    assert kinds == {
        "ok", "unknown variable slot", "unknown placeholder", "object", "field edge with null source",
        "edit adds a present edge", "repeated target",
    }


def _parse_name(text: str):
    if "/" in text:
        return parse_edge_line(f"{text} -> null")[0]
    return parse_object(text)


def test_the_table_accepts_exactly_what_the_rules_accept(artifacts):
    rng = random.Random(3)
    for p, _ in artifacts:
        table = identifiers(p)
        ids = {k: o for k, o in table.items() if not isinstance(k, str)}
        assert all(k is o for k, o in ids.items())
        assert NULL_OBJECT not in ids and "null" not in table
        assert len(ids) == sum(
            m.var_count + 1 + len(m.params) + sum(isinstance(s.instr, Alloc) for s in m.body)
            for m in p.methods
        )
        # each identifier is keyed by its rendered text too, and only so
        texts = {
            (f"{o.method}/{o.slot}" if o.kind == "var" else render_object(o)): o for o in ids
        }
        assert {k: o for k, o in table.items() if isinstance(k, str)} == texts
        assert all(table[k] is o for k, o in texts.items())
        variables, objects = _names(p, rng)
        for text in variables:
            assert (_parse_name(text) in ids) == (_why_var(p, text) is None), text
        for text in objects:
            if text != "null":
                assert (_parse_name(text) in ids) == (_why_object(p, text) is None), text
        for o in ids:  # every entry is one the rules accept
            text = f"{o.method}/{o.slot}" if o.kind == "var" else render_object(o)
            assert (_why_var if o.kind == "var" else _why_object)(p, text) is None
        # the scoped tables hold each identifier once, under its method, by
        # its full text without the method's name
        full, scoped = identifier_tables(p)
        assert full == table and scoped.keys() == {m.name for m in p.methods}
        assert sum(map(len, scoped.values())) == len(ids)
        for name, own in scoped.items():
            assert all(full[name + text] is o and o.method == name for text, o in own.items())


def test_the_table_lists_sites_in_the_order_tamper_draws_them(artifacts):
    for p, _ in artifacts:
        sites = [o for o in identifiers(p) if isinstance(o, Site)]
        assert sites == [
            Site(m.name, s.label) for m in p.methods for s in m.body if isinstance(s.instr, Alloc)
        ]


def _identifiers_held(a) -> list:
    """Every variable and object the graphs of ``a`` hold, with repeats."""
    out = []
    for g in [*a.i_loop.values(), *a.i_in.values(), *a.i_out.values()]:
        for v, objs in g._vars.items():
            out += [v, *objs]
        for src, fields in g._heap.items():
            out.append(src)
            for targets in fields.values():
                out += targets
    return out


def _assert_one_object_per_identifier(a) -> None:
    first: dict = {}
    for o in _identifiers_held(a):
        assert first.setdefault(o, o) is o, o


def test_a_decoded_artifact_holds_one_object_per_identifier(artifacts):
    for p, text in artifacts:
        _assert_one_object_per_identifier(decode(text.encode(), p))
    p = parse_program(
        "method main() {\n  1: x = new C\n  2: x = new D\n  3: call [foo](x)\n}\n"
        "method foo(p) {\n  1: return\n}\n"
    )
    text = (
        "ART/5\n[loop]\nmain:1 {\n  main/0 main:1\n  main:1 .f main:2\n}\n"
        "main:2 ^\n[in]\nfoo {\n  foo/0 main:2\n  main/0 main:2\n  main:2 .f main:1\n}\n"
        "main {\n  main/0 main:1\n  main:1 .f main:2\n}\n[out]\n"
    )
    a = decode(text.encode(), p)
    _assert_one_object_per_identifier(a)
    assert len(_identifiers_held(a)) > len(set(_identifiers_held(a)))
