"""The package makes no reference cycles: with the cyclic collector off,
``gc.collect()`` finds no unreachable object after any call of the pipeline,
on any path, a rejected input's included.  Reference counting alone frees
what these calls build, which is why the entry points pause the collector
(``ir.gc_paused``)."""

import gc

import pytest

from artpta import (
    ARITH,
    LOOPY,
    REC,
    ArtError,
    CorpusConfig,
    TamperKind,
    analyze_inter,
    decode,
    emit_artwork,
    encode,
    generate_corpus,
    optimize_artwork,
    parse_artwork,
    parse_program,
    regen_inter,
    rq2_campaign,
    tamper,
)
from artpta.tamper import REDUCTIVE_KINDS
from helpers import only_empty_entries

LARGE = {"methods_min": 1, "methods_max": 1, "stmts_min": 300, "stmts_max": 300, "recursion_prob": 1.0}


def _programs():
    texts = [("loopy", LOOPY), ("rec", REC), ("arith", ARITH)]
    for seed in (1, 90917):
        for shape, config, count in (
            ("default", {}, 3),
            ("large", LARGE, 1),
        ):
            files = generate_corpus(CorpusConfig(program_count=count, seed=seed, **config))
            texts += [(f"{shape}-{seed}-{name}", text) for name, text in files if name.startswith("gen")]
    return texts


PROGRAMS = _programs()


@pytest.fixture(autouse=True)
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _no_garbage(step):
    found = gc.collect()
    assert found == 0, f"{step}: {found} unreachable objects"


def _rejected(step, fn, *args):
    """Call ``fn``, which must raise an ``ArtError``; the error, once
    handled, must leave no cyclic garbage."""
    try:
        fn(*args)
    except ArtError:
        pass
    else:
        pytest.fail(f"{step}: accepted")
    _no_garbage(step)


@pytest.mark.parametrize("text", [t for _, t in PROGRAMS], ids=[n for n, _ in PROGRAMS])
def test_the_pipeline_makes_no_cycles(text):
    gc.collect()  # whatever the test runner left
    p = parse_program(text)
    _no_garbage("parse")
    r = analyze_inter(p)
    _no_garbage("analyze")
    a = emit_artwork(p, r)
    _no_garbage("emit")
    small = optimize_artwork(p, a)
    _no_garbage("-O")
    data = encode(a)
    encode(small)
    _no_garbage("encode")
    decoded = decode(data, p)
    parse_artwork(data)
    _no_garbage("decode")
    assert regen_inter(p, decoded).safe
    _no_garbage("regen SAFE")

    unsafe = None
    for kind in TamperKind:
        try:
            mutated, _ = tamper(a, kind, 7, program=p)
        except ArtError:  # nothing of this kind to tamper with
            continue
        _no_garbage(f"tamper {kind.value}")
        if kind in REDUCTIVE_KINDS:
            unsafe = mutated
    if unsafe is None:
        # only empty entries: no reduction exists, and rq2 says so
        assert only_empty_entries(a)
        _rejected("rq2 with nothing to reduce", rq2_campaign, p, a, 4, 1)
    else:
        assert not regen_inter(p, unsafe).safe
        _no_garbage("regen UNSAFE")
        assert not regen_inter(p, unsafe, keep_going=True).safe
        _no_garbage("regen keep_going")
        rq2_campaign(p, a, 4, 1)
        _no_garbage("rq2")

    _rejected("decode truncated", decode, data[: len(data) // 2], p)
    _rejected("decode unknown reference", decode, b"ART/5\n[loop]\n[in]\nmain {\n  /999 null\n}\n[out]\n", p)
    _rejected("decode junk line", decode, data.replace(b"\n", b"\njunk\n", 1), p)
    _rejected("decode old header", decode, data.replace(b"ART/5", b"ART/2", 1), p)


def test_only_arith_has_nothing_to_reduce():
    # the programs above whose artifacts hold only empty entries, which
    # the test above checks without a reduced artifact
    empty = []
    for name, text in PROGRAMS:
        p = parse_program(text)
        if only_empty_entries(emit_artwork(p, analyze_inter(p))):
            empty.append(name)
    assert empty == ["arith"]


BUILDER_FAULTS = {
    "read before assignment": "method main() {\n  1: x = y\n}\n",
    "return before assignment": "method main() {\n  1: return y\n}\n",
    "unknown jump label": "method main() {\n  1: goto 9\n}\n",
    "duplicate label": "method main() {\n  1: nop\n  1: nop\n}\n",
    "label not positive": "method main() {\n  0: nop\n}\n",
    "split label": "method main() {\n  1:\n    x = y\n}\n",
    "unknown call target": "method main() {\n  1: call [f]()\n}\n",
    "duplicate parameter": "method main() {\n  1: nop\n}\nmethod f(a, a) {\n  1: nop\n}\n",
    "duplicate method": "method main() {\n  1: nop\n}\nmethod main() {\n  1: nop\n}\n",
    "no entry method": "method f() {\n  1: nop\n}\n",
    "entry with parameters": "method main(a) {\n  1: nop\n}\n",
    "scanner": "method main() {\n  1: x = $\n}\n",
    "parser": "method main( {\n}\n",
    "empty": "",
}


@pytest.mark.parametrize("text", BUILDER_FAULTS.values(), ids=BUILDER_FAULTS.keys())
def test_a_rejected_program_makes_no_cycles(text):
    gc.collect()
    _rejected("parse", parse_program, text)


@pytest.mark.parametrize(
    "text",
    [
        # a cycle that is not a natural loop
        "method main() {\n  1: if goto 4\n  2: nop\n  3: goto 4\n  4: nop\n  5: if goto 2\n  6: nop\n}\n",
        # a call with one argument too many
        "method main() {\n  1: a = new A\n  2: call [h](a, a)\n}\nmethod h(p) {\n  1: nop\n}\n",
    ],
    ids=["irreducible", "arity"],
)
def test_a_program_the_analysis_rejects_makes_no_cycles(text):
    p = parse_program(text)
    gc.collect()
    _rejected("analyze", analyze_inter, p)
