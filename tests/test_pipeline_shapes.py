"""Whole-pipeline checks over structurally tricky program shapes: oracle
agreement, exact regeneration from plain and optimized artifacts, and full
campaign detection."""

import hashlib

import pytest

from artpta import (
    CorpusConfig,
    NothingToTamperError,
    analyze_inter,
    chaotic_oracle,
    decode,
    emit_artwork,
    encode,
    generate_corpus,
    optimize_artwork,
    parse_program,
    regen_inter,
    render_edges,
    rq2_campaign,
)

MUTUAL_RECURSION = """\
method main() {
  1: a = new A
  2: a.f = a
  3: call [even](a)
}
method even(x) {
  1: if goto 4
  2: y = x.f
  3: call [odd](y)
  4: return
}
method odd(z) {
  1: z.g = z
  2: if goto 4
  3: call [even](z)
  4: return
}
"""

CYCLE_THROUGH_MAIN = """\
method main() {
  1: b = new B
  2: if goto 4
  3: call [h]()
  4: b.f = b
}
method h() {
  1: c = new C
  2: if goto 4
  3: call [main]()
  4: c.g = c
}
"""

RECURSIVE_RETURN = """\
method main() {
  1: s = new S
  2: r = call [dup](s)
  3: r.f = s
}
method dup(p) {
  1: if goto 4
  2: q = call [dup](p)
  3: return q
  4: return p
}
"""

EMPTY_BODY = "method main() { }\n"

EMPTY_CALLEE = """\
method main() {
  1: call [nil]()
}
method nil() { }
"""

SHAPES = {
    "mutual-recursion": MUTUAL_RECURSION,
    "cycle-through-main": CYCLE_THROUGH_MAIN,
    "recursive-return": RECURSIVE_RETURN,
    "empty-body": EMPTY_BODY,
    "empty-callee": EMPTY_CALLEE,
}


@pytest.mark.parametrize("label", sorted(SHAPES))
def test_pipeline_shape(label):
    p = parse_program(SHAPES[label])
    r = analyze_inter(p)
    assert r.same_values(chaotic_oracle(p))
    a = emit_artwork(p, r)
    out = regen_inter(p, decode(encode(a), p))
    assert out.safe and out.result.same_values(r)
    assert all(n == 1 for n in out.visits.values())
    opt = optimize_artwork(p, a)
    assert len(encode(opt)) <= len(encode(a))
    opted = regen_inter(p, decode(encode(opt), p))
    assert opted.safe and opted.result.same_values(r)
    try:
        report = rq2_campaign(p, a, 10, seed=17)
        assert report.detected == report.n == 10
    except NothingToTamperError:
        assert all(g.is_empty() for g in a.i_in.values())
        assert not a.i_loop and not a.i_out


def test_recursive_return_summary_carries_return_edge():
    p = parse_program(RECURSIVE_RETURN)
    a = emit_artwork(p, analyze_inter(p))
    # dup's slots: p=0, q=1, return carrier=2
    assert "dup/2 -> main:1" in render_edges(a.i_out["dup"])


# ---------------------------------------------------------------------------
# Evaluation counts over both generated corpus shapes (the dominator tests'
# corpora): the producer's summed ``iteration_count`` and, for the plain and
# the ``-O`` artifacts, the consumer's summed ``transfer_applications`` and a
# digest of every ``visits`` map, its key order included.  How an engine
# walks the CFG may change; how many evaluations it makes, and where, may
# not.
# ---------------------------------------------------------------------------

LARGE_SHAPE = dict(methods_min=1, methods_max=1, stmts_min=300, stmts_max=300, recursion_prob=1.0)

# (iteration_count, plain applications, plain visits, -O applications, -O visits)
PINNED_COUNTS = {
    ("default", 1): (27277, 12838, "4b05aa91b9868fbb", 12838, "4b05aa91b9868fbb"),
    ("default", 90917): (28520, 12770, "a65edf134bd67877", 12770, "a65edf134bd67877"),
    ("roundtrip-large", 1): (8809, 6888, "62dfe341c04130be", 6888, "62dfe341c04130be"),
    ("roundtrip-large", 90917): (8787, 6856, "f6edcf2d6733ab1d", 6856, "f6edcf2d6733ab1d"),
}


#: corpus shape -> (generator settings, program count)
COUNTED_CORPORA = {"default": ({}, 200), "roundtrip-large": (LARGE_SHAPE, 20)}


@pytest.mark.parametrize("seed", [1, 90917])
@pytest.mark.parametrize("shape", sorted(COUNTED_CORPORA))
def test_evaluation_counts_are_pinned(shape, seed):
    settings, count = COUNTED_CORPORA[shape]
    evals = 0
    applications = {"plain": 0, "optimized": 0}
    visits = {"plain": hashlib.sha256(), "optimized": hashlib.sha256()}
    for name, text in generate_corpus(CorpusConfig(program_count=count, seed=seed, **settings)):
        p = parse_program(text)
        r = analyze_inter(p)
        evals += r.iteration_count
        a = emit_artwork(p, r)
        for kind, art in (("plain", a), ("optimized", optimize_artwork(p, a))):
            out = regen_inter(p, art)
            assert out.safe, (name, kind)
            applications[kind] += out.transfer_applications
            visits[kind].update(f"{name}\n".encode())
            for (method, label), n in out.visits.items():
                visits[kind].update(f"{method}:{label}={n}\n".encode())
    found = (
        evals,
        applications["plain"],
        visits["plain"].hexdigest()[:16],
        applications["optimized"],
        visits["optimized"].hexdigest()[:16],
    )
    assert found == PINNED_COUNTS[(shape, seed)]
