"""Acceptance suite: every criterion prints one PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them) and fails the build when
its stated tolerance is missed.  All comparisons are exact graph equality
unless a criterion says otherwise."""

import math
import random
import time

import pytest

from artpta import (
    ARITH,
    LOOPY,
    REC,
    NULL_OBJECT,
    Artwork,
    CorpusConfig,
    Placeholder,
    PointsToGraph,
    Site,
    TamperKind,
    VarId,
    analyze_inter,
    build_call_graph,
    build_cfg,
    chaotic_oracle,
    decode,
    emit_artwork,
    encode,
    generate_corpus,
    meet,
    meet_all,
    naive_encode,
    optimize_artwork,
    parse_program,
    print_program,
    regen_inter,
    rq2_campaign,
    subsumes,
    tamper,
    transfer,
)
from artpta.ir import LabeledStatement, Alloc, AssignNull, Copy, FieldLoad, FieldStore, Nop, Return
from artpta.ir import Method, Program, ProgramIndex
from artpta.ptg import var_id
from artpta.errors import NothingToTamperError
from helpers import only_empty_entries

SEED = 2024
CORPUS_SIZE = 50


def report(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: {verdict} - {description}{suffix}")
    assert ok, f"criterion {criterion} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def corpus():
    files = generate_corpus(CorpusConfig(program_count=CORPUS_SIZE, seed=SEED))
    entries = []
    for name, text in files:
        p = parse_program(text)
        r = analyze_inter(p)
        entries.append((name, p, r, emit_artwork(p, r)))
    return entries


def test_criterion_1_regeneration_fidelity():
    started = time.monotonic()
    files = generate_corpus(CorpusConfig(program_count=CORPUS_SIZE, seed=SEED))
    assert any(n == "loopy.ir" for n, _ in files) and any(n == "rec.ir" for n, _ in files)
    ok = True
    for name, text in files:
        p = parse_program(text)
        r = analyze_inter(p)
        a = decode(encode(emit_artwork(p, r)), p)
        outcome = regen_inter(p, a)
        if not (outcome.safe and outcome.result.same_values(r)):
            ok = False
            break
    elapsed = time.monotonic() - started
    report(
        1,
        "consumer regenerates producer results exactly on fixtures + corpus",
        ok and elapsed < 10.0,
        f"{len(files)} programs in {elapsed:.2f}s",
    )


def test_criterion_2_oracle_equivalence(corpus):
    ok = all(r.same_values(chaotic_oracle(p)) for _, p, r, _ in corpus)
    report(2, "worklist producer equals chaotic-iteration oracle exactly", ok,
           f"{len(corpus)} programs")


def test_criterion_3_tamper_detection(corpus):
    total = detected = 0
    skipped = []
    for i, (name, p, _, a) in enumerate(corpus):
        try:
            report_ = rq2_campaign(p, a, 10, seed=1000 + i)
        except NothingToTamperError:
            # Every entry is empty (each loop adds nothing its header's
            # flow equation does not derive): no reduction exists.
            assert only_empty_entries(a), name
            skipped.append(name)
            continue
        total += report_.n
        detected += report_.detected
    report(
        3,
        "every reductive tampering detected (10 trials per program)",
        detected == total and total >= 500 and len(skipped) == 2,
        f"{detected}/{total} detected; {len(skipped)} programs with only empty entries: {', '.join(skipped)}",
    )


def test_criterion_4_conservative_soundness(corpus):
    trials = 0
    ok = True
    oracle_cache = {}
    i = 0
    while trials < 100:
        name, p, r, a = corpus[i % len(corpus)]
        i += 1
        mutated, _ = tamper(a, TamperKind.ADD_EDGE, seed=4000 + i, program=p)
        outcome = regen_inter(p, mutated)
        if name not in oracle_cache:
            oracle_cache[name] = chaotic_oracle(p)
        oracle = oracle_cache[name]
        if not outcome.safe or not all(
            subsumes(outcome.result.out[k], oracle.out[k]) for k in oracle.out
        ):
            ok = False
            break
        trials += 1
    report(4, "100 conservative edge additions all safe and oracle-subsuming",
           ok and trials == 100, f"{trials} trials")


def test_criterion_5_default_value_rules():
    # (a) arithmetic loop entry deleted -> safe
    arith = parse_program(ARITH)
    arith_r = analyze_inter(arith)
    arith_a = emit_artwork(arith, arith_r)
    out_a = regen_inter(arith, Artwork(i_loop={}, i_in=dict(arith_a.i_in), i_out=dict(arith_a.i_out)))
    a_ok = out_a.safe and out_a.result.same_values(arith_r)
    # (b) heap-mutating loop entry deleted -> unsafe
    loopy = parse_program(LOOPY)
    loopy_a = emit_artwork(loopy, analyze_inter(loopy))
    b_ok = not regen_inter(
        loopy, Artwork(i_loop={}, i_in=dict(loopy_a.i_in), i_out=dict(loopy_a.i_out))
    ).safe
    # (c) coinciding summaries: deleted OUT entry -> safe via the IN default
    noop = parse_program("method main() {\n  1: if goto 3\n  2: call [main]()\n  3: nop\n}")
    noop_r = analyze_inter(noop)
    assert noop_r.in_summary["main"] == noop_r.out_summary["main"]
    noop_a = emit_artwork(noop, noop_r)
    assert "main" in noop_a.i_out
    c_ok = regen_inter(noop, Artwork(i_loop={}, i_in=dict(noop_a.i_in), i_out={})).safe
    # (d) differing summaries: deleted OUT entry -> unsafe
    rec = parse_program(REC)
    rec_r = analyze_inter(rec)
    rec_a = emit_artwork(rec, rec_r)
    assert rec_r.in_summary["foo"] != rec_r.out_summary["foo"]
    d_ok = not regen_inter(
        rec, Artwork(i_loop=dict(rec_a.i_loop), i_in=dict(rec_a.i_in), i_out={})
    ).safe
    report(5, "deleted-entry defaults: safe exactly when the default is the fixed point",
           a_ok and b_ok and c_ok and d_ok,
           f"a={a_ok} b={b_ok} c={c_ok} d={d_ok}")


def test_criterion_6_single_pass(corpus):
    ratios = []
    points = []
    ok = True
    for name, p, r, a in corpus:
        outcome = regen_inter(p, a)
        if not outcome.safe or any(v != 1 for v in outcome.visits.values()):
            ok = False
            break
        stmt_count = sum(len(m.body) for m in p.methods)
        if len(outcome.visits) != stmt_count:
            ok = False
            break
        has_cycle = bool(build_call_graph(p).recursive_methods) or any(
            build_cfg(m).back_edges for m in p.methods
        )
        if has_cycle and outcome.transfer_applications > r.iteration_count:
            ok = False
            break
        ratios.append(outcome.transfer_applications / r.iteration_count)
        points.append((stmt_count, outcome.transfer_applications))
    geomean = math.exp(sum(math.log(x) for x in ratios) / len(ratios)) if ratios else 1.0
    # complexity smoke check: consumer work is linear in statement count
    slope = sum(x * y for x, y in points) / sum(x * x for x, _ in points)
    linear = all(slope * x / 2 <= y <= 2 * slope * x for x, y in points)
    report(
        6,
        "single pass: every statement visited once, consumer work <= producer, linear",
        ok and geomean < 0.5 and linear,
        f"geomean ratio {geomean:.3f}, slope {slope:.2f}",
    )


def test_criterion_7_sizes(corpus):
    ok = True
    detail = ""
    for name, p, r, a in corpus:
        has_loop = any(build_cfg(m).back_edges for m in p.methods)
        art_bytes = len(encode(a))
        if has_loop and art_bytes >= len(naive_encode(r)):
            ok, detail = False, f"{name}: artwork not smaller than naive"
            break
        opt = optimize_artwork(p, a)
        opt_bytes = len(encode(opt))
        if opt_bytes > art_bytes:
            ok, detail = False, f"{name}: optimization grew the artwork"
            break
        ctx = ProgramIndex(p)

        def forward_meet(m: str, h: int) -> PointsToGraph:
            cfg = ctx.cfgs[m]
            return meet_all([r.out[(m, u)] for u in cfg.pred[h] if (u, h) not in cfg.back_edges])

        # The consumer puts a header's forward meet in place of its deleted
        # loop entry, so an entry equal to it must go.
        redundant_loop = any(g == forward_meet(m, h) for (m, h), g in a.i_loop.items())
        # A single-call-site method's IN entry is the projection at that
        # site, so it forces a reduction when the site is checked before the
        # method's own pass (its caller lies outside the method's SCC) and
        # sees the full fixed point there (it is not a loop header).
        def droppable_single_site(name: str) -> bool:
            sites = ctx.call_graph.call_sites_of(name)
            if len(sites) != 1:
                return False
            caller, label = sites[0]
            return (
                label not in ctx.cfgs[caller].loop_headers
                and caller not in ctx.call_graph.scc_of(name)
            )

        single_site = any(droppable_single_site(m.name) for m in p.methods)
        if (redundant_loop or single_site) and opt_bytes >= art_bytes:
            ok, detail = False, f"{name}: expected strict size reduction"
            break
        plain_out = regen_inter(p, decode(encode(a), p))
        opt_out = regen_inter(p, decode(encode(opt), p))
        if not (plain_out.safe and opt_out.safe
                and plain_out.result.same_values(opt_out.result)
                and plain_out.result.same_values(r)):
            ok, detail = False, f"{name}: optimized regeneration differs"
            break
    report(7, "artifact smaller than naive dump; optimizations shrink, never change results",
           ok, detail)


def test_criterion_8_motivating_examples():
    loopy = parse_program(LOOPY)
    r = analyze_inter(loopy)
    m = loopy.method("main")
    header = r.out[("main", 5)]
    c = var_id(m, "c")
    f_targets = {t for o in header.pts(c) for t in header.field_targets(o, "f")}
    tags = {m.body[t.label - 1].instr.type_tag for t in f_targets}
    three_sites_two_tags = len(f_targets) == 3 and len(tags) == 2

    a = emit_artwork(loopy, r)
    g = a.i_loop[("main", 5)]
    edge = (Site("main", 6), "f", Site("main", 3))
    tampered = Artwork(
        i_loop={("main", 5): PointsToGraph(g.var_edges, g.field_edges - {edge})},
        i_in=dict(a.i_in),
        i_out=dict(a.i_out),
    )
    out = regen_inter(loopy, tampered)
    loop_flow = (
        not out.safe
        and out.violation.kind == "LoopInvariant"
        and subsumes(out.violation.found, out.violation.expected)
        and out.violation.found != out.violation.expected
    )

    rec = parse_program(REC)
    rec_a = emit_artwork(rec, analyze_inter(rec))
    og = rec_a.i_out["foo"]
    rec_edge = (Site("foo", 5), "f", Site("foo", 4))
    rec_tampered = Artwork(
        i_loop=dict(rec_a.i_loop),
        i_in=dict(rec_a.i_in),
        i_out={"foo": PointsToGraph(og.var_edges, og.field_edges - {rec_edge})},
    )
    rec_out = regen_inter(rec, rec_tampered)
    out_flow = (
        not rec_out.safe
        and rec_out.violation.kind == "OutSummary"
        and rec_edge in rec_out.violation.found.field_edges
    )
    report(8, "motivating examples: loop fixed point shape and both detection flows",
           three_sites_two_tags and loop_flow and out_flow,
           f"sites={len(f_targets)} tags={len(tags)}")


def _random_graph(rng, vars_, sources, objects, fields):
    var_edges = {(rng.choice(vars_), rng.choice(objects)) for _ in range(rng.randrange(5))}
    field_edges = {
        (rng.choice(sources), rng.choice(fields), rng.choice(objects))
        for _ in range(rng.randrange(5))
    }
    return PointsToGraph(frozenset(var_edges), frozenset(field_edges))


def test_criterion_9_property_suite():
    main = parse_program("method main() {\n  1: nop\n}").method("main")
    # c and d are assigned at labels that no drawn statement uses
    assign_c_d = (LabeledStatement(8, Alloc("c", "A")), LabeledStatement(9, Alloc("d", "B")))

    def placed(s):
        """``s`` placed through ``parse_program`` after the assignments to
        ``c`` and ``d``, so that its method's slots are a-d = 0-3 and the
        carrier 4: the parsed statement and its method."""
        m = Method("m", ("a", "b"), assign_c_d + (s,))
        m = parse_program(print_program(Program((main, m), "main"))).method("m")
        assert m.slot_of == {"a": 0, "b": 1, "c": 2, "d": 3}
        return m.body[-1], m

    vars_ = [VarId("m", i) for i in range(4)]
    sources = [Site("m", 1), Site("m", 2), Placeholder("m", 0)]
    objects = sources + [NULL_OBJECT]
    fields = ["f", "g"]
    names = ["a", "b", "c", "d"]
    rng = random.Random(SEED)

    def rand_graph():
        return _random_graph(rng, vars_, sources, objects, fields)

    def rand_stmt():
        roll = rng.randrange(8)
        if roll == 0:
            return LabeledStatement(rng.randint(1, 3), Alloc(rng.choice(names), "T"))
        if roll == 1:
            return LabeledStatement(7, Copy(rng.choice(names), rng.choice(names)))
        if roll == 2:
            return LabeledStatement(7, AssignNull(rng.choice(names)))
        if roll == 3:
            return LabeledStatement(7, FieldStore(rng.choice(names), rng.choice(fields), rng.choice(names)))
        if roll == 4:
            return LabeledStatement(7, FieldLoad(rng.choice(names), rng.choice(names), rng.choice(fields)))
        if roll == 5:
            return LabeledStatement(7, Return(rng.choice(names)))
        return LabeledStatement(7, Nop())

    ok = True
    for _ in range(1000):  # meet laws
        a, b, c = rand_graph(), rand_graph(), rand_graph()
        if not (
            meet(a, b) == meet(b, a)
            and meet(meet(a, b), c) == meet(a, meet(b, c))
            and meet(a, a) == a
            and subsumes(meet(a, b), a)
            and subsumes(meet(a, b), b)
        ):
            ok = False
            break
    for _ in range(1000):  # subsumption is a partial order
        a, b = rand_graph(), rand_graph()
        ab = meet(a, b)
        if not (subsumes(a, a) and subsumes(ab, a) and ((a == b) == (subsumes(a, b) and subsumes(b, a)))):
            ok = False
            break
        if subsumes(a, b) and subsumes(b, ab) and not subsumes(a, ab):
            ok = False
            break
    for _ in range(1000):  # transfer monotonicity
        s, g1, extra = rand_stmt(), rand_graph(), rand_graph()
        s, m = placed(s)
        if not subsumes(transfer(s, meet(g1, extra), m), transfer(s, g1, m)):
            ok = False
            break
    rec = parse_program(REC)
    rec_vars = [VarId("main", 0), VarId("foo", 0), VarId("foo", 3), VarId("foo", 4)]
    rec_sources = [Site("foo", 4), Site("foo", 5), Placeholder("foo", 0)]
    rec_objects = rec_sources + [NULL_OBJECT]
    for i in range(1000):  # codec round-trip
        art = Artwork(
            i_loop={("foo", rng.randint(1, 9)): _random_graph(rng, rec_vars, rec_sources, rec_objects, fields)
                    for _ in range(rng.randrange(3))},
            i_in={name: _random_graph(rng, rec_vars, rec_sources, rec_objects, fields)
                  for name in ("main", "foo") if rng.random() < 0.8},
            i_out={"foo": _random_graph(rng, rec_vars, rec_sources, rec_objects, fields)}
            if rng.random() < 0.6 else {},
        )
        if decode(encode(art), rec) != art:
            ok = False
            break
    report(9, "1000 randomized cases each: lattice laws, monotonicity, codec round-trip", ok)
