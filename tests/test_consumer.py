import pytest

from artpta import (
    EMPTY,
    NULL_OBJECT,
    REC,
    Artwork,
    IrreducibleCfgError,
    PointsToGraph,
    Site,
    VarId,
    analyze_inter,
    analyze_intra,
    chaotic_oracle,
    emit_artwork,
    parse_program,
    regen_inter,
    regen_intra,
    subsumes,
)


def _drop_field_edge(g: PointsToGraph, edge) -> PointsToGraph:
    assert edge in g.field_edges
    return PointsToGraph(g.var_edges, g.field_edges - {edge})


def _drop_var_edge(g: PointsToGraph, edge) -> PointsToGraph:
    assert edge in g.var_edges
    return PointsToGraph(g.var_edges - {edge}, g.field_edges)


def _add_var_edge(g: PointsToGraph, edge) -> PointsToGraph:
    return PointsToGraph(g.var_edges | {edge}, g.field_edges)


def replace(a: Artwork, *, i_loop=None, i_in=None, i_out=None) -> Artwork:
    return Artwork(
        i_loop=dict(a.i_loop) if i_loop is None else i_loop,
        i_in=dict(a.i_in) if i_in is None else i_in,
        i_out=dict(a.i_out) if i_out is None else i_out,
    )


# ---------------------------------------------------------------------------
# regen_intra
# ---------------------------------------------------------------------------


def test_loop_free_method_with_empty_artwork():
    p = parse_program("method main() {\n  1: a = new A\n  2: a.f = a\n  3: b = a.f\n}")
    m = p.method("main")
    out = regen_intra(m, Artwork.empty())
    assert out.safe
    assert out.result.same_values(analyze_intra(m))


def test_loopy_intra_untampered(loopy):
    m = loopy.method("main")
    r = analyze_intra(m)
    a = emit_artwork(loopy, r)
    out = regen_intra(m, a)
    assert out.safe
    assert out.result.out == r.out  # per-statement values match exactly


def test_loopy_missing_loop_entry_detected(loopy):
    m = loopy.method("main")
    out = regen_intra(m, Artwork.empty())
    assert not out.safe
    assert out.violation.kind == "LoopInvariant"
    # the default (the header's IN) is strictly below the fixed point
    assert subsumes(out.violation.found, out.violation.expected)
    assert out.violation.found != out.violation.expected


def test_loopy_removed_object_edge_detected(loopy_pipeline):
    loopy, _, a = loopy_pipeline
    tampered = _drop_field_edge(
        a.i_loop[("main", 5)], (Site("main", 6), "f", Site("main", 3))
    )
    out = regen_inter(loopy, replace(a, i_loop={("main", 5): tampered}))
    assert not out.safe
    v = out.violation
    assert (v.kind, v.method, v.location) == ("LoopInvariant", "main", 5)
    # recomputation strictly subsumes the tampered invariant
    assert subsumes(v.found, v.expected) and v.found != v.expected
    assert (Site("main", 6), "f", Site("main", 3)) in v.found.field_edges


def test_loopy_conservative_self_edge_admitted(loopy_pipeline):
    # Adding a field self-edge over a field name the program never touches is
    # a fixed point of the loop: the body propagates it back unchanged.
    loopy, result, a = loopy_pipeline
    g = a.i_loop[("main", 5)]
    extra = (Site("main", 6), "zz", Site("main", 6))
    out = regen_inter(
        loopy,
        replace(a, i_loop={("main", 5): PointsToGraph(g.var_edges, g.field_edges | {extra})}),
    )
    assert out.safe
    oracle = chaotic_oracle(loopy)
    assert all(subsumes(out.result.out[k], oracle.out[k]) for k in oracle.out)
    assert extra in out.result.out[("main", 13)].field_edges


def test_regen_intra_rejects_calls(rec):
    with pytest.raises(ValueError):
        regen_intra(rec.method("foo"), Artwork.empty())


def test_irreducible_propagates():
    text = "method main() {\n  1: if goto 4\n  2: nop\n  3: goto 4\n  4: nop\n  5: if goto 2\n  6: nop\n}"
    with pytest.raises(IrreducibleCfgError):
        regen_inter(parse_program(text), Artwork.empty())


# ---------------------------------------------------------------------------
# regen_inter
# ---------------------------------------------------------------------------


def test_call_free_program_matches_per_method_regen():
    p = parse_program("method main() {\n  1: a = new A\n  2: a.f = a\n}")
    r = analyze_inter(p)
    a = emit_artwork(p, r)
    out = regen_inter(p, a)
    assert out.safe and out.result.same_values(r)
    # parameter-free methods make the whole-program and per-method entry
    # conventions coincide, so the intra regeneration agrees statement-wise
    intra = regen_intra(p.method("main"), a)
    assert intra.safe
    assert intra.result.out == out.result.out


def test_rec_untampered(rec_pipeline):
    rec, r, a = rec_pipeline
    out = regen_inter(rec, a)
    assert out.safe
    assert out.result.same_values(r)
    assert out.result.out_summary["foo"] == a.i_out["foo"]
    assert out.methods_analyzed == {"main", "foo"}
    assert all(n == 1 for n in out.visits.values())
    assert len(out.visits) == sum(len(m.body) for m in rec.methods)


def test_rec_out_summary_tamper_detected(rec_pipeline):
    rec, _, a = rec_pipeline
    tampered = _drop_field_edge(a.i_out["foo"], (Site("foo", 5), "f", Site("foo", 4)))
    out = regen_inter(rec, replace(a, i_out={"foo": tampered}))
    assert not out.safe
    v = out.violation
    assert (v.kind, v.method) == ("OutSummary", "foo")
    # the dropped edge is rediscovered when foo's exit is reprocessed
    assert (Site("foo", 5), "f", Site("foo", 4)) in v.found.field_edges
    assert (Site("foo", 5), "f", Site("foo", 4)) not in v.expected.field_edges


def test_rec_in_summary_tamper_detected_at_recursive_site(rec_pipeline):
    rec, _, a = rec_pipeline
    g = a.i_in["foo"]
    tampered = PointsToGraph(
        g.var_edges - {(VarId("foo", 0), Site("foo", 4))},
        g.field_edges - {(Site("foo", 4), "f", NULL_OBJECT)},
    )
    out = regen_inter(rec, replace(a, i_in={**a.i_in, "foo": tampered}))
    assert not out.safe
    v = out.violation
    assert (v.kind, v.method, v.location) == ("InSummary", "foo", "foo:7")
    assert (VarId("foo", 0), Site("foo", 4)) in v.found.var_edges  # rediscovered


def test_in_summary_widening_is_conservative(rec_pipeline):
    # An extra edge in an IN entry only loosens the subsumption check; the
    # added binding dies before any use, so the whole run stays safe and the
    # result over-approximates the least fixed point.
    rec, result, a = rec_pipeline
    widened = _add_var_edge(a.i_in["foo"], (VarId("foo", 1), Site("foo", 5)))
    out = regen_inter(rec, replace(a, i_in={**a.i_in, "foo": widened}))
    assert out.safe
    oracle = chaotic_oracle(rec)
    assert all(subsumes(out.result.out[k], oracle.out[k]) for k in oracle.out)
    assert out.result.out[("foo", 1)] != oracle.out[("foo", 1)]  # strictly above


def test_zero_arg_call_projection_passes_any_in_entry():
    text = "method main() {\n  1: if goto 3\n  2: call [main]()\n  3: nop\n}"
    p = parse_program(text)
    a = emit_artwork(p, analyze_inter(p))
    widened = replace(a, i_in={"main": PointsToGraph.of(
        field_edges=[(Site("main", 1), "f", NULL_OBJECT)])})
    # not even a valid entry for main, but projection of zero args is empty
    # and empty is subsumed by everything; the out check still runs.
    out = regen_inter(p, widened)
    assert out.violations == () or all(v.kind != "InSummary" for v in out.violations)


def test_rec_deleted_out_with_differing_summaries_detected(rec_pipeline):
    rec, r, a = rec_pipeline
    assert r.in_summary["foo"] != r.out_summary["foo"]
    out = regen_inter(rec, replace(a, i_out={}))
    assert not out.safe and out.violation.kind == "OutSummary"


def test_deleted_out_with_coinciding_summaries_safe():
    text = "method main() {\n  1: if goto 3\n  2: call [main]()\n  3: nop\n}"
    p = parse_program(text)
    r = analyze_inter(p)
    assert r.in_summary["main"] == r.out_summary["main"]
    a = emit_artwork(p, r)
    assert "main" in a.i_out
    out = regen_inter(p, replace(a, i_out={}))
    assert out.safe and out.result.same_values(r)


def test_keep_going_collects_multiple_violations(rec_pipeline):
    rec, _, a = rec_pipeline
    bad_in = _drop_var_edge(a.i_in["foo"], (VarId("foo", 0), Site("foo", 4)))
    bad_out = _drop_field_edge(a.i_out["foo"], (Site("foo", 5), "f", Site("foo", 4)))
    tampered = replace(a, i_in={**a.i_in, "foo": bad_in}, i_out={"foo": bad_out})
    aborted = regen_inter(rec, tampered)
    assert not aborted.safe and len(aborted.violations) == 1
    full = regen_inter(rec, tampered, keep_going=True)
    assert not full.safe
    assert full.violation == aborted.violation  # verdict unchanged
    assert len(full.violations) >= 2
    assert {v.kind for v in full.violations} >= {"InSummary", "OutSummary"}


def test_single_pass_and_fidelity_on_corpus(small_corpus):
    for name, p in small_corpus:
        r = analyze_inter(p)
        out = regen_inter(p, emit_artwork(p, r))
        assert out.safe, name
        assert out.result.same_values(r), name
        assert all(n == 1 for n in out.visits.values()), name
        assert out.methods_analyzed == set(p.method_names), name
        assert len(out.visits) == sum(len(m.body) for m in p.methods), name


def test_consumer_applications_bounded_by_producer(loopy_pipeline, rec_pipeline):
    for p, r, a in (loopy_pipeline, rec_pipeline):
        out = regen_inter(p, a)
        assert out.transfer_applications <= r.iteration_count


def test_call_site_as_loop_header():
    # The header's OUT is seeded from the artifact, so the callee is only
    # reached when the deferred header check re-evaluates the call; it must
    # still be analyzed exactly once and the check must pass.
    text = """\
method main() {
  1: a = new A
  2: x = call [h](a)
  3: a.f = x
  4: if goto 6
  5: goto 2
  6: nop
}
method h(p) {
  1: r = new B
  2: return r
}
"""
    p = parse_program(text)
    r = analyze_inter(p)
    a = emit_artwork(p, r)
    assert ("main", 2) in a.i_loop
    out = regen_inter(p, a)
    assert out.safe and out.result.same_values(r)
    assert all(n == 1 for n in out.visits.values())
    # the optimizer must keep h's IN entry: its stand-in is the projection
    # from the header's forward meet, which lacks the edge main:1 .f-> h:1
    # that a.f = x adds around the loop
    from artpta import optimize_artwork

    opt = optimize_artwork(p, a)
    assert "h" in opt.i_in
    out2 = regen_inter(p, opt)
    assert out2.safe and out2.result.same_values(r)


def test_multi_target_call_mixing_recursive_and_plain_edges():
    text = """\
method main() {
  1: a = new A
  2: if goto 4
  3: call [main, h]()
  4: nop
}
method h() {
  1: b = new B
  2: b.f = b
}
"""
    p = parse_program(text)
    r = analyze_inter(p)
    assert r.same_values(chaotic_oracle(p))
    out = regen_inter(p, emit_artwork(p, r))
    assert out.safe and out.result.same_values(r)
    assert all(n == 1 for n in out.visits.values())


def test_loop_body_call_site():
    # A call-site inside a loop body is evaluated once from the seeded header
    # value; its projection equals the producer's fixed-point projection, so
    # even the optimized artifact (with the callee's IN entry dropped)
    # regenerates exact results.
    text = """\
method main() {
  1: a = new A
  2: if goto 7
  3: b = new B
  4: a.f = b
  5: x = call [mk](a)
  6: goto 2
  7: y = a.f
}
method mk(p) {
  1: r = new R
  2: r.g = p
  3: return r
}
"""
    p = parse_program(text)
    r = analyze_inter(p)
    assert r.same_values(chaotic_oracle(p))
    a = emit_artwork(p, r)
    out = regen_inter(p, a)
    assert out.safe and out.result.same_values(r)
    from artpta import optimize_artwork

    opt = optimize_artwork(p, a)
    assert "mk" not in opt.i_in
    out2 = regen_inter(p, opt)
    assert out2.safe and out2.result.same_values(r)


def test_header_call_site_reduction_caught_via_back_edge_values():
    # The extra object reaches the call-site's argument only around the loop
    # and dies unused inside the callee, so neither the summary nor the loop
    # value changes; only the deferred full-predecessor projection exposes
    # the reduced IN entry.
    text = """\
method main() {
  1: v = new A
  2: x = call [sink](v)
  3: v = new B
  4: if goto 6
  5: goto 2
  6: nop
}
method sink(p) {
  1: p = null
  2: return
}
"""
    p = parse_program(text)
    r = analyze_inter(p)
    a = emit_artwork(p, r)
    assert (VarId("sink", 0), Site("main", 3)) in a.i_in["sink"].var_edges
    untampered = regen_inter(p, a)
    assert untampered.safe and untampered.result.same_values(r)
    tampered = replace(
        a,
        i_in={**a.i_in, "sink": _drop_var_edge(a.i_in["sink"], (VarId("sink", 0), Site("main", 3)))},
    )
    out = regen_inter(p, tampered)
    assert not out.safe
    assert out.violation.kind == "InSummary"
    assert (VarId("sink", 0), Site("main", 3)) in out.violation.found.var_edges


def test_header_first_statement_and_unreachable_exit():
    first = parse_program(
        "method main() {\n  1: if goto 5\n  2: a = new A\n  3: a.f = a\n  4: goto 1\n  5: nop\n}"
    )
    r = analyze_inter(first)
    out = regen_inter(first, emit_artwork(first, r))
    assert out.safe and out.result.same_values(r)
    spin = parse_program("method main() {\n  1: nop\n  2: goto 1\n}")
    r2 = analyze_inter(spin)
    out2 = regen_inter(spin, emit_artwork(spin, r2))
    assert out2.safe and out2.result.same_values(r2)
    assert out2.result.out_summary["main"] == EMPTY  # exit never reached


def test_unreached_method_gets_empty_default():
    # island is never called anywhere; the producer analyzes it with an empty
    # entry and the consumer's driver does the same.
    text = """\
method main() {
  1: a = new A
}
method island() {
  1: b = new B
  2: b.f = b
}
"""
    p = parse_program(text)
    r = analyze_inter(p)
    out = regen_inter(p, emit_artwork(p, r))
    assert out.safe and out.result.same_values(r)
    assert out.result.in_summary["island"] == EMPTY


def test_aborted_regen_counts_only_finished_evaluations(rec_pipeline, count_calls):
    # Drop one edge of foo's stored OUT summary: the check fails inside foo,
    # which main's call-site is still waiting on, so that call-site's own
    # evaluation never finishes and must not be counted.
    from artpta import ptg

    p, _, a = rec_pipeline
    edge = next(iter(a.i_out["foo"].field_edges))
    tampered = replace(a, i_out={"foo": _drop_field_edge(a.i_out["foo"], edge)})
    calls = count_calls(ptg, "transfer", "project_out")
    out = regen_inter(p, tampered)
    assert not out.safe
    assert (out.violation.kind, out.violation.method) == ("OutSummary", "foo")
    assert calls["project_out"] > 0
    assert out.transfer_applications == calls["transfer"] + calls["project_out"]


# ---------------------------------------------------------------------------
# Regeneration order, pinned
# ---------------------------------------------------------------------------

MIXED = """\
method main() {
  1: a = new A
  2: if goto 4
  3: call [main, h]()
  4: nop
}
method h() {
  1: b = new B
  2: b.f = b
}
"""

# A loop-body call with two targets, one of them self-recursive; a callee
# that calls further down; and a second call-site of one target.
NEST = """\
method main() {
  1: x = new A
  2: x.f = x
  3: if goto 6
  4: y = call [left, right](x)
  5: goto 3
  6: z = call [left](y)
}
method left(p) {
  1: q = p.f
  2: r = call [leaf](q)
  3: return r
}
method right(p) {
  1: if goto 4
  2: s = call [right](p)
  3: p.g = s
  4: return p
}
method leaf(p) {
  1: t = new T
  2: t.h = p
  3: return t
}
"""

HEADER_CALL = """\
method main() {
  1: a = new A
  2: x = call [h](a)
  3: a.f = x
  4: if goto 6
  5: goto 2
  6: nop
}
method h(p) {
  1: r = new B
  2: return r
}
"""

NEST_VISITS = [
    ("main", 1), ("main", 2), ("main", 3), ("main", 4),
    ("left", 1), ("left", 2), ("leaf", 1), ("leaf", 2), ("leaf", 3), ("left", 3),
    ("right", 1), ("right", 2), ("right", 3), ("right", 4),
    ("main", 5), ("main", 6),
]
REC_VISITS = [("main", 1), ("main", 2)] + [("foo", i) for i in range(1, 10)]


def _drop_first_edge(g: PointsToGraph) -> PointsToGraph:
    if g.field_edges:
        return _drop_field_edge(g, min(g.field_edges, key=repr))
    if g.var_edges:
        return _drop_var_edge(g, min(g.var_edges, key=repr))
    return g


def _reduced(a: Artwork) -> Artwork:
    """Every entry of ``a`` with one edge dropped."""
    return Artwork(
        i_loop={k: _drop_first_edge(g) for k, g in a.i_loop.items()},
        i_in={k: _drop_first_edge(g) for k, g in a.i_in.items()},
        i_out={k: _drop_first_edge(g) for k, g in a.i_out.items()},
    )


def _trace(out) -> tuple:
    return (
        list(out.visits),
        [(v.kind, v.method, v.location) for v in out.violations],
        out.transfer_applications,
        out.methods_analyzed,
    )


@pytest.mark.parametrize(
    "text, prepare, keep_going, expected",
    [
        (REC, None, False, (REC_VISITS, [], 11, {"main", "foo"})),
        (REC, _reduced, True, (
            REC_VISITS, [("InSummary", "foo", "foo:7"), ("OutSummary", "foo", "foo")],
            11, {"main", "foo"})),
        (REC, _reduced, False, (
            REC_VISITS[:9], [("InSummary", "foo", "foo:7")], 7, {"main", "foo"})),
        (MIXED, None, False, (
            [("main", 1), ("main", 2), ("main", 3), ("h", 1), ("h", 2), ("main", 4)],
            [], 6, {"main", "h"})),
        (NEST, None, False, (NEST_VISITS, [], 17, {"main", "left", "right", "leaf"})),
        (NEST, "optimize", False, (NEST_VISITS, [], 17, {"main", "left", "right", "leaf"})),
        (NEST, _reduced, True, (
            NEST_VISITS,
            [("InSummary", "right", "main:4"), ("InSummary", "leaf", "left:2"),
             ("LoopInvariant", "main", 3)],
            17, {"main", "left", "right", "leaf"})),
        (NEST, _reduced, False, (
            NEST_VISITS[:4], [("InSummary", "right", "main:4")], 3, {"main"})),
        # the header call is evaluated in the pass, so its callee comes first
        (HEADER_CALL, None, False, (
            [("main", 1), ("main", 2), ("h", 1), ("h", 2)] + [("main", i) for i in range(3, 7)],
            [], 9, {"main", "h"})),
    ],
    ids=[
        "rec", "rec-reduced-keep-going", "rec-reduced", "mixed", "nest", "nest-optimized",
        "nest-reduced-keep-going", "nest-reduced", "header-call",
    ],
)
def test_regeneration_order_is_pinned(text, prepare, keep_going, expected):
    from artpta import optimize_artwork

    p = parse_program(text)
    a = emit_artwork(p, analyze_inter(p))
    if prepare == "optimize":
        a = optimize_artwork(p, a)
        assert "right" not in a.i_in  # pinned at its first call-site, main:4
    elif prepare is not None:
        a = prepare(a)
    assert _trace(regen_inter(p, a, keep_going=keep_going)) == expected


# ---------------------------------------------------------------------------
# Acceptance theorem: an accepted artifact regenerates a fixed point that
# subsumes the least one
# ---------------------------------------------------------------------------


def _objects_and_fields(p):
    from artpta.ir import Alloc, FieldLoad, FieldStore

    sites = [Site(m.name, s.label) for m in p.methods for s in m.body if isinstance(s.instr, Alloc)]
    fields = sorted(
        {s.instr.f for m in p.methods for s in m.body if isinstance(s.instr, (FieldStore, FieldLoad))}
    )
    return sites, sites + [NULL_OBJECT], fields


def _mutate(p, a: Artwork, rng) -> Artwork:
    """One seeded edit of ``a`` that is not re-closed over the program: delete
    a whole entry, remove one edge from it, or add one edge to it."""
    sections = {"loop": dict(a.i_loop), "in": dict(a.i_in), "out": dict(a.i_out)}
    keys = [(s, k) for s in sections for k in sorted(sections[s], key=repr)]
    if not keys:
        return a
    section, key = rng.choice(keys)
    entries = sections[section]
    g = entries[key]
    roll = rng.random()
    if roll < 0.2:
        del entries[key]
    elif roll < 0.55:
        edges = sorted(g.var_edges, key=repr) + sorted(g.field_edges, key=repr)
        if edges:
            e = rng.choice(edges)
            entries[key] = _drop_var_edge(g, e) if len(e) == 2 else _drop_field_edge(g, e)
    else:
        sites, objects, fields = _objects_and_fields(p)
        m = p.method(key[0] if section == "loop" else key)
        if fields and sites and rng.random() < 0.5:
            edge = (rng.choice(sites), rng.choice(fields), rng.choice(objects))
            entries[key] = PointsToGraph(g.var_edges, g.field_edges | {edge})
        elif m.var_count:
            entries[key] = _add_var_edge(
                g, (VarId(m.name, rng.randrange(m.var_count)), rng.choice(objects))
            )
    return Artwork(i_loop=sections["loop"], i_in=sections["in"], i_out=sections["out"])


def test_accepted_artifacts_are_fixed_points_above_the_least(small_corpus):
    import random

    from artpta import optimize_artwork, validate_result

    programs = [p for _, p in small_corpus]
    programs += [parse_program(t) for t in (MIXED, NEST, HEADER_CALL)]
    rng = random.Random(20061)
    accepted = strictly_above = 0
    for p in programs:
        oracle = chaotic_oracle(p)
        plain = emit_artwork(p, oracle)
        for a in (plain, optimize_artwork(p, plain)):
            for _ in range(100):
                mutated = a
                for _ in range(rng.randint(1, 3)):
                    mutated = _mutate(p, mutated, rng)
                out = regen_inter(p, mutated)
                if not out.safe:
                    continue
                accepted += 1
                assert validate_result(p, out.result) == [], mutated
                assert all(subsumes(out.result.out[k], oracle.out[k]) for k in oracle.out)
                strictly_above += out.result.out != oracle.out
    # The trial set must exercise the theorem, not just the detector.
    assert accepted >= 400 and strictly_above >= 150, (accepted, strictly_above)
