import pytest

from artpta import (
    EMPTY,
    NULL_OBJECT,
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
        dedup_pool=a.dedup_pool,
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
    # the optimizer must keep h's IN entry: its only call-site is a header
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
