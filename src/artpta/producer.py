"""Least fixed-point producer: flow-sensitive, context-insensitive points-to
analysis, an independent chaotic-iteration oracle, and artifact emission.

``analyze_inter`` runs a statement-level worklist (reverse post-order) inside
a method-level worklist (call-graph SCCs bottom-up).  ``chaotic_oracle``
computes the same least fixed point by plain round-robin sweeps and exists
only to cross-check the worklist engine.  Both evaluate the same flow
equations from ``equations``: per-statement transfer functions,
``OUT[call] = project_out(meet of target summaries, call, IN[call])``,
``in_summary[M] = meet of project_in over all call-sites of M`` (empty for
the entry method), and ``out_summary[M]`` the return/heap restriction of M's
Exit value.

A produce runs one fixed-point analysis: ``optimize_artwork`` reads the
call-site values it needs off the consumer's single-pass regeneration of the
artifact it shrinks (``consumer.regenerate``).  The producer depends on the
consumer, never the reverse.
"""

from __future__ import annotations

import heapq

from .artwork import Artwork, _pool_saving
from .consumer import regenerate
from .equations import AnalysisResult, PointKey, callee_in, eval_statement, in_value
from .errors import ArtError
from .ir import ENTRY, EXIT, REF_INSTRS, Call, Method, Program, ProgramIndex

# ``transfer`` is not called here; it stays bound because the benchmark's
# tracer self-test patches ``producer.transfer``.
from .ptg import (
    EMPTY,
    PointsToGraph,
    entry_graph,
    meet,
    restrict_to_summary,
    subsumes,
    transfer,
)


def _method_pass(
    index: ProgramIndex,
    name: str,
    entry_out: PointsToGraph,
    out_summary: dict[str, PointsToGraph],
    inj_loop: dict[tuple[str, int], PointsToGraph],
    out: dict[PointKey, PointsToGraph],
) -> int:
    """Run one method's statements to a local fixed point (worklist in
    reverse post-order), then refresh its Exit value.  A statement's OUT
    also holds its ``inj_loop`` seed.  Returns the evaluation count."""
    m = index.methods[name]
    cfg = index.cfgs[name]
    stmts = index.stmts[name]
    evals = 0
    out[(name, ENTRY)] = entry_out
    order = [s.label for b in cfg.topo_order for s in b.statements]
    rank = {label: i for i, label in enumerate(order)}
    heap = list(range(len(order)))
    heapq.heapify(heap)
    queued = set(order)
    while heap:
        label = order[heapq.heappop(heap)]
        if label not in queued:
            continue
        queued.discard(label)
        in_g = in_value(index, out, name, label)
        evals += 1
        new = eval_statement(stmts[label], in_g, m, out_summary.__getitem__)
        extra = inj_loop.get((name, label))
        if extra is not None:
            new = meet(new, extra)
        if new != out.get((name, label)):
            out[(name, label)] = new
            for v in cfg.succ[label]:
                if v != EXIT and v not in queued:
                    queued.add(v)
                    heapq.heappush(heap, rank[v])
    out[(name, EXIT)] = in_value(index, out, name, EXIT)
    return evals


def analyze_intra(m: Method) -> AnalysisResult:
    """Intra-procedural least fixed point for a call-free method.

    The Entry value maps each reference parameter to its placeholder object.
    """
    if any(isinstance(s.instr, Call) for s in m.body):
        raise ValueError(f"method '{m.name}' contains calls; use analyze_inter")
    return analyze_inter(Program((m,), m.name), _inject={"in": {m.name: entry_graph(m)}})


Injection = dict[str, dict]


def analyze_inter(program: Program, _inject: Injection | None = None) -> AnalysisResult:
    """Whole-program least fixed point over the call graph.

    ``_inject`` seeds extra graph content at specific result locations
    ({"loop": {(m, label): g}, "in": {m: g}, "out": {m: g}}) and computes the
    least fixed point above those seeds; it exists for conservative artifact
    mutation and for ``analyze_intra``'s placeholder Entry value, and is not
    part of the analysis proper.
    """
    index = ProgramIndex.of(program)
    inj = _inject or {}
    inj_loop: dict[tuple[str, int], PointsToGraph] = dict(inj.get("loop", {}))
    inj_in: dict[str, PointsToGraph] = dict(inj.get("in", {}))
    inj_out: dict[str, PointsToGraph] = dict(inj.get("out", {}))

    in_summary = {n: inj_in.get(n, EMPTY) for n in index.methods}
    out_summary = {n: inj_out.get(n, EMPTY) for n in index.methods}
    out: dict[PointKey, PointsToGraph] = {}
    evals = 0

    order = index.call_graph.bottom_up_order()
    rank = {n: i for i, n in enumerate(order)}
    heap: list[int] = list(range(len(order)))
    heapq.heapify(heap)
    queued = set(order)

    def push(name: str) -> None:
        if name not in queued:
            queued.add(name)
            heapq.heappush(heap, rank[name])

    while heap:
        name = order[heapq.heappop(heap)]
        if name not in queued:
            continue
        queued.discard(name)
        m = index.methods[name]
        evals += _method_pass(index, name, in_summary[name], out_summary, inj_loop, out)

        new_sum = restrict_to_summary(out[(name, EXIT)], m)
        if not subsumes(out_summary[name], new_sum):
            out_summary[name] = meet(out_summary[name], new_sum)
            for caller in index.call_graph.callers_of(name):
                push(caller)

        for s in m.body:
            if not isinstance(s.instr, Call):
                continue
            in_g = in_value(index, out, name, s.label)
            for t in s.instr.targets:
                contrib = callee_in(index, name, s, in_g, t)
                if not subsumes(in_summary[t], contrib):
                    in_summary[t] = meet(in_summary[t], contrib)
                    push(t)

    return AnalysisResult(
        out=out,
        in_summary=in_summary,
        out_summary=out_summary,
        iteration_count=evals,
    )


def chaotic_oracle(program: Program) -> AnalysisResult:
    """Independent oracle: evaluate every flow equation of every method
    round-robin until a full sweep changes nothing.  No worklist, no
    ordering cleverness; must agree exactly with ``analyze_inter``."""
    index = ProgramIndex.of(program)
    out: dict[PointKey, PointsToGraph] = {}
    for m in program.methods:
        out[(m.name, ENTRY)] = EMPTY
        out[(m.name, EXIT)] = EMPTY
        for s in m.body:
            out[(m.name, s.label)] = EMPTY
    in_summary = {n: EMPTY for n in index.methods}
    out_summary = {n: EMPTY for n in index.methods}
    evals = 0

    changed = True
    while changed:
        changed = False
        for m in program.methods:
            name = m.name
            if out[(name, ENTRY)] != in_summary[name]:
                out[(name, ENTRY)] = in_summary[name]
                changed = True
            for s in m.body:
                in_g = in_value(index, out, name, s.label)
                evals += 1
                new = eval_statement(s, in_g, m, out_summary.__getitem__)
                if new != out[(name, s.label)]:
                    out[(name, s.label)] = new
                    changed = True
            exit_g = in_value(index, out, name, EXIT)
            if out[(name, EXIT)] != exit_g:
                out[(name, EXIT)] = exit_g
                changed = True
            new_sum = restrict_to_summary(exit_g, m)
            if out_summary[name] != new_sum:
                out_summary[name] = new_sum
                changed = True
        new_in = {n: EMPTY for n in index.methods}
        for m in program.methods:
            for s in m.body:
                if not isinstance(s.instr, Call):
                    continue
                in_g = in_value(index, out, m.name, s.label)
                for t in s.instr.targets:
                    new_in[t] = meet(new_in[t], callee_in(index, m.name, s, in_g, t))
        for name in index.methods:
            if in_summary[name] != new_in[name]:
                in_summary[name] = new_in[name]
                changed = True

    return AnalysisResult(
        out=out,
        in_summary=in_summary,
        out_summary=out_summary,
        iteration_count=evals,
    )


def validate_result(
    program: Program, result: AnalysisResult, exact_in: bool = True
) -> list[str]:
    """Check every flow equation against ``result``; returns the violations
    as strings (empty list when the result is a fixed point).

    With ``exact_in=False`` the per-method IN summaries may strictly subsume
    the meet of their call-site projections (a conservative fixed point);
    everything else must hold exactly.
    """
    index = ProgramIndex.of(program)
    problems: list[str] = []
    joined_in = {n: EMPTY for n in index.methods}

    def summary_of(t: str) -> PointsToGraph:
        return result.out_summary.get(t, EMPTY)

    for m in program.methods:
        name = m.name
        if result.out.get((name, ENTRY)) != result.in_summary.get(name):
            problems.append(f"{name}: entry value differs from IN summary")
        for s in m.body:
            in_g = in_value(index, result.out, name, s.label)
            if isinstance(s.instr, Call):
                for t in s.instr.targets:
                    joined_in[t] = meet(joined_in[t], callee_in(index, name, s, in_g, t))
            expect = eval_statement(s, in_g, m, summary_of)
            if result.out.get((name, s.label)) != expect:
                problems.append(f"{name}:{s.label}: OUT does not satisfy its equation")
        exit_g = in_value(index, result.out, name, EXIT)
        if result.out.get((name, EXIT)) != exit_g:
            problems.append(f"{name}: exit value differs from meet of predecessors")
        if result.out_summary.get(name) != restrict_to_summary(exit_g, m):
            problems.append(f"{name}: OUT summary differs from restricted exit value")
    for name in index.methods:
        have = result.in_summary.get(name, EMPTY)
        if exact_in:
            if have != joined_in[name]:
                problems.append(f"{name}: IN summary differs from call-site meet")
        elif not subsumes(have, joined_in[name]):
            problems.append(f"{name}: IN summary does not cover call-site meet")
    return problems


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------


def emit_artwork(program: Program, result: AnalysisResult) -> Artwork:
    """Encode the compact artifact: fixed-point OUT of every natural-loop
    header, the IN summary of every method, and the OUT summary of every
    method on a call-graph cycle."""
    problems = validate_result(program, result, exact_in=False)
    if problems:
        raise ArtError("result does not satisfy the flow equations: " + problems[0])
    index = ProgramIndex.of(program)
    i_loop = {
        (m.name, h): result.out[(m.name, h)]
        for m in program.methods
        for h in sorted(index.cfgs[m.name].loop_headers)
    }
    i_in = {m.name: result.in_summary[m.name] for m in program.methods}
    i_out = {
        m.name: result.out_summary[m.name]
        for m in program.methods
        if index.call_graph.is_recursive_method(m.name)
    }
    return Artwork(i_loop=i_loop, i_in=i_in, i_out=i_out, dedup_pool=None)


def optimize_artwork(program: Program, a: Artwork) -> Artwork:
    """Shrink a producer-emitted artifact without changing what the consumer
    regenerates: drop loop entries for heap-free loop bodies, IN entries whose
    call-site projections are all identical (or absent), OUT entries equal to
    the IN entry, then share duplicated graphs through an indexed pool when
    that makes the encoding smaller.

    The call-site projections are read off the consumer's regeneration of
    ``a``, which is exactly the fixed point ``a`` encodes, so no analysis is
    re-run.  The regeneration happens only when some IN entry passes the
    loop-header and SCC filters below; an artifact it rejects raises
    ``ArtError``."""
    index = ProgramIndex.of(program)
    regenerated: AnalysisResult | None = None  # computed on first need

    i_loop = dict(a.i_loop)
    for (name, header) in list(i_loop):
        body = index.cfgs[name].loop_body(header)
        if not any(isinstance(index.stmts[name][l].instr, REF_INSTRS) for l in body):
            del i_loop[(name, header)]

    i_in = dict(a.i_in)
    for name in list(i_in):
        sites = index.call_graph.call_sites_of(name)
        if not sites:
            if i_in[name].is_empty():
                del i_in[name]
            continue
        # The consumer re-derives a dropped IN entry from the first call-site
        # it encounters, so dropping is only sound when every call-site sees
        # the full fixed-point value there: no call-site may be a loop header
        # (checked against forward predecessors only), and at least one must
        # lie outside the method's own SCC (a purely self-feeding IN summary
        # cannot be bootstrapped without the stored value).
        scc = index.call_graph.scc_of(name)
        if any(label in index.cfgs[caller].loop_headers for caller, label in sites):
            continue
        if not any(caller not in scc for caller, _ in sites):
            continue
        if regenerated is None:
            outcome = regenerate(index, a)
            if not outcome.safe:
                raise ArtError("artifact does not regenerate: " + outcome.violation.describe())
            regenerated = outcome.result
        projections = [
            callee_in(
                index,
                caller,
                index.stmts[caller][label],
                in_value(index, regenerated.out, caller, label),
                name,
            )
            for caller, label in sites
        ]
        if all(p == projections[0] for p in projections) and projections[0] == i_in[name]:
            del i_in[name]

    i_out = dict(a.i_out)
    for name in list(i_out):
        if i_out[name] == a.i_in.get(name):
            del i_out[name]

    ordered: list[PointsToGraph] = [g for _, g in sorted(i_loop.items())]
    ordered += [g for _, g in sorted(i_in.items())]
    ordered += [g for _, g in sorted(i_out.items())]
    counts: dict[PointsToGraph, int] = {}  # first-seen order
    for g in ordered:
        counts[g] = counts.get(g, 0) + 1
    pool = tuple(g for g, n in counts.items() if n >= 2 and not g.is_empty())
    if pool and _pool_saving(pool, counts) > 0:
        return Artwork(i_loop=i_loop, i_in=i_in, i_out=i_out, dedup_pool=pool)
    return Artwork(i_loop=i_loop, i_in=i_in, i_out=i_out, dedup_pool=None)
