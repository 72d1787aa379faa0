"""Least fixed-point producer: flow-sensitive, context-insensitive points-to
analysis, an independent chaotic-iteration oracle, and artifact emission.

``analyze_inter`` runs a worklist of basic blocks, smallest block number
first (the CFG numbers its blocks in topological order), inside a
method-level worklist (call-graph SCCs bottom-up).  It steps through a block
as every engine does: the leader's input is the meet of its predecessor
blocks' last OUTs (``equations.block_in``), and each later statement's the
OUT just computed.  A method's first pass evaluates every statement.  A
re-visit is difference-driven (Pearce, Kelly & Hankin, SCAM 2003): it
evaluates only what a changed input reaches, starting from the block Entry
flows into when the method's IN summary grew and from the call statements
whose target's OUT summary grew, and afterwards re-projects into callees
only the call-sites whose state before the call changed.  ``chaotic_oracle``
computes the same least fixed point by plain round-robin sweeps over the
statement-level predecessor relation (``ControlFlowGraph.pred``) and exists
only to cross-check the worklist engine.  Both evaluate the same flow
equations from ``equations``: per-statement transfer functions,
``OUT[call] = project_out(meet of target summaries, call, IN[call])``,
``in_summary[M] = meet of project_in over all call-sites of M`` (empty for
the entry method), and ``out_summary[M]`` the return/heap restriction of M's
Exit value.

A produce runs one fixed-point analysis and no regeneration: the artwork
``emit_artwork`` returns carries its result, off which ``optimize_artwork``
reads the value the consumer would put in place of each entry; it
regenerates (``consumer.regenerate``) only an artwork whose maps are not
those of a fixed point it carries (``carried_fixed_point``).  Add-edge
tampering re-closes its seeded equations from that same fixed point.  The
producer depends on the consumer, never the reverse.
"""

from __future__ import annotations

import heapq
from itertools import chain

from .artwork import Artwork
from .consumer import regenerate
from .equations import (
    AnalysisResult,
    PointKey,
    block_in,
    callee_in,
    eval_statement,
    forward_in,
    meet_in,
    self_call,
)
from .errors import ArtError
from .ir import (
    ENTRY,
    EXIT,
    Call,
    ControlFlowGraph,
    LabeledStatement,
    Node,
    Program,
    ProgramIndex,
    gc_paused,
)

# ``transfer`` is not called here; it stays bound because the benchmark's
# tracer self-test patches ``producer.transfer``.
from .ptg import (
    EMPTY,
    PointsToGraph,
    difference,
    heap_of,
    meet,
    restrict_to_summary,
    subsumes,
    transfer,
)


def _call_inputs(cfg: ControlFlowGraph) -> list[tuple[LabeledStatement, tuple[Node, ...]]]:
    """Each call statement of ``cfg`` with the points whose OUT flows into
    it, block by block."""
    calls = []
    for block, points in zip(cfg.blocks, cfg.inputs):
        for s in block:
            if s.instr.__class__ is Call:
                calls.append((s, points))
            points = (s.label,)
    return calls


def _method_pass(
    index: ProgramIndex,
    name: str,
    seeds: set[int] | None,
    entry_out: PointsToGraph,
    out_summary: dict[str, PointsToGraph],
    inj_loop: dict[tuple[str, int], PointsToGraph],
    out: dict[PointKey, PointsToGraph],
) -> tuple[int, set[Node]]:
    """Run one method's statements to a local fixed point with a worklist of
    blocks, smallest number first: the CFG's walk order, a topological order.
    A statement's OUT also holds its ``inj_loop`` seed.

    The first visit (``seeds`` is None) evaluates every statement.  A
    re-visit starts from the previous pass's values and evaluates only what
    changed inputs reach: ``seeds`` (call statements whose target's OUT
    summary grew), the block that holds the body's first statement when
    ``entry_out`` differs from the Entry value of the last pass (that block
    need not be block 0), and then whatever follows an OUT that changes:
    the next statement of its block, or, after a block's last statement,
    the successor blocks.  Values only grow, so a statement none of whose
    inputs changed would recompute its OUT unchanged.  A block is stepped
    through in one go, so the statements evaluated, and their order, are
    those of a worklist of statements ordered block by block.  Exit is
    refreshed when one of its inputs changed.  Returns the evaluation count
    and the points whose OUT changed, Entry and Exit included."""
    m = index.methods[name]
    cfg = index.cfgs[name]
    blocks, succ = cfg.blocks, cfg.block_succ
    summary_of = out_summary.__getitem__
    evals = 0
    changed: set[Node] = set()
    if out.get((name, ENTRY)) is not entry_out:  # IN summaries grow by replacement
        out[(name, ENTRY)] = entry_out
        changed.add(ENTRY)
    # block -> the offsets evaluated whatever their input does (None: every
    # statement of the block)
    queued: dict[int, set[int] | None]
    if seeds is None:
        queued = dict.fromkeys(range(len(blocks)))
    else:
        queued = {}
        position = cfg.position
        for label in seeds:
            b, k = position[label]
            queued.setdefault(b, set()).add(k)
        if changed and m.body:
            queued.setdefault(position[m.body[0].label][0], set()).add(0)
    heap = list(queued)
    heapq.heapify(heap)
    while heap:
        b = heapq.heappop(heap)
        todo = queued.pop(b)
        stmts = blocks[b]
        start = 0 if todo is None else min(todo)
        g = block_in(cfg, out, name, b) if start == 0 else None  # stmts[k]'s input, once read
        grew = False  # the statement just evaluated changed its OUT
        for k in range(start, len(stmts)):
            s = stmts[k]
            if not (grew or todo is None or k in todo):
                g = None
                continue
            if g is None:
                g = out[(name, stmts[k - 1].label)]
            key = (name, s.label)
            evals += 1
            new = eval_statement(s, g, m, summary_of)
            extra = inj_loop.get(key)
            if extra is not None:
                new = meet(new, extra)
            g = out.get(key)
            grew = new != g
            if grew:
                g = out[key] = new
                changed.add(s.label)
        if grew:  # the block's last statement changed
            for v in succ[b]:
                if v not in queued:
                    queued[v] = {0}
                    heapq.heappush(heap, v)
                elif queued[v] is not None:
                    queued[v].add(0)
    if seeds is None or not changed.isdisjoint(cfg.exit_inputs):
        out[(name, EXIT)] = meet_in(out, name, cfg.exit_inputs)
        changed.add(EXIT)
    return evals, changed


Injection = dict[str, dict]


@gc_paused
def analyze_inter(
    program: Program, _inject: Injection | None = None, _above: AnalysisResult | None = None
) -> AnalysisResult:
    """Whole-program least fixed point over the call graph.

    ``_inject`` seeds extra graph content at specific result locations
    ({"loop": {(m, label): g}, "in": {m: g}, "out": {m: g}}) and computes the
    least fixed point above those seeds; it exists for conservative artifact
    mutation and is not part of the analysis proper.

    ``_above``, the same program's least fixed point without the seeds, is
    where such a re-closure starts instead of the empty graph: every value
    starts there, and only what the seeds touch is queued (a ``[loop]``
    seed's statement, an ``[in]`` seed's method, the call statements of an
    ``[out]`` seed's callers); every method pass is then a re-visit.  The
    start lies below the least fixed point above the seeds and below its own
    image, so the iteration ends at that least fixed point, as a run from
    the empty graph does, in fewer evaluations (incremental data-flow
    analysis; Pollock & Soffa, IEEE TSE 1989).  A seed at a point or method
    the program lacks is ignored, as on the cold path.
    """
    index = ProgramIndex.of(program)
    inj = _inject or {}
    inj_loop: dict[tuple[str, int], PointsToGraph] = dict(inj.get("loop", {}))
    inj_in: dict[str, PointsToGraph] = dict(inj.get("in", {}))
    inj_out: dict[str, PointsToGraph] = dict(inj.get("out", {}))
    evals = 0

    order = index.call_graph.bottom_up_order()
    rank = {n: i for i, n in enumerate(order)}
    heap: list[int] = []
    queued: set[str] = set()

    def push(name: str) -> None:
        if name not in queued:
            queued.add(name)
            heapq.heappush(heap, rank[name])

    # per method, each call statement with its input points, read off the
    # CFG on the method's first visit
    calls_of: dict[str, list[tuple[LabeledStatement, tuple[Node, ...]]]] = {}
    # per method, the call statements whose target's OUT summary grew since
    # the method's last pass (and, warm, the statements of its [loop] seeds)
    dirty: dict[str, set[int]] = {}

    if _above is None:
        in_summary = {n: inj_in.get(n, EMPTY) for n in index.methods}
        out_summary = {n: inj_out.get(n, EMPTY) for n in index.methods}
        out: dict[PointKey, PointsToGraph] = {}
        heap.extend(range(len(order)))
        queued.update(order)
    else:
        in_summary, out_summary, out = dict(_above.in_summary), dict(_above.out_summary), dict(_above.out)
        for name, label in inj_loop:
            if name in index.methods and label in index.cfgs[name].position:
                dirty.setdefault(name, set()).add(label)
                push(name)
        for name, g in inj_in.items():
            if name in index.methods:
                in_summary[name] = meet(in_summary[name], g)
                push(name)
        for name, g in inj_out.items():
            if name in index.methods:
                out_summary[name] = meet(out_summary[name], g)
                for caller, label in index.call_graph.call_sites_of(name):
                    dirty.setdefault(caller, set()).add(label)
                    push(caller)

    while heap:
        name = order[heapq.heappop(heap)]
        queued.discard(name)
        m = index.methods[name]
        calls = calls_of.get(name)
        first = calls is None and _above is None
        if calls is None:
            calls = calls_of[name] = _call_inputs(index.cfgs[name])
        seeds = dirty.pop(name, set())
        n, changed = _method_pass(
            index, name, None if first else seeds, in_summary[name], out_summary, inj_loop, out
        )
        evals += n

        if EXIT in changed:
            old = out_summary[name]
            out_summary[name] = meet(old, restrict_to_summary(out[(name, EXIT)], m))
            if out_summary[name] is not old:
                for caller, label in index.call_graph.call_sites_of(name):
                    dirty.setdefault(caller, set()).add(label)
                    push(caller)

        for s, points in calls:
            if not first and changed.isdisjoint(points):
                continue  # the state before the call is as last projected
            in_g = meet_in(out, name, points)
            for t in s.instr.targets:
                old = in_summary[t]
                in_summary[t] = meet(old, callee_in(index, name, s, in_g, t))
                if in_summary[t] is not old:
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

    def meet_of_preds(name: str, node: Node) -> PointsToGraph:
        # over the statement-level predecessors, not the engines' block step
        return meet_in(out, name, index.cfgs[name].pred.get(node, ()))

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
                in_g = meet_of_preds(name, s.label)
                evals += 1
                new = eval_statement(s, in_g, m, out_summary.__getitem__)
                if new != out[(name, s.label)]:
                    out[(name, s.label)] = new
                    changed = True
            exit_g = meet_of_preds(name, EXIT)
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
                in_g = meet_of_preds(m.name, s.label)
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


def validate_result(program: Program, result: AnalysisResult) -> list[str]:
    """Check every flow equation against ``result``; returns the violations
    as strings (empty list when every equation holds).

    Each per-method IN summary need only subsume the meet of its call-site
    projections, so a conservative fixed point (a re-closed add-edge
    tampering) passes; every other equation must hold exactly.  Whether the
    analysis's IN summaries are exact is a comparison with ``chaotic_oracle``.
    """
    index = ProgramIndex.of(program)
    problems: list[str] = []
    joined_in = {n: EMPTY for n in index.methods}

    def summary_of(t: str) -> PointsToGraph:
        return result.out_summary.get(t, EMPTY)

    for m in program.methods:
        name = m.name
        cfg = index.cfgs[name]
        if result.out.get((name, ENTRY)) != result.in_summary.get(name):
            problems.append(f"{name}: entry value differs from IN summary")
        for b, block in enumerate(cfg.blocks):
            in_g = block_in(cfg, result.out, name, b)
            for s in block:
                if isinstance(s.instr, Call):
                    for t in s.instr.targets:
                        joined_in[t] = meet(joined_in[t], callee_in(index, name, s, in_g, t))
                expect = eval_statement(s, in_g, m, summary_of)
                have = result.out.get((name, s.label))
                if have != expect:
                    problems.append(f"{name}:{s.label}: OUT does not satisfy its equation")
                in_g = EMPTY if have is None else have
        exit_g = meet_in(result.out, name, cfg.exit_inputs)
        if result.out.get((name, EXIT)) != exit_g:
            problems.append(f"{name}: exit value differs from meet of predecessors")
        if result.out_summary.get(name) != restrict_to_summary(exit_g, m):
            problems.append(f"{name}: OUT summary differs from restricted exit value")
    for name in index.methods:
        if not subsumes(result.in_summary.get(name, EMPTY), joined_in[name]):
            problems.append(f"{name}: IN summary does not cover call-site meet")
    return problems


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------


def _loop_entries(index: ProgramIndex, fixed: AnalysisResult) -> dict:
    """What each natural loop adds at its header in ``fixed``, in key order:
    the header's OUT less ``f_h(F)``, its flow equation applied to its
    forward meet (``equations.forward_in``), which the consumer's pass
    computes there itself."""
    out, summary_of = fixed.out, fixed.out_summary.__getitem__
    i_loop = {}
    for n in sorted(index.methods):
        cfg, m = index.cfgs[n], index.methods[n]
        for h, b in sorted((cfg.blocks[b][0].label, b) for b in cfg.forward_inputs):
            image = eval_statement(cfg.blocks[b][0], forward_in(cfg, out, n, b), m, summary_of)
            i_loop[(n, h)] = difference(out[(n, h)], image)
    return i_loop


def call_site(
    index: ProgramIndex, out: dict[PointKey, PointsToGraph], caller: str, label: int
) -> tuple[LabeledStatement, PointsToGraph]:
    """The statement at ``label`` of ``caller`` and its input in the
    consumer's pass over ``out``: the OUT of the statement before it, or at
    a block's leader its forward meet (``equations.forward_in``)."""
    cfg = index.cfgs[caller]
    b, k = cfg.position[label]
    stmts = cfg.blocks[b]
    return stmts[k], out[(caller, stmts[k - 1].label)] if k else forward_in(cfg, out, caller, b)


def _out_entries(index: ProgramIndex, fixed: AnalysisResult) -> dict:
    """Each recursive method's OUT summary in ``fixed`` less its base, in
    key order: the field edges of the pass input at its first self-call
    (``equations.self_call``), which the consumer meets into the entry; a
    method with no base keeps its whole OUT summary."""
    i_out = {}
    for n in sorted(index.methods):
        if index.call_graph.is_recursive_method(n):
            label = self_call(index, n)
            summary = fixed.out_summary[n]
            if label is not None:
                summary = difference(summary, heap_of(call_site(index, fixed.out, n, label)[1]))
            i_out[n] = summary
    return i_out


def _entries(program: Program, result: AnalysisResult) -> tuple[dict, dict, dict]:
    """The three maps ``emit_artwork`` writes for ``result``, each filled in
    key order as decode fills them, so the two print alike."""
    index = ProgramIndex.of(program)
    names = sorted(index.methods)
    return (
        _loop_entries(index, result),
        {n: result.in_summary[n] for n in names},
        _out_entries(index, result),
    )


@gc_paused
def emit_artwork(program: Program, result: AnalysisResult) -> Artwork:
    """Encode the compact artifact: what each natural loop adds at its
    header (``_loop_entries``), the IN summary of every method, and the OUT
    summary of every method on a call-graph cycle.  It carries ``result``
    as its ``fixed_point`` and keeps it alive, with the program and the
    entries it wrote; do not change ``result`` afterwards."""
    problems = validate_result(program, result)
    if problems:
        raise ArtError("result does not satisfy the flow equations: " + problems[0])
    maps = _entries(program, result)
    a = Artwork(*maps)
    object.__setattr__(a, "fixed_point", result)
    # each map's keys and values, interleaved in one tuple
    object.__setattr__(a, "written", (program, *(tuple(chain.from_iterable(m.items())) for m in maps)))
    return a


def carried_fixed_point(program: Program, a: Artwork) -> AnalysisResult | None:
    """The fixed point ``a`` carries (``a.fixed_point``, set by
    ``emit_artwork``) while ``program`` is the one emission read and ``a``'s
    maps still hold the very graphs it wrote under the same keys, one
    identity test per entry; None otherwise, and never an error."""
    written = a.written
    if a.fixed_point is None or written is None or written[0] is not program:
        return None
    for entries, flat in zip((a.i_loop, a.i_in, a.i_out), written[1:]):
        pairs = iter(flat)
        if 2 * len(entries) != len(flat) or any(entries.get(k) is not g for k, g in zip(pairs, pairs)):
            return None
    return a.fixed_point


@gc_paused
def optimize_artwork(program: Program, a: Artwork) -> Artwork:
    """Shrink a producer-emitted artifact without changing what the consumer
    regenerates: keep an entry only when it differs from its stand-in, the
    value the consumer puts in place of a deleted one.  (Writing an entry
    as ``^`` and its edits from the one before it is ``encode``'s rule,
    for every artifact.)  The stand-ins:

    * a loop entry's is the empty graph, since the consumer meets the entry
      into the header's flow equation applied to its forward meet, which it
      computes anyway; so a loop entry is dropped exactly when it is empty.
      The entries are those emission writes for the fixed point
      (``_loop_entries``): none holds an edge the header's equation derives
      or names a statement that heads no loop, which the consumer ignores;
    * the IN entry of the entry method, or of a method with no call-site, is
      the empty graph: the consumer's pass over the entry method comes first;
    * any other IN entry takes the projection at the first call-site the
      consumer checks.  It is dropped when some caller lies outside the
      method's SCC, so that a call-site is checked before the method's own
      pass, and every call-site projects the entry from the input the
      consumer's pass has there: the OUT of the statement before it, or at a
      block's leader its forward meet (``call_site``);
    * an OUT entry's is the empty graph, since the consumer meets the entry
      into the method's base (``equations.self_call``), which its pass
      holds anyway; so an OUT entry is dropped exactly when it is empty.
      The entries are those emission writes for the fixed point
      (``_out_entries``), so none holds an edge of the base.

    Stand-ins and loop and OUT entries come from the fixed point ``a``
    encodes: the one it carries (``carried_fixed_point``), whose loop and
    OUT entries ``a`` holds as written; else the consumer's regeneration of
    ``a``, once, up front, so no analysis is re-run.  An artifact the
    consumer rejects raises ``ArtError``."""
    index = ProgramIndex.of(program)
    graph = index.call_graph
    fixed = carried_fixed_point(program, a)
    if fixed is None:
        outcome = regenerate(index, a)
        if not outcome.safe:
            raise ArtError("artifact does not regenerate: " + outcome.violation.describe())
        fixed = outcome.result
        loops, outs = _loop_entries(index, fixed), _out_entries(index, fixed)
    else:
        loops, outs = a.i_loop, a.i_out
    out = fixed.out

    def redundant_in(name: str, g: PointsToGraph) -> bool:
        sites = graph.call_sites_of(name)
        if name == program.entry or not sites:
            return g.is_empty()
        scc = graph.scc_of(name)
        return any(caller not in scc for caller, _ in sites) and all(
            g == callee_in(index, caller, *call_site(index, out, caller, label), name)
            for caller, label in sites
        )

    i_loop = {key: g for key, g in loops.items() if not g.is_empty()}
    i_in = {name: g for name, g in a.i_in.items() if not redundant_in(name, g)}
    i_out = {name: g for name, g in outs.items() if not g.is_empty()}
    return Artwork(i_loop=i_loop, i_in=i_in, i_out=i_out)
