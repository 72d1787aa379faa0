"""Single-pass consumer: regenerate full per-statement results from a compact
artifact, proving it safe or reporting the tampered entry.

Each method's blocks are visited in the order the CFG numbers them, a
topological order (back-edges ignored), and each statement is evaluated
exactly once: a block's leader from the meet of its predecessor blocks'
OUTs (``equations.block_in``) and each later statement from the OUT just
computed.  A loop header leads its block, and its back-edges' OUTs do not
exist yet when the pass reaches it, so it is evaluated on the meet of its
forward predecessors (``equations.forward_in``), and its ``[loop]`` entry,
what the loop adds there, is met into the result; a deleted entry adds
nothing.  A call at a header is evaluated like any other call, its plain
callees regenerated first.  Safety:

* loop invariants are recomputed over every predecessor, back-edges included,
  once the whole method is done, and must be unchanged (equality): an entry
  that lacks an edge the loop adds gives the header a value below every
  fixed point's, and the recomputation finds it;
* at every call-site, the callee's stored IN summary must subsume the
  projected-in caller state (subsumption; a missing entry defaults to the
  projection at the first call-site encountered);
* a recursive method's regenerated OUT summary must equal its stored one
  (a missing entry defaults to the method's IN summary).

Intra-procedural loop checks run after the method's pass rather than after
each statement so that every predecessor OUT exists when a header has
multiple back-edges; the asserted condition is identical.

The first violation aborts regeneration; ``keep_going`` collects the rest for
diagnostics without changing the verdict.

Regeneration is iterative.  Each method's pass is a generator that, right
before it evaluates a call, yields the plain (non-recursive) callees whose
OUT summary it still needs, in target order; a driver regenerates each of
them on an explicit stack before resuming the caller.  The visit order is
that of a depth-first descent, and call-chain depth costs no Python stack.

``regenerate`` works on a ``ProgramIndex``; ``regen_inter`` is the verifier's
entry point over ``ProgramIndex.of(p)``, and the producer's
``optimize_artwork`` calls ``regenerate`` to read the fixed point of an
artifact whose maps are not those of a fixed point it carries.  This module
never imports the producer.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

from .artwork import Artwork
from .equations import (
    AnalysisResult,
    PointKey,
    block_in,
    callee_in,
    eval_statement,
    forward_in,
    meet_in,
)
from .ir import ENTRY, EXIT, Call, LabeledStatement, Method, Program, ProgramIndex, gc_paused

# ``project_in`` is not called here (``callee_in`` is); it stays bound
# because the benchmark's tracer self-test patches ``consumer.project_in``.
from .ptg import (
    EMPTY,
    PointsToGraph,
    meet,
    project_in,
    restrict_to_summary,
    subsumes,
)


@dataclass(frozen=True)
class Violation:
    kind: str  # "LoopInvariant" | "InSummary" | "OutSummary"
    method: str
    location: int | str
    expected: PointsToGraph
    found: PointsToGraph

    def describe(self) -> str:
        return f"{self.kind} violation in '{self.method}' at {self.location}"


@dataclass
class RegenOutcome:
    result: AnalysisResult | None
    violations: tuple[Violation, ...]
    visits: dict[tuple[str, int], int]
    methods_analyzed: frozenset[str]
    transfer_applications: int
    #: sorted ``[loop]`` keys at statements that head no loop: decode accepts
    #: them, and regeneration reads no value from them
    ignored_loop_keys: tuple[tuple[str, int], ...]

    @property
    def safe(self) -> bool:
        return self.result is not None

    @property
    def violation(self) -> Violation | None:
        """The first violation, which decides the verdict."""
        return self.violations[0] if self.violations else None


class _Abort(Exception):
    pass


class _Regenerator:
    def __init__(self, index: ProgramIndex, artwork: Artwork, keep_going: bool = False):
        self.index = index
        self.artwork = artwork
        self.keep_going = keep_going
        self.out: dict[PointKey, PointsToGraph] = {}
        self.visits: dict[tuple[str, int], int] = defaultdict(int)
        self.analyzed: set[str] = set()
        self.effective_in: dict[str, PointsToGraph] = dict(artwork.i_in)
        self.regen_out_summary: dict[str, PointsToGraph] = {}
        self.violations: list[Violation] = []
        self.applications = 0

    def _fail(self, v: Violation) -> None:
        self.violations.append(v)
        if not self.keep_going:
            raise _Abort

    def _claimed_out(self, name: str) -> PointsToGraph:
        """The stored OUT summary of ``name``, else its resolved IN summary."""
        claimed = self.artwork.i_out.get(name)
        return self.effective_in.setdefault(name, EMPTY) if claimed is None else claimed

    def _pending_callees(self, caller: str, s: LabeledStatement) -> Iterator[str]:
        """The plain (non-recursive) targets of ``s`` not yet regenerated, in
        target order.  A plain callee is never on the driver's stack: that
        would put it in the caller's SCC."""
        assert isinstance(s.instr, Call)
        for t in s.instr.targets:
            if t not in self.regen_out_summary and not self.index.call_graph.is_recursive_edge(
                caller, t
            ):
                yield t

    def _check_call_site(
        self, m: Method, s: LabeledStatement, in_g: PointsToGraph
    ) -> None:
        assert isinstance(s.instr, Call)
        for t in s.instr.targets:
            projected = callee_in(self.index, m.name, s, in_g, t)
            # One-sided: the summary is the meet over all call-sites.
            claimed = self.effective_in.setdefault(t, projected)
            if not subsumes(claimed, projected):
                self._fail(Violation("InSummary", t, f"{m.name}:{s.label}", claimed, projected))

    def regen_method(self, name: str) -> Iterator[str]:
        """Regenerate one method, one block at a time in the CFG's block
        order, a topological order.  Before each call is evaluated, yield
        the callees whose OUT summary it still needs; ``_regen``
        regenerates each one before resuming."""
        m = self.index.methods[name]
        cfg = self.index.cfgs[name]
        blocks = cfg.blocks
        headers = cfg.forward_inputs
        out, visits, regen_out = self.out, self.visits, self.regen_out_summary
        loops = self.artwork.i_loop

        def summary_of(t: str) -> PointsToGraph:
            return regen_out[t] if t in regen_out else self._claimed_out(t)

        self.analyzed.add(name)
        out[(name, ENTRY)] = self.effective_in.setdefault(name, EMPTY)
        for b, stmts in enumerate(blocks):
            carried = None  # what the artifact says the loop adds at this block's header
            if b in headers:
                # A loop header leads its block.  Its back-edges' OUTs do not
                # exist yet, so it is evaluated on its forward meet, and its
                # [loop] entry, if any, is met into the OUT.
                g = forward_in(cfg, out, name, b)
                carried = loops.get((name, stmts[0].label))
            else:
                g = block_in(cfg, out, name, b)
            for s in stmts:
                key = (name, s.label)
                visits[key] += 1
                if s.instr.__class__ is Call:
                    self._check_call_site(m, s, g)
                    yield from self._pending_callees(name, s)
                g = eval_statement(s, g, m, summary_of)
                # Counted once evaluated: a callee regeneration that aborts
                # leaves this call-site unevaluated (its generator is never
                # resumed).
                self.applications += 1
                if carried is not None:
                    g = meet(g, carried)
                    carried = None
                out[key] = g
        out[(name, EXIT)] = meet_in(out, name, cfg.exit_inputs)
        regenerated = regen_out[name] = restrict_to_summary(out[(name, EXIT)], m)
        for header, b in sorted((blocks[b][0].label, b) for b in headers):
            stmt = blocks[b][0]
            in_all = meet_in(out, name, cfg.inputs[b])
            if isinstance(stmt.instr, Call):
                # The main pass could only project the forward predecessors
                # into the callee; re-check against the full meet now that the
                # back-edge values exist, or a reduction whose extra objects
                # arrive only around the loop would slip through.  The pass
                # has regenerated the call's plain callees already.
                self._check_call_site(m, stmt, in_all)
            recomputed = eval_statement(stmt, in_all, m, summary_of)
            self.applications += 1
            if recomputed != out[(name, header)]:
                self._fail(Violation("LoopInvariant", name, header, out[(name, header)], recomputed))
        if self.index.call_graph.is_recursive_method(name):
            claimed = self._claimed_out(name)
            if regenerated != claimed:
                self._fail(Violation("OutSummary", name, name, claimed, regenerated))

    def _regen(self, name: str) -> None:
        """Run ``regen_method(name)`` and every callee regeneration it asks
        for on an explicit stack, so call-chain depth costs no Python stack."""
        stack = [self.regen_method(name)]
        while stack:
            callee = next(stack[-1], None)
            if callee is None:
                stack.pop()
            else:
                stack.append(self.regen_method(callee))

    def run(self, start: str) -> RegenOutcome:
        # Sweep leftovers callers-first so that a method whose IN entry was
        # optimized away is encountered at a call-site (which pins its
        # default) before its own turn comes up.
        sweep = list(reversed(self.index.call_graph.bottom_up_order()))
        try:
            self._regen(start)
            for name in sweep:
                if name not in self.analyzed:
                    self._regen(name)
        except _Abort:
            pass
        result = None
        if not self.violations:
            result = AnalysisResult(
                out=self.out,
                in_summary={m.name: self.effective_in[m.name] for m in self.index.program.methods},
                out_summary=self.regen_out_summary,
                iteration_count=self.applications,
            )
        cfgs = self.index.cfgs
        ignored = sorted(
            (name, label)
            for name, label in self.artwork.i_loop
            if name not in cfgs or label not in cfgs[name].loop_headers
        )
        return RegenOutcome(
            result=result,
            violations=tuple(self.violations),
            visits=dict(self.visits),
            methods_analyzed=frozenset(self.analyzed),
            transfer_applications=self.applications,
            ignored_loop_keys=tuple(ignored),
        )


def regenerate(index: ProgramIndex, a: Artwork, keep_going: bool = False) -> RegenOutcome:
    """Regenerate the indexed program starting at its entry method, then any
    method not yet reached, each exactly once."""
    return _Regenerator(index, a, keep_going=keep_going).run(index.program.entry)


@gc_paused
def regen_inter(p: Program, a: Artwork, keep_going: bool = False) -> RegenOutcome:
    """``regenerate`` over the program's index: the verifier's entry point."""
    return regenerate(ProgramIndex.of(p), a, keep_going=keep_going)
