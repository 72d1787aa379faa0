"""Single-pass consumer: regenerate full per-statement results from a compact
artifact, proving it safe or reporting the tampered entry.

Each method's blocks are visited in topological order (back-edges ignored)
and each statement exactly once.  Loop headers take their OUT directly from
the artifact (default: the meet of their forward predecessors when the entry
was deleted); every other statement recomputes its flow equation.  Safety:

* loop invariants are recomputed over every predecessor, back-edges included,
  once the whole method is done, and must be unchanged (equality);
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
``optimize_artwork`` calls ``regenerate`` to read the fixed point an artifact
encodes.  This module never imports the producer.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Iterator

from .artwork import Artwork
from .equations import AnalysisResult, PointKey, callee_in, eval_statement, in_value
from .ir import ENTRY, EXIT, Call, LabeledStatement, Method, Program, ProgramIndex

# ``project_in`` is not called here (``callee_in`` is); it stays bound
# because the benchmark's tracer self-test patches ``consumer.project_in``.
from .ptg import (
    EMPTY,
    PointsToGraph,
    entry_graph,
    meet_all,
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
    safe: bool
    result: AnalysisResult | None
    violation: Violation | None
    violations: tuple[Violation, ...]
    visits: dict[tuple[str, int], int]
    methods_analyzed: frozenset[str]
    transfer_applications: int


def check_intra_safety(
    header: LabeledStatement, m: Method, recomputed: PointsToGraph, seeded: PointsToGraph
) -> Violation | None:
    """Pass iff re-evaluating the header over all predecessors reproduces the
    artifact-seeded value exactly."""
    if recomputed == seeded:
        return None
    return Violation("LoopInvariant", m.name, header.label, expected=seeded, found=recomputed)


def check_in_safety(
    call: LabeledStatement,
    caller: Method,
    callee: Method,
    projected: PointsToGraph,
    claimed: PointsToGraph,
) -> Violation | None:
    """Pass iff the stored IN summary subsumes the projection at this
    call-site (one-sided: the summary is the meet over all call-sites)."""
    if subsumes(claimed, projected):
        return None
    return Violation(
        "InSummary",
        callee.name,
        f"{caller.name}:{call.label}",
        expected=claimed,
        found=projected,
    )


def check_out_safety(
    m: Method, regenerated: PointsToGraph, claimed: PointsToGraph
) -> Violation | None:
    """Pass iff the regenerated OUT summary equals the stored one."""
    if regenerated == claimed:
        return None
    return Violation("OutSummary", m.name, m.name, expected=claimed, found=regenerated)


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

    def _resolved_in(self, name: str, default: PointsToGraph) -> PointsToGraph:
        if name not in self.effective_in:
            self.effective_in[name] = default
        return self.effective_in[name]

    def _effective_out(self, name: str) -> PointsToGraph:
        claimed = self.artwork.i_out.get(name)
        if claimed is None:
            claimed = self._resolved_in(name, EMPTY)
        return claimed

    def _summary_of(self, target: str) -> PointsToGraph:
        if target in self.regen_out_summary:
            return self.regen_out_summary[target]
        return self._effective_out(target)

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
            claimed = self._resolved_in(t, default=projected)
            v = check_in_safety(s, m, self.index.methods[t], projected, claimed)
            if v is not None:
                self._fail(v)

    def _eval(self, name: str, s: LabeledStatement, in_g: PointsToGraph) -> PointsToGraph:
        g = eval_statement(s, in_g, self.index.methods[name], self._summary_of)
        # Counted once evaluated: a callee regeneration that aborts leaves
        # this call-site unevaluated (its generator is never resumed).
        self.applications += 1
        return g

    def _forward_in(self, name: str, label: int) -> PointsToGraph:
        cfg = self.index.cfgs[name]
        preds = [
            p
            for p in cfg.pred[label]
            if not (isinstance(p, int) and (p, label) in cfg.back_edges)
        ]
        return meet_all(self.out.get((name, p), EMPTY) for p in preds)

    def regen_method(self, name: str) -> Iterator[str]:
        """Regenerate one method.  Before each call is evaluated, yield the
        callees whose OUT summary it still needs; ``_regen`` regenerates each
        one before resuming."""
        m = self.index.methods[name]
        cfg = self.index.cfgs[name]
        self.analyzed.add(name)
        self.out[(name, ENTRY)] = self._resolved_in(name, EMPTY)
        for block in cfg.topo_order:
            for s in block.statements:
                self.visits[(name, s.label)] += 1
                if s.label in cfg.loop_headers:
                    in_fwd = self._forward_in(name, s.label)
                    if isinstance(s.instr, Call):
                        self._check_call_site(m, s, in_fwd)
                    seeded = self.artwork.i_loop.get((name, s.label))
                    if seeded is None:
                        seeded = in_fwd  # deleted-entry default
                    self.out[(name, s.label)] = seeded
                else:
                    in_g = in_value(self.index, self.out, name, s.label)
                    if isinstance(s.instr, Call):
                        self._check_call_site(m, s, in_g)
                        yield from self._pending_callees(name, s)
                    self.out[(name, s.label)] = self._eval(name, s, in_g)
        self.out[(name, EXIT)] = in_value(self.index, self.out, name, EXIT)
        self.regen_out_summary[name] = restrict_to_summary(self.out[(name, EXIT)], m)
        for header in sorted(cfg.loop_headers):
            stmt = self.index.stmts[name][header]
            in_all = in_value(self.index, self.out, name, header)
            if isinstance(stmt.instr, Call):
                # The main pass could only project the forward predecessors
                # into the callee; re-check against the full meet now that the
                # back-edge values exist, or a reduction whose extra objects
                # arrive only around the loop would slip through.
                self._check_call_site(m, stmt, in_all)
                yield from self._pending_callees(name, stmt)
            recomputed = self._eval(name, stmt, in_all)
            v = check_intra_safety(stmt, m, recomputed, self.out[(name, header)])
            if v is not None:
                self._fail(v)
        if self.index.call_graph.is_recursive_method(name):
            v = check_out_safety(m, self.regen_out_summary[name], self._effective_out(name))
            if v is not None:
                self._fail(v)

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
        return RegenOutcome(
            safe=result is not None,
            result=result,
            violation=self.violations[0] if self.violations else None,
            violations=tuple(self.violations),
            visits=dict(self.visits),
            methods_analyzed=frozenset(self.analyzed),
            transfer_applications=self.applications,
        )


def regenerate(index: ProgramIndex, a: Artwork, keep_going: bool = False) -> RegenOutcome:
    """Regenerate the indexed program starting at its entry method, then any
    method not yet reached, each exactly once."""
    return _Regenerator(index, a, keep_going=keep_going).run(index.program.entry)


def regen_inter(p: Program, a: Artwork, keep_going: bool = False) -> RegenOutcome:
    """``regenerate`` over the program's index: the verifier's entry point."""
    return regenerate(ProgramIndex.of(p), a, keep_going=keep_going)


def regen_intra(m: Method, a: Artwork, keep_going: bool = False) -> RegenOutcome:
    """Regenerate one call-free method; the entry value maps each parameter
    to its placeholder object, mirroring the intra-procedural producer."""
    if any(isinstance(s.instr, Call) for s in m.body):
        raise ValueError(f"method '{m.name}' contains calls; use regen_inter")
    a = replace(a, i_in={**a.i_in, m.name: entry_graph(m)})
    return regen_inter(Program((m,), m.name), a, keep_going=keep_going)
