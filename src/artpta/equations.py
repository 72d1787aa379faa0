"""The flow equations every engine evaluates.

The producer's worklist, the equation check, the artifact optimizer and the
consumer all evaluate a statement with ``eval_statement`` and a call-site's
contribution to a callee's IN summary with ``callee_in``.  The three
engines (``analyze_inter``'s worklist, ``validate_result`` and the
consumer's ``regen_method``) step through a method one basic block at a
time: a leader's input is ``block_in``, the meet of its predecessor blocks'
last OUTs (and Entry's, for Entry's block), and every later statement's
input is the OUT just computed for the statement before it.  ``meet_in`` is
the meet over any list of points (Exit's inputs, a loop header's), and
``forward_in`` a loop header's meet over its forward inputs alone, which
the consumer's pass has there: the consumer evaluates the header on it and
meets in the header's ``[loop]`` entry, and emission writes that entry as
the header's fixed-point OUT less the same evaluation.  ``in_value`` is one
statement's input in that pass, for the optimizer's IN entries.  The
engines differ only in where callee OUT summaries come from and in how
often they evaluate.  The round-robin oracle evaluates the same statement
equations over the statement-level predecessor relation instead, so it
stays an independent check of the block step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .ir import Call, ControlFlowGraph, LabeledStatement, Method, Node, ProgramIndex
from .ptg import EMPTY, PointsToGraph, meet_all, project_in, project_out, transfer

PointKey = tuple[str, Node]


@dataclass
class AnalysisResult:
    """Per-statement OUT graphs plus per-method IN/OUT summaries.

    ``out`` is keyed by (method, label) with the synthetic points keyed by
    (method, "entry") and (method, "exit").  ``iteration_count`` is the total
    number of statement evaluations performed.
    """

    out: dict[PointKey, PointsToGraph]
    in_summary: dict[str, PointsToGraph]
    out_summary: dict[str, PointsToGraph]
    iteration_count: int = 0

    def same_values(self, other: "AnalysisResult") -> bool:
        """Value equality of the three maps (iteration counts may differ)."""
        return (
            self.out == other.out
            and self.in_summary == other.in_summary
            and self.out_summary == other.out_summary
        )


def meet_in(
    out: Mapping[PointKey, PointsToGraph], name: str, points: tuple[Node, ...]
) -> PointsToGraph:
    """Meet of the OUT values of ``points`` in method ``name``: the one OUT
    itself when there is one (as ``meet_all`` would return it)."""
    if len(points) == 1:
        return out.get((name, points[0]), EMPTY)
    return meet_all([out.get((name, p), EMPTY) for p in points])


def block_in(
    cfg: ControlFlowGraph, out: Mapping[PointKey, PointsToGraph], name: str, b: int
) -> PointsToGraph:
    """The block step's one meet: the value flowing into block ``b``'s
    leader, the meet of its predecessor blocks' last OUTs (and Entry's, for
    the block that holds the body's first statement, which need not be
    block 0).  Every later statement of the block takes the OUT of the
    statement before it."""
    return meet_in(out, name, cfg.inputs[b])


def forward_in(
    cfg: ControlFlowGraph, out: Mapping[PointKey, PointsToGraph], name: str, b: int
) -> PointsToGraph:
    """The forward meet at loop-header block ``b``: the meet of the OUTs
    that flow into its leader along edges that are not back-edges, which
    the consumer's pass has when it reaches the header and evaluates it
    on."""
    return meet_in(out, name, cfg.forward_inputs[b])


def in_value(
    index: ProgramIndex, out: Mapping[PointKey, PointsToGraph], name: str, label: int
) -> PointsToGraph:
    """The value flowing into statement ``label`` of method ``name`` in the
    consumer's pass: a loop header's ``forward_in``, any other leader's
    ``block_in``, and a later statement's the OUT of the statement before
    it."""
    cfg = index.cfgs[name]
    b, k = cfg.position[label]
    if k:
        return out.get((name, cfg.blocks[b][k - 1].label), EMPTY)
    return meet_in(out, name, cfg.forward_inputs.get(b, cfg.inputs[b]))


def eval_statement(
    s: LabeledStatement,
    in_g: PointsToGraph,
    m: Method,
    summary_of: Callable[[str], PointsToGraph],
) -> PointsToGraph:
    """OUT of one statement: a call meets the OUT summaries of its targets
    and projects them back into the caller; any other statement applies its
    transfer function."""
    if isinstance(s.instr, Call):
        summary = meet_all(summary_of(t) for t in s.instr.targets)
        return project_out(summary, m, s, in_g)
    return transfer(s, in_g, m)


def callee_in(
    index: ProgramIndex, caller: str, s: LabeledStatement, in_g: PointsToGraph, target: str
) -> PointsToGraph:
    """The term call-site ``s`` contributes to ``target``'s IN summary: the
    caller's state before the call, ``in_g``, projected into the target.  An
    IN summary is the meet of these terms over all call-sites of its method."""
    return project_in(in_g, index.methods[caller], s, index.methods[target])
