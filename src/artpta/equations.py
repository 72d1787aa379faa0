"""The flow equations every engine evaluates.

The producer's worklist, the equation check, the artifact optimizer and the
consumer all evaluate a statement with ``eval_statement`` and a call-site's
contribution to a callee's IN summary with ``callee_in``.  The three
engines (``analyze_inter``'s worklist, ``validate_result`` and the
consumer's ``regen_method``) step through a method one basic block at a
time: a leader's input is a meet of predecessor blocks' last OUTs (and
Entry's, for Entry's block), and every later statement's input is the OUT
just computed for the statement before it.  The worklist and the equation
check meet every input (``block_in``).  The consumer's one pass, and the
optimizer that reads its inputs, meet a block's forward inputs alone
(``forward_in``): at a loop header the back-edges' OUTs do not exist yet,
so the consumer evaluates the header on that meet and meets in the
header's ``[loop]`` entry, and emission writes that entry as the header's
fixed-point OUT less the same evaluation; any other block has only forward
inputs.  ``meet_in`` is the meet over any list of points (Exit's inputs).
The engines differ only in where callee OUT summaries come from and in how
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
    """The consumer's meet at block ``b``: the meet of the OUTs that flow
    into its leader along edges that are not back-edges.  That is
    ``block_in`` except at a loop header, where the consumer's pass has only
    these OUTs when it reaches the header."""
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
