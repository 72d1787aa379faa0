"""The flow equations every engine evaluates.

The producer's worklist, the round-robin oracle, the equation check, the
artifact optimizer and the consumer all evaluate a statement with
``eval_statement``, the value flowing into a program point with ``in_value``
and a call-site's contribution to a callee's IN summary with ``callee_in``;
they differ only in where callee OUT summaries come from and in how often
they evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .ir import Call, LabeledStatement, Method, Node, ProgramIndex
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


def in_value(
    index: ProgramIndex, out: Mapping[PointKey, PointsToGraph], name: str, node: Node
) -> PointsToGraph:
    """Meet of the OUT values of every CFG predecessor of ``node``: the
    predecessor's OUT itself when there is one (as ``meet_all`` would
    return it)."""
    preds = index.cfgs[name].pred.get(node, ())
    if len(preds) == 1:
        return out.get((name, preds[0]), EMPTY)
    return meet_all(out.get((name, p), EMPTY) for p in preds)


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
