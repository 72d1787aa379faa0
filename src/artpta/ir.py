"""Mini imperative IR: parsing, printing, control-flow graphs, call graphs.

Grammar (one statement per line, ``#`` starts a comment, whitespace between
tokens is insignificant)::

    program  := method+
    method   := "method" NAME "(" [NAME ("," NAME)*] ")" "{" stmt* "}"
    stmt     := INT ":" instr
    instr    := NAME "=" "new" NAME                               # Alloc
              | NAME "=" NAME                                     # Copy
              | NAME "=" "null"                                   # AssignNull
              | NAME "." NAME "=" NAME                            # FieldStore
              | NAME "=" NAME "." NAME                            # FieldLoad
              | [NAME "="] "call" "[" NAME ("," NAME)* "]"
                           "(" [NAME ("," NAME)*] ")"             # Call
              | "return" [NAME]                                   # Return
              | "if" "goto" INT                                   # Branch
              | "goto" INT                                        # Goto
              | "nop"

Parsing is two passes.  The scanner splits the text with ``str.splitlines``,
drops each line's ``#`` comment and runs one compiled regular expression over
the rest: a match is either a token (a name, an integer or a punctuation
mark) or, through a catch-all alternative, a character no token starts with,
which is reported with its line and column.  Tokens are kept as plain
strings in a list, with a parallel list of their line numbers.  The
recursive-descent parser then indexes those lists directly and reads a
token's kind off its first character.  Only the end-of-line check after each
statement looks at line numbers, so a statement may span lines.  Columns
appear only in error messages, so the parser finds a token's column by
scanning its line again when it reports an error there.

Branch conditions are nondeterministic: ``if goto L`` has both the fall
through statement and ``L`` as successors.  Call statements carry an explicit
resolved target list, standing in for devirtualization.  The entry method is
the method named ``main``; it must take no parameters.

Control-flow graphs are built over maximal basic blocks with synthetic Entry
and Exit nodes.  Back-edges are the edges a depth-first search from the
entry block finds retreating; in a reducible graph these are exactly the
dominator back-edges (edge ``u -> v`` with ``v`` dominating ``u``).  A graph
is rejected as irreducible when a back-edge's natural loop reaches the entry
without passing its header, or when the graph minus its back-edges keeps a
cycle among unreachable blocks.
"""

from __future__ import annotations

import bisect
import heapq
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Union

from .errors import (
    DuplicateNameError,
    IrreducibleCfgError,
    ParseError,
    ResolutionError,
)

ENTRY = "entry"
EXIT = "exit"

Node = Union[int, str]  # statement label, or ENTRY/EXIT sentinel

KEYWORDS = frozenset({"method", "new", "null", "call", "return", "if", "goto", "nop"})


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alloc:
    x: str
    type_tag: str


@dataclass(frozen=True)
class Copy:
    x: str
    y: str


@dataclass(frozen=True)
class AssignNull:
    x: str


@dataclass(frozen=True)
class FieldStore:
    x: str
    f: str
    y: str


@dataclass(frozen=True)
class FieldLoad:
    x: str
    y: str
    f: str


@dataclass(frozen=True)
class Call:
    bind: str | None
    targets: tuple[str, ...]
    args: tuple[str, ...]


@dataclass(frozen=True)
class Return:
    x: str | None


@dataclass(frozen=True)
class Branch:
    target: int


@dataclass(frozen=True)
class Goto:
    target: int


@dataclass(frozen=True)
class Nop:
    pass


Instr = Union[Alloc, Copy, AssignNull, FieldStore, FieldLoad, Call, Return, Branch, Goto, Nop]

#: Instruction kinds that can change a points-to graph.  Loops whose body has
#: none of these carry no heap information and need no stored invariant.
REF_INSTRS = (Alloc, Copy, AssignNull, FieldStore, FieldLoad, Call)


@dataclass(frozen=True)
class LabeledStatement:
    label: int
    instr: Instr


def _uses(instr: Instr) -> tuple[str, ...]:
    if isinstance(instr, Copy):
        return (instr.y,)
    if isinstance(instr, FieldStore):
        return (instr.x, instr.y)
    if isinstance(instr, FieldLoad):
        return (instr.y,)
    if isinstance(instr, Call):
        return instr.args
    if isinstance(instr, Return) and instr.x is not None:
        return (instr.x,)
    return ()


def _defs(instr: Instr) -> str | None:
    if isinstance(instr, (Alloc, Copy, AssignNull, FieldLoad)):
        return instr.x
    if isinstance(instr, Call):
        return instr.bind
    return None


# ---------------------------------------------------------------------------
# Program structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Method:
    name: str
    params: tuple[str, ...]
    body: tuple[LabeledStatement, ...]
    #: variable name -> dense 0-based stack slot; params first, then locals
    #: in order of first assignment.  Derived deterministically from the body.
    slot_of: dict[str, int] = field(default_factory=dict, compare=False)

    def labels(self) -> tuple[int, ...]:
        return tuple(s.label for s in self.body)

    @property
    def var_count(self) -> int:
        return len(self.slot_of)

    @property
    def ret_slot(self) -> int:
        """Slot of the per-method return-value carrier (one past the locals)."""
        return len(self.slot_of)


@dataclass(frozen=True)
class Program:
    methods: tuple[Method, ...]
    entry: str

    def method(self, name: str) -> Method:
        for m in self.methods:
            if m.name == name:
                return m
        raise KeyError(name)

    @property
    def method_names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.methods)


def _build_slots(m_name: str, params: tuple[str, ...], body: tuple[LabeledStatement, ...]) -> dict[str, int]:
    slots: dict[str, int] = {}
    for p in params:
        if p in slots:
            raise DuplicateNameError(f"duplicate parameter '{p}' in method '{m_name}'")
        slots[p] = len(slots)
    for s in body:
        d = _defs(s.instr)
        if d is not None and d not in slots:
            slots[d] = len(slots)
    return slots


def _validate_method(m: Method) -> None:
    seen: set[int] = set()
    labels = set(m.labels())
    defined = set(m.params)
    for s in m.body:
        if s.label <= 0:
            raise ParseError(f"label {s.label} in method '{m.name}' must be positive")
        if s.label in seen:
            raise DuplicateNameError(f"duplicate label {s.label} in method '{m.name}'")
        seen.add(s.label)
        for u in _uses(s.instr):
            if u not in defined:
                raise ResolutionError(
                    f"variable '{u}' used at {m.name}:{s.label} before any assignment"
                )
        d = _defs(s.instr)
        if d is not None:
            defined.add(d)
        if isinstance(s.instr, (Branch, Goto)) and s.instr.target not in labels:
            raise ResolutionError(
                f"unknown branch label {s.instr.target} at {m.name}:{s.label}"
            )


def validate_program(p: Program) -> None:
    """Establish the Program invariants, raising on the first violation."""
    by_name = {m.name: m for m in p.methods}
    if len(by_name) < len(p.methods):
        counts = Counter(m.name for m in p.methods)
        n = next(m.name for m in p.methods if counts[m.name] > 1)
        raise DuplicateNameError(f"duplicate method name '{n}'")
    if p.entry not in by_name:
        raise ResolutionError(f"program has no entry method '{p.entry}'")
    if by_name[p.entry].params:
        raise ResolutionError(f"entry method '{p.entry}' must take no parameters")
    for m in p.methods:
        _validate_method(m)
        for s in m.body:
            if isinstance(s.instr, Call):
                for t in s.instr.targets:
                    if t not in by_name:
                        raise ResolutionError(
                            f"unknown call target '{t}' at {m.name}:{s.label}"
                        )


# ---------------------------------------------------------------------------
# Scanner / parser
# ---------------------------------------------------------------------------

#: One token (the group: a name, an integer or a punctuation mark) or, where
#: no token starts, the offending character (the catch-all, which leaves the
#: group empty).  Matching skips the whitespace between tokens.
_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*|[0-9]+|[(){}\[\],:.=])|\S")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIGITS = frozenset("0123456789")
#: Stands for the token past the last one: it equals no expected text and
#: starts no name or integer, so lookahead needs no bounds check.
_END = " "


def _scan(text: str) -> tuple[list[str], list[int], list[str]]:
    """The tokens of ``text``, the 1-based line of each, and the text of
    every line with its comment cut off (columns are recomputed from it when
    an error needs one)."""
    toks: list[str] = []
    lines: list[int] = []
    texts: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        cut = line.find("#")
        if cut >= 0:
            line = line[:cut]
        texts.append(line)
        found = _TOKEN_RE.findall(line)
        if "" in found:
            bad = next(m for m in _TOKEN_RE.finditer(line) if m[1] is None)
            raise ParseError(f"unexpected character {bad[0]!r}", lineno, bad.start() + 1)
        toks += found
        lines += repeat(lineno, len(found))
    return toks, lines, texts


class _Parser:
    """Recursive descent over the scanned token arrays.  Each rule takes the
    index of its first token and returns what it parsed with the index after
    it; a token's kind is read off its first character."""

    def __init__(self, toks: list[str], lines: list[int], texts: list[str]):
        self.n = len(toks)
        self.toks = toks + [_END]
        self.lines = lines + [0]
        self.texts = texts

    def position(self, i: int) -> tuple[int, int]:
        """Line and column of token ``i``: the column is found by scanning
        the token's line again."""
        line = self.lines[i]
        nth = i - bisect.bisect_left(self.lines, line, 0, self.n)
        starts = [m.start() for m in _TOKEN_RE.finditer(self.texts[line - 1])]
        return line, starts[nth] + 1

    def error(self, message: str, i: int) -> ParseError:
        if i < self.n:
            return ParseError(f"{message}, found {self.toks[i]!r}", *self.position(i))
        if not self.n:
            return ParseError(f"{message}, found end of input", 0, 0)
        return ParseError(f"{message}, found end of input", *self.position(self.n - 1))

    def expect(self, text: str, i: int) -> int:
        if self.toks[i] != text:
            raise self.error(f"expected {text!r}", i)
        return i + 1

    def name(self, i: int) -> str:
        t = self.toks[i]
        if t[0] not in _NAME_START or t in KEYWORDS:
            raise self.error("expected identifier", i)
        return t

    def integer(self, i: int) -> int:
        t = self.toks[i]
        if t[0] not in _DIGITS:
            raise self.error("expected integer", i)
        return int(t)

    def names(self, i: int) -> tuple[tuple[str, ...], int]:
        """``NAME ("," NAME)*``"""
        toks = self.toks
        found = [self.name(i)]
        i += 1
        while toks[i] == ",":
            found.append(self.name(i + 1))
            i += 2
        return tuple(found), i

    def program(self) -> Program:
        methods = []
        i = 0
        while i < self.n:
            m, i = self.method(i)
            methods.append(m)
        if not methods:
            raise ParseError("expected at least one method")
        return Program(methods=tuple(methods), entry="main")

    def method(self, i: int) -> tuple[Method, int]:
        toks = self.toks
        lines = self.lines
        i = self.expect("method", i)
        name = self.name(i)
        i = self.expect("(", i + 1)
        params: tuple[str, ...] = ()
        if toks[i] != ")":
            params, i = self.names(i)
        i = self.expect("{", self.expect(")", i))
        body: list[LabeledStatement] = []
        while toks[i] != "}":
            # stmt := INT ":" instr, and the next statement starts a new line
            if toks[i][0] not in _DIGITS:
                raise self.error("expected statement label", i)
            if toks[i + 1] != ":":
                raise self.error("expected ':'", i + 1)
            label = int(toks[i])
            line = lines[i]
            instr, i = self.instr(i + 2)
            if toks[i] != "}" and lines[i] == line:
                raise ParseError("expected end of line after statement", *self.position(i))
            body.append(LabeledStatement(label, instr))
        body_t = tuple(body)
        slots = _build_slots(name, params, body_t)
        return Method(name=name, params=params, body=body_t, slot_of=slots), i + 1

    def instr(self, i: int) -> tuple[Instr, int]:
        toks = self.toks
        t = toks[i]
        if t == "nop":
            return Nop(), i + 1
        if t == "goto":
            return Goto(self.integer(i + 1)), i + 2
        if t == "if":
            i = self.expect("goto", i + 1)
            return Branch(self.integer(i)), i + 1
        if t == "return":
            x = toks[i + 1]
            if x[0] in _NAME_START and x not in KEYWORDS:
                return Return(x), i + 2
            return Return(None), i + 1
        if t == "call":
            return self.call(None, i)
        x = self.name(i)
        if toks[i + 1] == ".":
            f = self.name(i + 2)
            i = self.expect("=", i + 3)
            return FieldStore(x, f, self.name(i)), i + 1
        i = self.expect("=", i + 1)
        t = toks[i]
        if t == "new":
            return Alloc(x, self.name(i + 1)), i + 2
        if t == "null":
            return AssignNull(x), i + 1
        if t == "call":
            return self.call(x, i)
        y = self.name(i)
        if toks[i + 1] == ".":
            return FieldLoad(x, y, self.name(i + 2)), i + 3
        return Copy(x, y), i + 1

    def call(self, bind: str | None, i: int) -> tuple[Call, int]:
        """``"call" "[" NAME ("," NAME)* "]" "(" [NAME ("," NAME)*] ")"``, from
        the ``call`` keyword on."""
        targets, i = self.names(self.expect("[", i + 1))
        i = self.expect("(", self.expect("]", i))
        args: tuple[str, ...] = ()
        if self.toks[i] != ")":
            args, i = self.names(i)
        return Call(bind=bind, targets=targets, args=args), self.expect(")", i)


def parse_program(text: str) -> Program:
    """Parse IR text into a Program with all invariants established.

    Deterministic: identical text yields a structurally identical Program.
    Raises ParseError, ResolutionError, or DuplicateNameError.
    """
    program = _Parser(*_scan(text)).program()
    validate_program(program)
    return program


def _instr_text(instr: Instr) -> str:
    if isinstance(instr, Alloc):
        return f"{instr.x} = new {instr.type_tag}"
    if isinstance(instr, Copy):
        return f"{instr.x} = {instr.y}"
    if isinstance(instr, AssignNull):
        return f"{instr.x} = null"
    if isinstance(instr, FieldStore):
        return f"{instr.x}.{instr.f} = {instr.y}"
    if isinstance(instr, FieldLoad):
        return f"{instr.x} = {instr.y}.{instr.f}"
    if isinstance(instr, Call):
        head = f"{instr.bind} = call" if instr.bind is not None else "call"
        return f"{head} [{', '.join(instr.targets)}]({', '.join(instr.args)})"
    if isinstance(instr, Return):
        return "return" if instr.x is None else f"return {instr.x}"
    if isinstance(instr, Branch):
        return f"if goto {instr.target}"
    if isinstance(instr, Goto):
        return f"goto {instr.target}"
    return "nop"


def print_program(p: Program) -> str:
    """Canonical printer; ``parse_program(print_program(p)) == p``.

    Method order is preserved from the input program.
    """
    lines: list[str] = []
    for m in p.methods:
        lines.append(f"method {m.name}({', '.join(m.params)}) {{")
        for s in m.body:
            lines.append(f"  {s.label}: {_instr_text(s.instr)}")
        lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Control-flow graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasicBlock:
    statements: tuple[LabeledStatement, ...]

    @property
    def leader(self) -> int:
        return self.statements[0].label


@dataclass(frozen=True)
class ControlFlowGraph:
    method: Method
    blocks: tuple[BasicBlock, ...]
    #: statement-level successor relation, Entry/Exit included
    succ: dict[Node, tuple[Node, ...]]
    pred: dict[Node, tuple[Node, ...]]
    #: (source statement label, header statement label) dominator back-edges
    back_edges: frozenset[tuple[int, int]]
    #: blocks in a topological order of the block graph minus back-edges
    topo_order: tuple[BasicBlock, ...]
    #: labels of natural-loop headers (back-edge targets)
    loop_headers: frozenset[int]

    def loop_body(self, header: int) -> frozenset[int]:
        """Labels of all statements in the natural loop of ``header``
        (union over its back-edges), header included."""
        members: set[int] = {header}
        stack = [u for (u, h) in self.back_edges if h == header]
        while stack:
            n = stack.pop()
            if n in members:
                continue
            members.add(n)
            for p in self.pred.get(n, ()):
                if isinstance(p, int) and p not in members:
                    stack.append(p)
        return frozenset(members)


def build_cfg(m: Method) -> ControlFlowGraph:
    """Build the CFG: maximal basic blocks, back-edges and a deterministic
    topological block order.

    One scan over the body finds every statement's successors and the block
    leaders.  One depth-first search from the entry block finds the
    back-edges: the edges into a block on the current search path.  In a
    reducible graph these are exactly the edges whose target dominates their
    source, whatever order the search takes.  Raises IrreducibleCfgError
    when a back-edge's natural loop reaches the first statement without
    passing its header (the header does not dominate the source), or when
    the graph minus its back-edges keeps a cycle among unreachable blocks."""
    body = m.body
    first: Node = body[0].label if body else EXIT
    succ: dict[Node, tuple[Node, ...]] = {ENTRY: (first,)}
    pred: dict[Node, list[Node]] = {n: [] for n in (ENTRY, EXIT, *(s.label for s in body))}
    pred[first].append(ENTRY)
    # Leaders: the first statement, every jump target and every statement
    # after a control transfer.
    leaders: set[Node] = {first}
    for i, s in enumerate(body):
        fall: Node = body[i + 1].label if i + 1 < len(body) else EXIT
        instr = s.instr
        if isinstance(instr, Branch):
            out: tuple[Node, ...] = (fall,) if instr.target == fall else (fall, instr.target)
        elif isinstance(instr, Goto):
            out = (instr.target,)
        elif isinstance(instr, Return):
            out = (EXIT,)
        else:
            out = (fall,)
        if isinstance(instr, (Branch, Goto, Return)):
            leaders.update(out)
            leaders.add(fall)
        succ[s.label] = out
        for v in out:
            pred[v].append(s.label)

    starts = [i for i, s in enumerate(body) if s.label in leaders]
    blocks = [BasicBlock(body[a:b]) for a, b in zip(starts, starts[1:] + [len(body)])]
    # A block's last statement has only leaders as successors.
    block_of = {b.leader: bi for bi, b in enumerate(blocks)}
    bsucc = [[block_of[v] for v in succ[b.statements[-1].label] if v != EXIT] for b in blocks]

    # Iterative depth-first search.  State: 0 unseen, 1 on the current
    # path, 2 finished.
    back: set[tuple[int, int]] = set()
    state = [0] * len(blocks)
    stack = []
    if blocks:
        state[0] = 1
        stack.append((0, iter(bsucc[0])))
    while stack:
        u, edges = stack[-1]
        for v in edges:
            if state[v] == 0:
                state[v] = 1
                stack.append((v, iter(bsucc[v])))
                break
            if state[v] == 1:
                back.add((u, v))
        else:
            state[u] = 2
            stack.pop()

    # Kahn's algorithm over the block graph minus its back-edges, smallest
    # leader first.
    indeg = [0] * len(blocks)
    fwd = [[v for v in vs if (u, v) not in back] for u, vs in enumerate(bsucc)]
    for vs in fwd:
        for v in vs:
            indeg[v] += 1
    heap = [(b.leader, bi) for bi, b in enumerate(blocks) if indeg[bi] == 0]
    heapq.heapify(heap)
    topo: list[BasicBlock] = []
    while heap:
        _, u = heapq.heappop(heap)
        topo.append(blocks[u])
        for v in fwd[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, (blocks[v].leader, v))

    back_edges = frozenset((blocks[u].statements[-1].label, blocks[v].leader) for u, v in back)
    cfg = ControlFlowGraph(
        method=m,
        blocks=tuple(blocks),
        succ=succ,
        pred={n: tuple(ps) for n, ps in pred.items()},
        back_edges=back_edges,
        topo_order=tuple(topo),
        loop_headers=frozenset(h for _, h in back_edges),
    )
    if len(topo) != len(blocks) or any(
        h != first and first in cfg.loop_body(h) for h in cfg.loop_headers
    ):
        raise IrreducibleCfgError(
            f"method '{m.name}' has a cycle that is not a natural loop"
        )
    return cfg


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------

CallSite = tuple[str, int]  # (caller method, statement label)


@dataclass(frozen=True)
class CallGraph:
    #: (call-site, caller, callee) for every target of every call statement
    edges: tuple[tuple[CallSite, str, str], ...]
    #: strongly connected components, callees first (Tarjan emission order)
    sccs: tuple[frozenset[str], ...]
    recursive_call_sites: frozenset[CallSite]
    #: methods on a call-graph cycle (a multi-method SCC or a self-call)
    recursive_methods: frozenset[str]
    # Lookups derived from ``edges`` and ``sccs`` once, when the graph is
    # built: method -> its SCC, callee -> call-sites (in first-edge order).
    _scc: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)
    _sites: dict[str, tuple[CallSite, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sites: dict[str, dict[CallSite, None]] = {}
        for site, _, callee in self.edges:
            sites.setdefault(callee, {})[site] = None
        object.__setattr__(self, "_scc", {n: scc for scc in self.sccs for n in scc})
        object.__setattr__(self, "_sites", {n: tuple(ss) for n, ss in sites.items()})

    def scc_of(self, name: str) -> frozenset[str]:
        return self._scc[name]

    def is_recursive_method(self, name: str) -> bool:
        return name in self.recursive_methods

    def is_recursive_edge(self, caller: str, callee: str) -> bool:
        """True when the call edge lies on a call-graph cycle."""
        return callee in self._scc[caller] and caller in self.recursive_methods

    def call_sites_of(self, name: str) -> tuple[CallSite, ...]:
        return self._sites.get(name, ())

    def bottom_up_order(self) -> tuple[str, ...]:
        """Methods ordered callees-first: the SCCs in emission order, each
        SCC's members sorted."""
        return tuple(n for scc in self.sccs for n in sorted(scc))


def build_call_graph(p: Program) -> CallGraph:
    """Enumerate call edges and classify recursive call-sites via SCCs."""
    edges: list[tuple[CallSite, str, str]] = []
    callees: dict[str, set[str]] = {m.name: set() for m in p.methods}
    for m in p.methods:
        for s in m.body:
            if isinstance(s.instr, Call):
                for t in s.instr.targets:
                    edges.append(((m.name, s.label), m.name, t))
                    callees[m.name].add(t)

    # Tarjan's algorithm, iterative, with sorted adjacency for determinism.
    adjacency = {n: sorted(ts) for n, ts in callees.items()}
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[frozenset[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, pi = work.pop()
            if pi == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            children = adjacency[node]
            for j in range(pi, len(children)):
                w = children[j]
                if w not in index_of:
                    work.append((node, j + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index_of[w])
            if recurse:
                continue
            if low[node] == index_of[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for name in sorted(adjacency):
        if name not in index_of:
            strongconnect(name)

    cyclic = frozenset(
        n
        for scc in sccs
        if len(scc) > 1 or any(c in callees[c] for c in scc)
        for n in scc
    )
    scc_index = {n: i for i, scc in enumerate(sccs) for n in scc}
    recursive = frozenset(
        site
        for site, caller, callee in edges
        if scc_index[caller] == scc_index[callee] and caller in cyclic
    )
    return CallGraph(
        edges=tuple(edges),
        sccs=tuple(sccs),
        recursive_call_sites=recursive,
        recursive_methods=cyclic,
    )


class ProgramIndex:
    """What every engine derives from a parsed program: methods, CFGs and
    statements by name, and the call graph.

    This is the one place CFGs and call graphs are built.  Engines ask
    ``ProgramIndex.of``, which remembers the index of the last program it was
    given (by identity), so the phases of one produce or one verify run share
    a single index without keeping one alive for every program ever seen.
    Sharing is sound because a ``Program`` is immutable and no engine writes
    to an index.
    """

    #: (program, index) from the latest ``of`` call
    _last: tuple = (None, None)

    def __init__(self, program: Program):
        self.program = program
        self.methods: dict[str, Method] = {m.name: m for m in program.methods}
        self.cfgs: dict[str, ControlFlowGraph] = {
            m.name: build_cfg(m) for m in program.methods
        }
        self.stmts: dict[str, dict[int, LabeledStatement]] = {
            m.name: {s.label: s for s in m.body} for m in program.methods
        }
        self.call_graph: CallGraph = build_call_graph(program)

    @classmethod
    def of(cls, p: Program) -> "ProgramIndex":
        last, index = cls._last
        if last is not p:
            index = cls(p)
            cls._last = (p, index)
        return index
