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

A statement is a ``LabeledStatement``, a frozen slotted dataclass of its
label, its instruction and its resolved operands.  Each instruction kind is
a named tuple of its fields and a constant kind tag, so that kinds with
equal fields differ; no statement or instruction has a ``__dict__``.  The
line reader makes each instruction straight from its field tuple, and the
builder fills each statement's slots directly, at about a third and a half
of the cost of a frozen dataclass's ``__init__``.  Built by hand or by the
token parser, through the constructors, a statement is equal to the line
reader's, hashes equal and prints the same.  The engines read ``s.label``,
``s.instr`` and ``s.operands`` on every evaluation, which a slot serves
faster than a tuple field, so ``LabeledStatement`` is not a tuple.

Two readers feed one builder.  The line reader takes the common case, a text
of canonical lines, as ``print_program`` and ``generate_corpus`` write them:
a method header, a lone ``}``, a blank line, or one whole statement with
spaces only between its tokens, read by one ``fullmatch`` of a compiled
regular expression whose ``lastgroup`` names the instruction kind.  At the
first line that is none of these (a statement spanning lines, a ``}`` after
a statement, a comment, a tab, a keyword where a name goes, an integer
``int`` rejects, any syntax error), or at a repeated parameter, it gives
up, and the token reader parses the whole text again, so every error
message, position and precedence is the token reader's.  The token reader
is also the reference the line reader is tested against.

The token reader's scanner splits the text with ``str.splitlines``, drops
each line's ``#`` comment and runs one compiled regular expression over the
rest: a match is either a token (a name, an integer or a punctuation mark)
or, in the expression's one group, a character no token starts with, which
is reported at its line and column.  Each token is kept as a plain string,
with its line and column in a parallel list, when it is scanned; nothing is
scanned again.  The recursive-descent parser indexes those lists directly
and reads a token's kind off its first character.  Only the end-of-line
check after each statement looks at lines, so a statement may span lines.

The builder is where the rules live, so both readers share them.  It
takes each statement as it arrives: it checks the label, then resolves the
operands, the reads first and then the assignment, which assigns the slots
(parameters first, then locals in order of first assignment) and finds a
variable read before any assignment.  At the end of each method it checks
the jumps it resolved against every label; it keeps each method's first
statement at fault and resolves nothing after it.  A scanner error anywhere
comes first.  Then parsing stops at the first parser error or duplicate
parameter in text order, a duplicate parameter being found at the end of
its method.  Then come the whole program's faults: a duplicate method
name, a missing entry method, an entry method with parameters, and per
method its first statement at fault (a label that is not positive or
repeats, a variable read before any assignment, an unknown jump target: by
statement, and in that order within one) and then its first unknown call
target.

Variables and abstract objects are identified by ``VarId`` (method, slot),
``Site`` (method, allocation label) and ``Placeholder`` (method, parameter
index), tagged named tuples defined here so that the builder can make them;
``ptg`` and the package re-export them.  ``identifiers(p)`` is the one
place that says which of them a program has: a table, built from the
program on each call, that maps each to itself and its rendered text to it.
Decode looks every artifact edge line up in it, and ``tamper`` draws its
sites from it.
Each statement of a parsed method carries its resolved operands
(``LabeledStatement.operands``, see ``Operands``): the variables it writes
and reads, one ``VarId`` per variable, made when its slot is assigned; its
field name; an allocation site's singleton object set, which every
evaluation shares; a call's arguments and receiver; and a return's carrier,
filled in once the method's slots are all known.  The tuple starts with the
method's ``mark``, an object the builder makes for each method.  The flow
functions in ``ptg`` read these instead of looking each name up on every
evaluation, and reject a statement whose operands do not start with the
method's mark.  A statement or method built by hand, or by
``dataclasses.replace``, has neither.  Both are derived, so they take no
part in equality, hashing or ``repr``.

Branch conditions are nondeterministic: ``if goto L`` has both the fall
through statement and ``L`` as successors.  Call statements carry an explicit
resolved target list, standing in for devirtualization.  The entry method is
the method named ``main``; it must take no parameters.

A control-flow graph is a block graph: the maximal basic blocks, whose
leaders are found from the control statements alone, their successor
blocks, the points that flow into each (and, for a loop header, the forward
ones among them, which ``equations.forward_in`` reads), and synthetic Entry
and Exit points.  A block is its tuple of statements.  The blocks are
numbered in the order every engine walks them, a topological order of the
graph minus its back-edges, so Entry's block need not be block 0.  Inside a
block each statement flows into the next one alone, so the engines step
through whole blocks; the statement-level predecessor relation ``pred`` is
the one view derived from the block graph on demand, kept for the
round-robin oracle.  Back-edges are the edges a depth-first search from
the entry block finds retreating; in a reducible graph these are exactly
the dominator back-edges (edge ``u -> v`` with ``v`` dominating ``u``).  A
graph is rejected as irreducible when a back-edge's natural loop reaches
the entry block without passing its header, or when the graph minus its
back-edges keeps a cycle among unreachable blocks.
"""

from __future__ import annotations

import gc
import heapq
import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import Callable, NamedTuple, TypeVar, Union

from .errors import (
    ArtError,
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


class Alloc(NamedTuple):
    x: str
    type_tag: str
    kind: str = "alloc"  # constant tag: never pass it


class Copy(NamedTuple):
    x: str
    y: str
    kind: str = "copy"  # constant tag: never pass it


class AssignNull(NamedTuple):
    x: str
    kind: str = "assign_null"  # constant tag: never pass it


class FieldStore(NamedTuple):
    x: str
    f: str
    y: str
    kind: str = "field_store"  # constant tag: never pass it


class FieldLoad(NamedTuple):
    x: str
    y: str
    f: str
    kind: str = "field_load"  # constant tag: never pass it


class Call(NamedTuple):
    bind: str | None
    targets: tuple[str, ...]
    args: tuple[str, ...]
    kind: str = "call"  # constant tag: never pass it


class Return(NamedTuple):
    x: str | None
    kind: str = "return"  # constant tag: never pass it


class Branch(NamedTuple):
    target: int
    kind: str = "branch"  # constant tag: never pass it


class Goto(NamedTuple):
    target: int
    kind: str = "goto"  # constant tag: never pass it


class Nop(NamedTuple):
    kind: str = "nop"  # constant tag: never pass it


Instr = Union[Alloc, Copy, AssignNull, FieldStore, FieldLoad, Call, Return, Branch, Goto, Nop]


def _instr_repr(instr: Instr) -> str:
    """``Kind(field=value, ...)``, the kind tag left out."""
    fields = zip(instr._fields[:-1], instr)
    return f"{instr.__class__.__qualname__}({', '.join(f'{f}={v!r}' for f, v in fields)})"


for _kind in Instr.__args__:
    _kind.__repr__ = _instr_repr

#: The instruction kinds that end a basic block.
_CONTROL = frozenset((Branch, Goto, Return))


@dataclass(frozen=True, slots=True)
class LabeledStatement:
    label: int
    instr: Instr
    #: The resolved ``Operands``, which the builder records; None for a
    #: statement built by hand.
    operands: Operands | None = field(default=None, init=False, repr=False, compare=False)


# ``_Builder.add`` makes each statement by setting its slots, which skips the
# frozen dataclass's ``__init__`` (it sets each field through
# ``object.__setattr__``).
_new_statement = object.__new__
_set_label = LabeledStatement.label.__set__
_set_instr = LabeledStatement.instr.__set__
_set_operands = LabeledStatement.operands.__set__


# ---------------------------------------------------------------------------
# Identifiers
# ---------------------------------------------------------------------------


class VarId(NamedTuple):
    """Stack slot ``slot`` of ``method`` (the parameters, then the locals,
    then the return carrier)."""

    method: str
    slot: int
    kind: str = "var"  # constant tag: never pass it

    def __repr__(self) -> str:
        return f"VarId(method={self.method!r}, slot={self.slot!r})"


class Site(NamedTuple):
    """The abstract object allocated at ``method:label``."""

    method: str
    label: int
    kind: str = "site"  # constant tag: never pass it

    def __repr__(self) -> str:
        return f"Site(method={self.method!r}, label={self.label!r})"


class Placeholder(NamedTuple):
    """Stand-in object for reference parameter ``index`` of ``method``: the
    artifact grammar keeps it (``method?i``), but no analysis makes one."""

    method: str
    index: int
    kind: str = "placeholder"  # constant tag: never pass it

    def __repr__(self) -> str:
        return f"Placeholder(method={self.method!r}, index={self.index!r})"


# The builder, ``identifiers`` and the codec in ``ptg`` make identifiers, and
# the line reader makes instructions, straight from their field tuple, the
# kind tag last, which skips the named tuples' Python-level constructor.
_tuple_new = tuple.__new__


#: A statement's resolved operands, five items ``mark, kind, a, b, c``: its
#: method's ``Method.mark``, its instruction's class, and by kind
#:
#: ============  =========================  ==================  =====
#: kind          a                          b                   c
#: ============  =========================  ==================  =====
#: Alloc         x                          ``{Site}``          None
#: Copy          x                          y                   None
#: AssignNull    x                          None                None
#: FieldStore    x                          y                   f
#: FieldLoad     x                          y                   f
#: Return        x, or None                 the return carrier  None
#: Call          the receiver, or None      the arguments       None
#: otherwise     None                       None                None
#: ============  =========================  ==================  =====
#:
#: with every variable a ``VarId`` and ``{Site}`` the allocation site's
#: singleton object set.  The mark is neither the statement nor the method,
#: either of which would make a reference cycle.
Operands = tuple


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
    #: The object that starts each of the body's statements' ``Operands``,
    #: which the builder makes for the method; None for a method built by
    #: hand.  It is derived, so it takes no part in equality, hashing or
    #: ``repr``, and ``dataclasses.replace`` drops it.
    mark: object = field(default=None, init=False, repr=False, compare=False)

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


Identifier = Union[VarId, Placeholder, Site]


def identifiers(p: Program) -> dict[Identifier | str, Identifier]:
    """Every variable and object of ``p``, each mapped to itself, in program
    order: per method, its slots 0 to ``var_count`` (the last is the return
    carrier), a ``Placeholder`` per parameter and a ``Site`` per allocation
    statement.  Each is also keyed by its full text as an edge line writes
    it (``main/0``, ``main?0``, ``main:3``), all the texts after all the
    identifiers.  The null object belongs to every program and is not here.

    This is the one place that says which identifiers a program has.  The
    table is made from ``p`` alone, on each call, and nothing else adds to
    it."""
    return identifier_tables(p)[0]


def identifier_tables(
    p: Program,
) -> tuple[dict[Identifier | str, Identifier], dict[str, dict[str, Identifier]]]:
    """``identifiers(p)``, and per method name a table of its identifiers,
    the same objects, keyed by their scoped text: the full text without the
    method's name (``/0``, ``?0``, ``:3``), as an artifact entry of that
    method writes them."""
    ids: list = []
    texts: list[str] = []
    scoped: dict[str, dict[str, Identifier]] = {}
    for m in p.methods:
        name = m.name
        slots = range(m.var_count + 1)
        params = range(len(m.params))
        labels = [s.label for s in m.body if isinstance(s.instr, Alloc)]
        own = [_tuple_new(VarId, (name, k, "var")) for k in slots]
        own += [_tuple_new(Placeholder, (name, k, "placeholder")) for k in params]
        own += [_tuple_new(Site, (name, k, "site")) for k in labels]
        local = [f"/{k}" for k in slots] + [f"?{k}" for k in params] + [f":{k}" for k in labels]
        ids += own
        texts += [name + text for text in local]
        scoped[name] = dict(zip(local, own))
    table: dict = dict(zip(ids, ids))
    table.update(zip(texts, ids))
    return table, scoped


# ---------------------------------------------------------------------------
# The collector pause around the entry points
# ---------------------------------------------------------------------------

_F = TypeVar("_F", bound=Callable[..., object])


def gc_paused(fn: _F) -> _F:
    """Run ``fn`` with the cyclic garbage collector off, and turn it back on
    when ``fn`` returns or raises if it was on when the call began, so a
    nested call, or a caller that turned it off, keeps its state.

    The entry points a caller of the package reaches are guarded:
    ``parse_program``, ``analyze_inter``, ``emit_artwork``,
    ``optimize_artwork``, ``encode``, ``decode``, ``parse_artwork``,
    ``regen_inter``, ``tamper`` and ``rq2_campaign`` (``generate_corpus``
    is not guarded).
    The premise is that the package makes no reference cycles, on any path,
    a rejected input's included (pinned in ``tests/test_no_cycles.py``):
    reference counting frees everything these calls build, so a collector
    pass inside one only traverses live objects and frees nothing.

    The switch is process-wide.  Another thread that runs while a guarded
    call is in progress runs without the collector too, and if it turns the
    collector on, the rest of the guarded call runs with it; either way only
    speed changes, never a result.  Cyclic garbage made anywhere during a
    guarded call is collected at the next pass after it."""

    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Builder, line reader, scanner / parser
# ---------------------------------------------------------------------------


#: A fault the builder keeps until the whole text is read: the error class
#: and its message.
_Fault = tuple[type[ArtError], str]


class _Builder:
    """Takes a program's methods and statements in text order from either
    reader.  It resolves each statement's operands as the statement arrives,
    which assigns the slots, and keeps each method's first statement at
    fault; it checks the jump targets at the end of the method, once every
    label is known.  It raises the faults in the order the module docstring
    gives.

    A fault is kept as its error class and message, and the error is made
    only when it is raised: a kept error object would make a cycle (error,
    traceback, frame, builder, error) that holds the builder alive until a
    collector pass."""

    def __init__(self) -> None:
        self.methods: list[Method] = []
        #: per method: its first statement at fault (or None) and its calls
        self.deferred: list[tuple[_Fault | None, list[LabeledStatement]]] = []

    def begin(self, name: str, params: tuple[str, ...]) -> None:
        """Start a method; its statements follow through ``add``."""
        self.name = name
        self.params = params
        self.body: list[LabeledStatement] = []
        #: variable name -> identifier, in slot order: the parameters, then
        #: the locals in order of first assignment
        self.vars = {p: _tuple_new(VarId, (name, k, "var")) for k, p in enumerate(params)}
        #: what starts each of the method's statements' ``Operands``
        self.mark = object()
        self.labels: set[int] = set()
        #: the resolved jumps and calls, and each resolved return with the
        #: variable it returns: its carrier is known only at the end
        self.jumps: list[LabeledStatement] = []
        self.calls: list[LabeledStatement] = []
        self.returns: list[tuple[LabeledStatement, VarId | None]] = []
        #: the first statement at fault: a bad label or a read before any
        #: assignment; nothing after it is resolved
        self.fault: _Fault | None = None

    def assign(self, x: str) -> VarId:
        """The identifier of the variable ``x`` a statement assigns; a new
        variable gets the next slot."""
        v = self.vars.get(x)
        if v is None:
            v = self.vars[x] = _tuple_new(VarId, (self.name, len(self.vars), "var"))
        return v

    def add(self, label: int, instr: Instr) -> None:
        """Take the method's next statement.  Unless an earlier statement is
        at fault, check its label, then resolve its operands: the variables
        it reads, in the order it names them, then the one it assigns.  A
        read of a variable no earlier statement assigns is a fault."""
        s = _new_statement(LabeledStatement)
        _set_label(s, label)
        _set_instr(s, instr)
        self.body.append(s)
        labels = self.labels
        if self.fault is None:
            if label <= 0:
                self.fault = ParseError, f"label {label} in method '{self.name}' must be positive"
            elif label in labels:
                self.fault = DuplicateNameError, f"duplicate label {label} in method '{self.name}'"
            else:
                vars_, mark = self.vars, self.mark
                kind = instr.__class__
                try:
                    if kind is Alloc:
                        site = _tuple_new(Site, (self.name, label, "site"))
                        _set_operands(s, (mark, kind, self.assign(instr.x), frozenset((site,)), None))
                    elif kind is FieldStore:
                        _set_operands(s, (mark, kind, vars_[instr.x], vars_[instr.y], instr.f))
                    elif kind is FieldLoad:
                        y = vars_[instr.y]
                        _set_operands(s, (mark, kind, self.assign(instr.x), y, instr.f))
                    elif kind is Copy:
                        y = vars_[instr.y]
                        _set_operands(s, (mark, kind, self.assign(instr.x), y, None))
                    elif kind is AssignNull:
                        _set_operands(s, (mark, kind, self.assign(instr.x), None, None))
                    elif kind is Call:
                        args = tuple([vars_[a] for a in instr.args])
                        bind = instr.bind
                        _set_operands(s, (mark, kind, None if bind is None else self.assign(bind), args, None))
                        self.calls.append(s)
                    elif kind is Return:
                        self.returns.append((s, None if instr.x is None else vars_[instr.x]))
                    else:
                        if kind is Branch or kind is Goto:
                            self.jumps.append(s)
                        _set_operands(s, (mark, kind, None, None, None))
                except KeyError as exc:
                    self.fault = (
                        ResolutionError,
                        f"variable '{exc.args[0]}' used at {self.name}:{label} before any assignment",
                    )
        labels.add(label)

    def end(self) -> None:
        """Close the method: a duplicate parameter is raised here, at the
        end of its method."""
        name, params = self.name, self.params
        for k, p in enumerate(params):
            if p in params[:k]:
                raise DuplicateNameError(f"duplicate parameter '{p}' in method '{name}'")
        # The jumps before the first statement at fault, checked against
        # every label.
        fault, labels = self.fault, self.labels
        for s in self.jumps:
            target = s.instr.target
            if target not in labels:
                fault = ResolutionError, f"unknown branch label {target} at {name}:{s.label}"
                break
        self.deferred.append((fault, self.calls))
        vars_ = self.vars
        slot_of = dict(zip(vars_, range(len(vars_))))
        m = Method(name=name, params=params, body=tuple(self.body), slot_of=slot_of)
        if fault is None:
            mark = self.mark
            ret = _tuple_new(VarId, (name, len(vars_), "var"))
            for s, x in self.returns:
                _set_operands(s, (mark, Return, x, ret, None))
            object.__setattr__(m, "mark", mark)
        self.methods.append(m)

    def program(self) -> Program:
        """The program, once the whole text has been read; raises the
        program's faults first, then each method's."""
        if not self.methods:
            raise ParseError("expected at least one method")
        program = Program(methods=tuple(self.methods), entry="main")
        names = Counter(m.name for m in program.methods)
        for m in program.methods:
            if names[m.name] > 1:
                raise DuplicateNameError(f"duplicate method name '{m.name}'")
        if program.entry not in names:
            raise ResolutionError(f"program has no entry method '{program.entry}'")
        if program.method(program.entry).params:
            raise ResolutionError(f"entry method '{program.entry}' must take no parameters")
        for m, (fault, calls) in zip(program.methods, self.deferred):
            if fault is not None:
                error, message = fault
                raise error(message)
            for s in calls:
                for t in s.instr.targets:
                    if t not in names:
                        raise ResolutionError(f"unknown call target '{t}' at {m.name}:{s.label}")
        return program


#: A name that is no keyword, and a comma-separated list of them.  Only
#: spaces may separate the tokens of a canonical line.
_NAME = rf"(?!(?:{'|'.join(sorted(KEYWORDS))})(?![A-Za-z0-9_]))[A-Za-z_][A-Za-z0-9_]*"
_NAMES = rf"{_NAME}(?: *, *{_NAME})*"
_HEADER_RE = re.compile(rf" *method +({_NAME}) *\( *((?:{_NAMES})?) *\) *\{{ *")
#: One whole statement line.  Each instruction kind's alternative ends in an
#: empty group named after the kind, so the kind is the match's ``lastgroup``.
_STMT_RE = re.compile(
    rf" *(?P<label>[0-9]+) *: *(?:"
    # x = new T, x = y.f, x = y, x = null, x.f = y
    rf"(?P<x>{_NAME}) *(?:= *(?:new +(?P<tag>{_NAME})(?P<alloc>)"
    rf"|(?P<y>{_NAME})(?: *\. *(?P<f>{_NAME})(?P<load>)|(?P<copy>))"
    rf"|null(?P<null>))"
    rf"|\. *(?P<sf>{_NAME}) *= *(?P<sy>{_NAME})(?P<store>))"
    rf"|nop(?P<nop>)"
    rf"|if +goto +(?P<bt>[0-9]+)(?P<branch>)"
    rf"|goto +(?P<gt>[0-9]+)(?P<goto>)"
    rf"|(?:(?P<bind>{_NAME}) *= *)?call *\[ *(?P<targets>{_NAMES}) *\]"
    rf" *\( *(?P<args>(?:{_NAMES})?) *\)(?P<call>)"
    rf"|return(?: +(?P<rx>{_NAME}))?(?P<ret>)"
    rf") *"
)


def _split_names(text: str) -> tuple[str, ...]:
    """The names of a matched ``_NAMES`` list (names hold no spaces)."""
    return tuple(text.replace(" ", "").split(",")) if text else ()


def _read_lines(text: str) -> Program | None:
    """The program of ``text`` read line by line, or None when a line is not
    canonical: a method header, a statement, a lone ``}`` or a blank line,
    each whole (a label or jump target ``int`` rejects counts as not
    canonical), or when a method repeats a parameter, as a later line may
    hold a scanner error.  Every canonical line is read exactly as the token
    parser reads it, so a None leaves every message and position to that
    parser."""
    b = _Builder()
    add = b.add
    statement = _STMT_RE.fullmatch
    open_method = False
    try:
        for line in text.splitlines():
            m = statement(line)
            if m is None:
                rest = line.strip()
                if not rest:
                    continue
                if rest == "}" and open_method:
                    b.end()
                    open_method = False
                    continue
                h = _HEADER_RE.fullmatch(line)
                if h is None or open_method:
                    return None
                b.begin(h[1], _split_names(h[2]))
                open_method = True
                continue
            if not open_method:
                return None
            kind = m.lastgroup
            if kind == "alloc":
                instr: Instr = _tuple_new(Alloc, (m["x"], m["tag"], "alloc"))
            elif kind == "store":
                instr = _tuple_new(FieldStore, (m["x"], m["sf"], m["sy"], "field_store"))
            elif kind == "nop":
                instr = _tuple_new(Nop, ("nop",))
            elif kind == "branch":
                instr = _tuple_new(Branch, (int(m["bt"]), "branch"))
            elif kind == "goto":
                instr = _tuple_new(Goto, (int(m["gt"]), "goto"))
            elif kind == "call":
                targets, args = _split_names(m["targets"]), _split_names(m["args"])
                instr = _tuple_new(Call, (m["bind"], targets, args, "call"))
            elif kind == "load":
                instr = _tuple_new(FieldLoad, (m["x"], m["y"], m["f"], "field_load"))
            elif kind == "ret":
                instr = _tuple_new(Return, (m["rx"], "return"))
            elif kind == "copy":
                instr = _tuple_new(Copy, (m["x"], m["y"], "copy"))
            else:
                instr = _tuple_new(AssignNull, (m["x"], "assign_null"))
            add(int(m["label"]), instr)
    except (ValueError, DuplicateNameError):  # a huge integer; a repeated parameter
        return None
    if open_method:
        return None
    return b.program()


#: One token (a name, an integer or a punctuation mark) or, in the group,
#: a character no token starts with.  Matching skips the whitespace between
#: tokens.
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[(){}\[\],:.=]|(\S)")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIGITS = frozenset("0123456789")
#: Stands for the token past the last one: it equals no expected text and
#: starts no name or integer, so lookahead needs no bounds check.
_END = " "


def _scan(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """The tokens of ``text`` and the 1-based line and column of each."""
    toks: list[str] = []
    where: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN_RE.finditer(line.partition("#")[0]):
            if m[1] is not None:
                raise ParseError(f"unexpected character {m[1]!r}", lineno, m.start() + 1)
            toks.append(m[0])
            where.append((lineno, m.start() + 1))
    return toks, where


class _Parser:
    """Recursive descent over the scanned tokens, handing each method and
    statement to a builder.  Each rule takes the index of its first token
    and returns what it parsed with the index after it; a token's kind is
    read off its first character."""

    def __init__(self, toks: list[str], where: list[tuple[int, int]], builder: _Builder):
        self.n = len(toks)
        self.toks = toks + [_END]
        self.where = where + [(0, 0)]  # line 0 is no token's line
        self.builder = builder

    def error(self, message: str, i: int) -> ParseError:
        if i < self.n:
            return ParseError(f"{message}, found {self.toks[i]!r}", *self.where[i])
        return ParseError(f"{message}, found end of input", *self.where[self.n - 1])

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
        try:
            return int(t)
        except ValueError:  # past the interpreter's digit limit
            raise ParseError(f"integer too long ({len(t)} digits)", *self.where[i]) from None

    def names(self, i: int) -> tuple[tuple[str, ...], int]:
        """``NAME ("," NAME)*``"""
        toks = self.toks
        found = [self.name(i)]
        i += 1
        while toks[i] == ",":
            found.append(self.name(i + 1))
            i += 2
        return tuple(found), i

    def program(self) -> None:
        i = 0
        while i < self.n:
            i = self.method(i)

    def method(self, i: int) -> int:
        toks = self.toks
        where = self.where
        i = self.expect("method", i)
        name = self.name(i)
        i = self.expect("(", i + 1)
        params: tuple[str, ...] = ()
        if toks[i] != ")":
            params, i = self.names(i)
        i = self.expect("{", self.expect(")", i))
        self.builder.begin(name, params)
        add = self.builder.add
        while toks[i] != "}":
            # stmt := INT ":" instr, and the next statement starts a new line
            if toks[i][0] not in _DIGITS:
                raise self.error("expected statement label", i)
            if toks[i + 1] != ":":
                raise self.error("expected ':'", i + 1)
            label = self.integer(i)
            line = where[i][0]
            instr, i = self.instr(i + 2)
            if toks[i] != "}" and where[i][0] == line:
                raise ParseError("expected end of line after statement", *where[i])
            add(label, instr)
        self.builder.end()
        return i + 1

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


@gc_paused
def parse_program(text: str) -> Program:
    """Parse IR text into a Program with all invariants established.

    Deterministic: identical text yields a structurally identical Program.
    Raises ParseError, ResolutionError, or DuplicateNameError, in the order
    the module docstring gives.
    """
    program = _read_lines(text)
    if program is None:
        builder = _Builder()
        _Parser(*_scan(text), builder).program()
        program = builder.program()
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
class ControlFlowGraph:
    """A method's block graph.  A block is a maximal run of statements that
    control enters only at the first (the leader, ``block[0].label``) and
    leaves only after the last; inside a block each statement flows into
    the next one alone.

    Blocks are numbered in the order every engine walks them: a topological
    order of the graph minus its back-edges, smallest leader first.  So an
    edge that is no back-edge goes to a higher-numbered block, and block 0
    need not be the block Entry flows into (an unreachable block can come
    first).  The statement-level predecessor relation ``pred`` is a view
    derived on demand for the round-robin oracle; the engines never read
    it."""

    #: the maximal basic blocks, each a tuple of statements, in walk order
    blocks: tuple[tuple[LabeledStatement, ...], ...]
    #: per block, the blocks its last statement flows to, in the order the
    #: statement names them (fall-through first), Exit left out
    block_succ: tuple[tuple[int, ...], ...]
    #: (source statement label, header statement label) dominator back-edges
    back_edges: frozenset[tuple[int, int]]
    #: labels of natural-loop headers (back-edge targets)
    loop_headers: frozenset[int]
    #: per block, the points whose OUT flows into its leader: Entry for the
    #: block that holds the body's first statement, then each predecessor
    #: block's last statement, in body order
    inputs: tuple[tuple[Node, ...], ...] = field(repr=False, compare=False)
    #: the points whose OUT flows into Exit: the exit blocks' last
    #: statements, or Entry for an empty body
    exit_inputs: tuple[Node, ...] = field(repr=False, compare=False)
    #: per loop-header block, the points of its ``inputs`` that flow in
    #: along forward edges (back-edge sources left out)
    forward_inputs: dict[int, tuple[Node, ...]] = field(repr=False, compare=False)

    @cached_property
    def position(self) -> dict[int, tuple[int, int]]:
        """Statement label -> (its block, its offset in the block)."""
        return {s.label: (b, k) for b, block in enumerate(self.blocks) for k, s in enumerate(block)}

    @cached_property
    def pred(self) -> dict[Node, tuple[Node, ...]]:
        """Statement-level predecessor relation, keyed Entry, Exit, then
        block by block; each point's predecessors in body order after
        Entry."""
        pred: dict[Node, tuple[Node, ...]] = {ENTRY: (), EXIT: self.exit_inputs}
        for stmts, inputs in zip(self.blocks, self.inputs):
            pred[stmts[0].label] = inputs
            for s, t in zip(stmts, stmts[1:]):
                pred[t.label] = (s.label,)
        return pred


def _natural_loop(pred: list[list[int]], h: int, latches: list[int]) -> set[int]:
    """The blocks of a natural loop: header block ``h`` and every block that
    reaches one of ``latches`` (the sources of its back-edges) without
    passing ``h``."""
    members = {h}
    while latches:
        u = latches.pop()
        if u not in members:
            members.add(u)
            latches += pred[u]
    return members


def build_cfg(m: Method) -> ControlFlowGraph:
    """Build the block graph: maximal basic blocks, numbered in a
    deterministic topological order, their successors and predecessors, and
    the back-edges.

    The leaders are the first statement, every jump target and every
    statement after a control transfer; only the control statements are
    read to find them.  One depth-first search from the entry block finds
    the back-edges: the edges into a block on the current search path.  In
    a reducible graph these are exactly the edges whose target dominates
    their source, whatever order the search takes.

    The blocks keep their body order, with no sort, when that is already
    the walk order: the leaders' labels rise in body order and every edge
    that is no back-edge goes to a later block, as in every body the
    corpus generator writes.  Any other body is numbered by Kahn's
    algorithm over a heap keyed by leader label, then renumbered.  Raises
    IrreducibleCfgError when a back-edge's natural loop reaches the entry
    block without passing its header (the header does not dominate the
    source), or when the graph minus its back-edges keeps a cycle among
    unreachable blocks."""
    body = m.body
    n = len(body)
    at = {s.label: i for i, s in enumerate(body)}
    starts = {0}
    for i, s in enumerate(body):
        kind = s.instr.__class__
        if kind in _CONTROL:
            starts.add(i + 1)
            if kind is not Return:
                starts.add(at[s.instr.target])
    starts.discard(n)  # past the last statement (or an empty body)
    starts = sorted(starts)
    ends = starts[1:] + [n] if starts else []
    block_at = dict(zip(starts, range(len(starts))))
    blocks: list[tuple[LabeledStatement, ...]] = []
    leader: list[int] = []
    last: list[int] = []
    # Each block's successors, read off its last statement (which flows to
    # leaders only), and the blocks that flow to Exit.
    bsucc: list[tuple[int, ...]] = []
    exits: list[int] = []
    for b, (a, z) in enumerate(zip(starts, ends)):
        stmts = body[a:z]
        blocks.append(stmts)
        leader.append(stmts[0].label)
        s = stmts[-1]
        last.append(s.label)
        kind = s.instr.__class__
        if kind is Goto:
            out: tuple[int, ...] = (block_at[at[s.instr.target]],)
        elif kind is Return:
            out = ()
        else:  # the next block, or Exit after the last statement
            out = (b + 1,) if z < n else ()
            if kind is Branch and block_at[at[s.instr.target]] not in out:
                out += (block_at[at[s.instr.target]],)
        if kind is Return or (z == n and kind is not Goto):
            exits.append(b)
        bsucc.append(out)
    bpred: list[list[int]] = [[] for _ in blocks]
    inputs: list[list[Node]] = [[] for _ in blocks]
    if blocks:
        inputs[0].append(ENTRY)
    for u, vs in enumerate(bsucc):
        for v in vs:
            bpred[v].append(u)
            inputs[v].append(last[u])

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

    if any(v and 0 in _natural_loop(bpred, v, [u]) for u, v in back):
        raise _not_natural(m)
    back_edges = frozenset([(last[u], leader[v]) for u, v in back])
    forward_inputs = {
        v: tuple([p for p in inputs[v] if (p, leader[v]) not in back_edges])
        for v in {v for _, v in back}
    }
    # Body order is the walk order when the leaders rise and every edge
    # that is no back-edge goes to a later block: Kahn's rule below then
    # takes the blocks in body order, as each one's forward predecessors
    # come before it and every other ready block has a larger leader.
    if not (
        all(map(operator.lt, leader, leader[1:]))
        and all([u < v or (u, v) in back for u, vs in enumerate(bsucc) for v in vs])
    ):
        # Kahn's algorithm over the block graph minus its back-edges,
        # smallest leader first: the order the blocks are numbered in.
        fwd = list(bsucc)
        indeg = list(map(len, bpred))
        for u, v in back:
            fwd[u] = tuple([w for w in fwd[u] if w != v])
            indeg[v] -= 1
        heap = [(leader[b], b) for b, d in enumerate(indeg) if d == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            _, u = heapq.heappop(heap)
            order.append(u)
            for v in fwd[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    heapq.heappush(heap, (leader[v], v))
        if len(order) != len(blocks):
            raise _not_natural(m)
        num = [0] * len(order)  # body-order block -> its number
        for r, b in enumerate(order):
            num[b] = r
        blocks = [blocks[b] for b in order]
        bsucc = [tuple([num[v] for v in bsucc[b]]) for b in order]
        inputs = [inputs[b] for b in order]
        forward_inputs = {num[v]: ins for v, ins in forward_inputs.items()}
    return ControlFlowGraph(
        blocks=tuple(blocks),
        block_succ=tuple(bsucc),
        back_edges=back_edges,
        loop_headers=frozenset([h for _, h in back_edges]),
        inputs=tuple([tuple(ins) for ins in inputs]),
        exit_inputs=tuple([last[u] for u in exits]) if blocks else (ENTRY,),
        forward_inputs=forward_inputs,
    )


def _not_natural(m: Method) -> IrreducibleCfgError:
    return IrreducibleCfgError(f"method '{m.name}' has a cycle that is not a natural loop")


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
    """Enumerate call edges and find the methods on a call-graph cycle via
    SCCs."""
    edges: list[tuple[CallSite, str, str]] = []
    callees: dict[str, set[str]] = {m.name: set() for m in p.methods}
    for m in p.methods:
        for s in m.body:
            if isinstance(s.instr, Call):
                for t in s.instr.targets:
                    edges.append(((m.name, s.label), m.name, t))
                    callees[m.name].add(t)

    # Tarjan's algorithm, with iterator frames as in build_cfg's search and
    # sorted roots and children for determinism.  Tarjan's stack is
    # ``on_stack``, a dict kept as an ordered set: its key test is the
    # on-stack test, and ``popitem`` pops the latest node.
    adjacency = {n: sorted(ts) for n, ts in callees.items()}
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: dict[str, None] = {}
    sccs: list[frozenset[str]] = []
    for root in sorted(adjacency):
        if root in index_of:
            continue
        index_of[root] = low[root] = len(index_of)
        on_stack[root] = None
        work = [(root, iter(adjacency[root]))]
        while work:
            u, children = work[-1]
            for w in children:
                if w not in index_of:
                    index_of[w] = low[w] = len(index_of)
                    on_stack[w] = None
                    work.append((w, iter(adjacency[w])))
                    break
                if w in on_stack:
                    low[u] = min(low[u], index_of[w])
            else:
                work.pop()
                if work:
                    v = work[-1][0]
                    low[v] = min(low[v], low[u])
                if low[u] == index_of[u]:
                    comp: set[str] = set()
                    while u not in comp:
                        comp.add(on_stack.popitem()[0])
                    sccs.append(frozenset(comp))

    cyclic = frozenset(
        n
        for scc in sccs
        if len(scc) > 1 or any(c in callees[c] for c in scc)
        for n in scc
    )
    return CallGraph(edges=tuple(edges), sccs=tuple(sccs), recursive_methods=cyclic)


class ProgramIndex:
    """What every engine derives from a parsed program: methods and CFGs by
    name, and the call graph.

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
        self.call_graph: CallGraph = build_call_graph(program)

    @classmethod
    def of(cls, p: Program) -> "ProgramIndex":
        last, index = cls._last
        if last is not p:
            index = cls(p)
            cls._last = (p, index)
        return index
