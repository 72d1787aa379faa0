"""Hand-written fixtures and a seeded random program generator for batch and
acceptance runs.

LOOPY: a single loop that re-allocates and stores into a field, so the
loop-header value only stabilizes after iterating; at the fixed point the
field ``f`` of variable ``c`` reaches three allocation sites of two type
tags.  REC: ``main`` calls ``foo`` which calls itself; ``foo``'s IN summary
carries the argument object and its null-valued field, and its OUT summary
carries a heap edge created only after the recursive call.  ARITH: a loop
whose body touches no references, so its ``[loop]`` entry is empty.

Generated programs are built from structured segments only (straight runs,
properly nested loops, guarded calls), which keeps every CFG reducible.  A
jump row names its target by a mark, which ``_MethodBuilder.finish`` turns
into a label by appending to that row alone; no row is searched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LOOPY = """\
method main() {
  1: c = new C
  2: nop
  3: t = new F1
  4: c.f = t
  5: if goto 13
  6: c = new C
  7: c.f = t
  8: if goto 11
  9: t = new F1
  10: goto 12
  11: t = new F2
  12: goto 5
  13: x = c.f
}
"""

REC = """\
method main() {
  1: y = null
  2: call [foo](y)
}
method foo(p) {
  1: if goto 9
  2: nop
  3: n = null
  4: x = new A
  5: q = new B
  6: x.f = n
  7: call [foo](x)
  8: q.f = x
  9: return
}
"""

ARITH = """\
method main() {
  1: a = new T
  2: a.f = a
  3: if goto 6
  4: nop
  5: goto 3
  6: b = a.f
}
"""

FIXTURES = (("loopy.ir", LOOPY), ("rec.ir", REC), ("arith.ir", ARITH))

_TAGS = ("A", "B", "C", "D")
_FIELDS = ("f", "g")
# Scales the share of body segments that open a loop (``_LOOP_PROB * 0.35``).
_LOOP_PROB = 0.85


@dataclass(frozen=True)
class CorpusConfig:
    """The shape of a generated corpus.  Each method draws a budget from
    ``[stmts_min, stmts_max]`` and grows its body by whole segments (a
    loop, a call, a plain statement) while it has fewer rows than that
    budget; a guarded recursive call, a return and a closing ``nop`` may
    follow.  So every method has at least ``stmts_min`` statements, but
    ``stmts_max`` bounds the budget, not the length: at seed 1, 596 of
    the 2,579 methods of a 1,020-program default-shape corpus exceed 28
    statements (the longest has 44), and every method of the 300-statement
    single-method shape has 303 to 316."""

    program_count: int = 20
    methods_min: int = 1
    methods_max: int = 4
    stmts_min: int = 8
    stmts_max: int = 28
    recursion_prob: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.program_count < 0:
            raise ValueError("program_count must be non-negative")
        if not (1 <= self.methods_min <= self.methods_max):
            raise ValueError("empty methods range")
        if not (1 <= self.stmts_min <= self.stmts_max):
            raise ValueError("empty statements range")
        if not 0.0 <= self.recursion_prob <= 1.0:
            raise ValueError("recursion_prob must be in [0, 1]")


class _MethodBuilder:
    """Emits one method's rows in order.  A jump row is emitted as the text
    before its target plus the mark it jumps to (``emit("goto ", header)``);
    ``place`` binds a mark to the next row emitted, and ``finish`` appends
    that row's 1-based label to each jump row once the body is complete."""

    def __init__(self, rng: random.Random, name: str, params: tuple[str, ...]):
        self.rng = rng
        self.name = name
        self.params = params
        self.rows: list[str] = []  # instruction text; a jump row lacks its label
        self.jumps: list[tuple[int, int]] = []  # (jump row index, mark id)
        self.marks: dict[int, int] = {}  # mark id -> row index it labels
        self.pending: list[int] = []
        self.next_mark = 0
        self.defined: list[str] = list(params)  # in order: rng.choice draws by position
        self.defined_set: set[str] = set(params)
        self.next_var = 0

    def mark(self) -> int:
        self.next_mark += 1
        return self.next_mark

    def place(self, mark: int) -> None:
        self.pending.append(mark)

    def emit(self, text: str, target: int | None = None) -> None:
        for mid in self.pending:
            self.marks[mid] = len(self.rows)
        self.pending.clear()
        if target is not None:
            self.jumps.append((len(self.rows), target))
        self.rows.append(text)

    def fresh_var(self) -> str:
        self.next_var += 1
        return f"v{self.next_var}"

    def def_var(self) -> str:
        """A variable to assign: usually reuse, sometimes introduce."""
        if self.defined and self.rng.random() < 0.6:
            return self.rng.choice(self.defined)
        return self.fresh_var()

    def note_def(self, v: str) -> None:
        if v not in self.defined_set:
            self.defined_set.add(v)
            self.defined.append(v)

    def pick(self) -> str:
        return self.rng.choice(self.defined)

    def alloc(self) -> None:
        v = self.def_var()
        self.emit(f"{v} = new {self.rng.choice(_TAGS)}")
        self.note_def(v)

    def plain(self) -> None:
        roll = self.rng.random()
        if roll < 0.35 or not self.defined:
            self.alloc()
        elif roll < 0.60:
            self.emit(f"{self.pick()}.{self.rng.choice(_FIELDS)} = {self.pick()}")
        elif roll < 0.80:
            v = self.def_var()
            self.emit(f"{v} = {self.pick()}.{self.rng.choice(_FIELDS)}")
            self.note_def(v)
        elif roll < 0.90:
            v = self.def_var()
            self.emit(f"{v} = {self.pick()}")
            self.note_def(v)
        else:
            v = self.def_var()
            self.emit(f"{v} = null")
            self.note_def(v)

    def loop(self, cfg: CorpusConfig, depth: int, target_groups=None) -> None:
        arithmetic = self.rng.random() < 0.18
        if not arithmetic:
            anchor = self.fresh_var()
            self.emit(f"{anchor} = new {self.rng.choice(_TAGS)}")
            self.note_def(anchor)
        header = self.mark()
        after = self.mark()
        self.place(header)
        if not arithmetic and target_groups and self.rng.random() < 0.25:
            # call-headed loop: the back-edge targets the call statement
            self.call(target_groups, bindable=True)
        self.emit("if goto ", after)
        if arithmetic:
            for _ in range(self.rng.randint(1, 2)):
                self.emit("nop")
        else:
            grown = self.fresh_var()
            self.emit(f"{grown} = new {self.rng.choice(_TAGS)}")
            self.note_def(grown)
            self.emit(f"{anchor}.{self.rng.choice(_FIELDS)} = {grown}")
            for _ in range(self.rng.randint(0, 2)):
                self.plain()
            if target_groups and self.rng.random() < 0.3:
                self.call(target_groups, bindable=True)
            if depth < 2 and self.rng.random() < 0.25:
                self.loop(cfg, depth + 1, target_groups)
        self.emit("goto ", header)
        self.place(after)
        self.emit("nop")

    def call(self, target_groups: dict[int, list[str]], bindable: bool) -> None:
        arities = sorted(target_groups)
        arity = self.rng.choice(arities)
        group = target_groups[arity]
        targets = [self.rng.choice(group)]
        if len(group) > 1 and self.rng.random() < 0.25:
            other = self.rng.choice([t for t in group if t != targets[0]])
            targets.append(other)
        args = [self.pick() for _ in range(arity)]
        call = f"call [{', '.join(targets)}]({', '.join(args)})"
        if bindable and self.rng.random() < 0.5:
            v = self.def_var()
            self.emit(f"{v} = {call}")
            self.note_def(v)
        else:
            self.emit(call)

    def finish(self, returns_value: bool) -> list[str]:
        if returns_value:
            self.emit(f"return {self.pick()}")
        elif self.rng.random() < 0.5:
            self.emit("return")
        for row, mark in self.jumps:
            self.rows[row] += str(self.marks[mark] + 1)
        lines = [f"method {self.name}({', '.join(self.params)}) {{"]
        lines.extend(f"  {row}: {text}" for row, text in enumerate(self.rows, 1))
        lines.append("}")
        return lines


def _generate_program(rng: random.Random, cfg: CorpusConfig) -> str:
    n_methods = rng.randint(cfg.methods_min, cfg.methods_max)
    names = ["main"] + [f"h{i}" for i in range(1, n_methods)]
    arity = {"main": 0}
    for name in names[1:]:
        arity[name] = rng.randint(0, 2)

    recursive_pairs: list[tuple[str, str]] = []
    if rng.random() < cfg.recursion_prob:
        if n_methods == 1:
            recursive_pairs.append(("main", "main"))
        else:
            m = rng.choice(names[1:])
            recursive_pairs.append((m, m))
            others = [n for n in names[1:] if n != m]
            if others and rng.random() < 0.3:
                o = rng.choice(others)
                recursive_pairs.append((m, o))
                recursive_pairs.append((o, m))

    lines: list[str] = []
    for i, name in enumerate(names):
        params = tuple(f"p{j}" for j in range(arity[name]))
        b = _MethodBuilder(rng, name, params)
        b.alloc()
        for p in params:
            if rng.random() < 0.7:
                b.emit(f"{p}.{rng.choice(_FIELDS)} = {b.pick()}")
            if rng.random() < 0.5:
                v = b.def_var()
                b.emit(f"{v} = {p}.{rng.choice(_FIELDS)}")
                b.note_def(v)

        callees = names[i + 1 :]
        target_groups: dict[int, list[str]] = {}
        for t in callees:
            target_groups.setdefault(arity[t], []).append(t)

        budget = rng.randint(cfg.stmts_min, cfg.stmts_max)
        while len(b.rows) < budget:
            roll = rng.random()
            if roll < _LOOP_PROB * 0.35:
                b.loop(cfg, depth=1, target_groups=target_groups or None)
            elif roll < _LOOP_PROB * 0.35 + 0.2 and target_groups:
                b.call(target_groups, bindable=True)
            else:
                b.plain()

        for caller, callee in recursive_pairs:
            if caller != name:
                continue
            skip = b.mark()
            b.emit("if goto ", skip)
            args = ", ".join(b.pick() for _ in range(arity[callee]))
            if rng.random() < 0.4:
                v = b.def_var()
                b.emit(f"{v} = call [{callee}]({args})")
                b.note_def(v)
            else:
                b.emit(f"call [{callee}]({args})")
            b.place(skip)
            b.emit("nop")

        returns_value = name != "main" and rng.random() < 0.6
        lines.extend(b.finish(returns_value))
    return "\n".join(lines) + "\n"


def generate_corpus(cfg: CorpusConfig) -> list[tuple[str, str]]:
    """Deterministic per seed: the fixtures followed by ``program_count``
    generated programs, as (filename, text) pairs."""
    rng = random.Random(cfg.seed)
    out = list(FIXTURES)
    for i in range(cfg.program_count):
        out.append((f"gen{i:03d}.ir", _generate_program(rng, cfg)))
    return out
