"""Helpers shared by several test modules (not a test module itself)."""

from artpta import ARITH, LOOPY, REC, Artwork, CorpusConfig, generate_corpus
from artpta.ptg import FieldEdge, VarEdge, parse_binding_line


def parse_edge_line(line: str) -> VarEdge | FieldEdge:
    """Parse one line as ``render_edge`` writes it, a key, its arrow and one
    target: a variable edge ``(v, o)`` (``m/s -> o``) or a field edge ``(s,
    f, t)`` (``s .f-> t``).  Without its arrow it is a binding line of one
    target, which ``parse_binding_line`` reads; errors quote ``line``."""
    parts = [part for part in line.split(" ") if part]
    if len(parts) == 3 and parts[1].endswith("->"):
        text = f"{parts[0]} {parts[1][:-2]} {parts[2]}"
        try:
            left, fname, targets = parse_binding_line(text)
        except ValueError as exc:
            raise ValueError(str(exc).replace(repr(text), repr(line))) from None
        if len(targets) == 1:
            return (left, targets[0]) if fname is None else (left, fname, targets[0])
    raise ValueError(f"bad edge line {line!r}")


def only_empty_entries(a: Artwork) -> bool:
    """True when every entry of ``a`` is the empty graph, so no reductive
    tampering has an element to take away."""
    return all(g.is_empty() for entries in (a.i_loop, a.i_in, a.i_out) for g in entries.values())


#: one self-recursive method of 300 statements, the benchmark's roundtrip-large shape
LARGE = {"methods_min": 1, "methods_max": 1, "stmts_min": 300, "stmts_max": 300, "recursion_prob": 1.0}


def entry_sources() -> dict[str, str]:
    """The programs the entry-meaning tests check, by name: the three
    fixtures, the first 20 seed-1 default-shape programs and the first two
    seed-1 programs of the ``LARGE`` shape."""
    sources = {"loopy": LOOPY, "rec": REC, "arith": ARITH}
    for name, text in generate_corpus(CorpusConfig(program_count=20, seed=1)):
        if name.startswith("gen"):
            sources[f"default-{name}"] = text
    for name, text in generate_corpus(CorpusConfig(program_count=2, seed=1, **LARGE)):
        if name.startswith("gen"):
            sources[f"large-{name}"] = text
    return sources
