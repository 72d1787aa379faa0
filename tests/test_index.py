"""One program index per produce and per verify run, and a consumer that
ships without the producer."""

import ast
import pathlib
import sys

import pytest

from artpta import (
    EMPTY,
    REC,
    CorpusConfig,
    NothingToTamperError,
    PointsToGraph,
    TamperKind,
    analyze_inter,
    decode,
    emit_artwork,
    encode,
    generate_corpus,
    optimize_artwork,
    parse_program,
    regen_inter,
    rq2_campaign,
    tamper,
)
import artpta
from artpta import consumer, ir
from artpta.ir import ProgramIndex
from helpers import only_empty_entries


@pytest.fixture
def builds(count_calls):
    """Counts of ``build_cfg`` and ``build_call_graph`` calls."""
    return count_calls(ir, "build_cfg", "build_call_graph")


def _once_per_method(p):
    return {"build_cfg": len(p.methods), "build_call_graph": 1}


def test_produce_builds_the_index_once(builds):
    p = parse_program(REC)
    r = analyze_inter(p)
    a = emit_artwork(p, r)
    encode(optimize_artwork(p, a))
    assert builds == _once_per_method(p)


def test_verify_builds_the_index_once(builds):
    produced = parse_program(REC)
    data = encode(emit_artwork(produced, analyze_inter(produced)))
    builds.clear()
    p = parse_program(REC)
    a = decode(data, p)
    assert regen_inter(p, a).safe
    assert rq2_campaign(p, a, 10, 1).detected == 10
    assert builds == _once_per_method(p)


def test_add_edge_retries_reuse_the_index(builds):
    p = parse_program(REC)
    a = emit_artwork(p, analyze_inter(p))
    tamper(a, TamperKind.ADD_EDGE, 3, program=p)
    assert builds == _once_per_method(p)


def test_index_memo_is_keyed_by_identity():
    p = parse_program(REC)
    index = ProgramIndex.of(p)
    assert ProgramIndex.of(p) is index
    twin = parse_program(REC)
    assert twin == p
    assert ProgramIndex.of(twin) is not index
    assert ProgramIndex.of(p) is not index  # one entry: the twin displaced it


def test_consumer_does_not_import_the_producer():
    with open(consumer.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert "producer" not in imported


def _package_imports(name):
    """The package modules that the source of ``artpta.<name>`` imports,
    wherever in the file (a ``TYPE_CHECKING`` import counts)."""
    path = pathlib.Path(artpta.__file__).parent / f"{name}.py"
    package = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("artpta")):
            if node.module and node.module != "artpta":
                package.add(node.module.split(".")[-1])
            else:  # ``from . import x`` or ``from artpta import x``
                package.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            package.update(a.name.split(".")[-1] for a in node.names if a.name.startswith("artpta"))
    return package


def test_consumer_imports_only_the_verifier_side_modules():
    package = _package_imports("consumer")
    assert package <= {"ir", "ptg", "equations", "artwork", "errors"}, package
    assert {"ir", "ptg", "equations", "artwork"} <= package


def test_the_verifier_import_closure_is_the_checker_alone():
    # What ships with the verifier: the consumer and the codec, and every
    # package module they import, transitively.
    closure, todo = set(), ["consumer", "artwork"]
    while todo:
        name = todo.pop()
        if name not in closure:
            closure.add(name)
            todo += _package_imports(name)
    assert closure == {"consumer", "artwork", "equations", "ir", "ptg", "errors"}


def test_project_in_is_called_only_from_equations():
    # The IN-summary term is written once, as ``equations.callee_in``; every
    # engine reaches ``ptg.project_in`` through it.
    callers = set()
    for path in sorted(pathlib.Path(artpta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "project_in":
                    callers.add(path.stem)
    assert callers == {"equations"}


def test_only_ptg_reaches_a_graphs_maps():
    # A graph's index maps are read and filled in ``ptg`` alone: no other
    # module reads ``._vars`` or ``._heap`` or takes a private name of ``ptg``.
    reached = set()
    for path in sorted(pathlib.Path(artpta.__file__).parent.glob("*.py")):
        if path.stem == "ptg":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and (
                node.attr in ("_vars", "_heap")
                or (node.attr.startswith("_") and isinstance(node.value, ast.Name) and node.value.id == "ptg")
            ):
                reached.add((path.stem, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "ptg":
                reached.update((path.stem, a.name) for a in node.names if a.name.startswith("_"))
    assert reached == set()


#: What a graph inherits from ``tuple`` that reaches its maps past ``_vars``
#: and ``_heap`` (an index, an unpacking, a membership test) or makes a
#: plain tuple of them (``+``); ``len`` is there too.
_TUPLE_PROTOCOL = ("__getitem__", "__iter__", "__len__", "__contains__", "__add__")
_LARGE = {"methods_min": 1, "methods_max": 1, "stmts_min": 300, "stmts_max": 300, "recursion_prob": 1.0}


def _every_pipeline_path(p):
    """Produce, ``-O``, encode and decode, SAFE, UNSAFE and ``keep_going``
    regeneration, every tampering kind and an rq2 campaign over ``p``;
    returns the verdicts, and whether the artwork has nothing to reduce."""
    a = emit_artwork(p, analyze_inter(p))
    arts = [a, optimize_artwork(p, a)]
    for kind in TamperKind:
        try:
            arts.append(tamper(a, kind, 1, program=p)[0])
        except NothingToTamperError:
            pass
    verdicts = []
    for art in arts:
        decoded = decode(encode(art), p)
        verdicts.append(regen_inter(p, decoded).safe)
        regen_inter(p, decoded, keep_going=True)
    nothing_to_reduce = only_empty_entries(a)
    if nothing_to_reduce:  # rq2 runs no trial
        with pytest.raises(NothingToTamperError):
            rq2_campaign(p, a, 2, 1)
    else:
        rq2_campaign(p, a, 2, 1)
    return verdicts, nothing_to_reduce


def test_only_ptg_uses_a_graphs_tuple_protocol(monkeypatch):
    # A graph is a ``tuple``, so outside ``ptg`` an index or an unpacking
    # would read its maps and ``test_only_ptg_reaches_a_graphs_maps``, which
    # reads attribute names, would not see it.  Here every call of the
    # inherited protocol is recorded with its calling module while the
    # pipeline runs; ``ptg`` reads the maps through it (``_vars`` and
    # ``_heap`` are ``itemgetter`` properties).
    reached = set()

    def recording(name):
        inherited = getattr(tuple, name)

        def method(*args):
            caller = sys._getframe(1).f_globals["__name__"]
            if caller != "artpta.ptg":
                reached.add((name, caller))
            return inherited(*args)

        return method

    # the fixtures, three default-shape programs and one of roundtrip-large
    texts = [text for _, text in generate_corpus(CorpusConfig(program_count=3, seed=1))]
    texts.append(generate_corpus(CorpusConfig(program_count=1, seed=1, **_LARGE))[-1][1])
    verdicts, empty = [], 0
    with monkeypatch.context() as patch:
        for name in _TUPLE_PROTOCOL:
            patch.setattr(PointsToGraph, name, recording(name))
        for text in texts:
            path_verdicts, nothing_to_reduce = _every_pipeline_path(parse_program(text))
            verdicts += path_verdicts
            empty += nothing_to_reduce
        found = set(reached)
        # the instrument sees a call from outside ``ptg``
        len(EMPTY)
        _, _ = EMPTY
        assert reached == found | {("__len__", __name__), ("__iter__", __name__)}
    assert not set(_TUPLE_PROTOCOL) & set(vars(PointsToGraph))  # restored
    assert True in verdicts and False in verdicts
    assert empty == 1  # the ARITH fixture
    assert found == set()


def _attribute_readers(names):
    """(module, function) for every read of an attribute in ``names``
    anywhere in the package but ``ir``, ``function`` being the outermost
    function or method around it (``Class.method``), or ``<module>``."""
    found = set()
    for path in sorted(pathlib.Path(artpta.__file__).parent.glob("*.py")):
        if path.stem == "ir":
            continue
        owners = []
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, ast.ClassDef):
                owners += [(f"{top.name}.{f.name}", f) for f in top.body if isinstance(f, ast.FunctionDef)]
                owners += [(top.name, f) for f in top.body if not isinstance(f, ast.FunctionDef)]
            elif isinstance(top, ast.FunctionDef):
                owners.append((top.name, top))
            else:
                owners.append(("<module>", top))
        for owner, tree in owners:
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr in names:
                    found.add((path.stem, owner))
    return found


def test_only_ir_and_the_oracle_read_statement_level_edges():
    # The engines step through whole basic blocks: a leader's input is the
    # meet of its predecessor blocks' last OUTs and every later statement's
    # is the OUT just computed.  No engine reads the statement-level
    # ``pred`` view of the CFG (which has no ``succ`` view); ``ir`` derives
    # it, and ``chaotic_oracle`` evaluates over it to cross-check the block
    # step.
    assert _attribute_readers({"succ", "pred"}) == {("producer", "chaotic_oracle")}
