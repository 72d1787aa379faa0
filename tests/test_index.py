"""One program index per produce and per verify run, and a consumer that
ships without the producer."""

import ast

import pytest

from artpta import (
    REC,
    TamperKind,
    analyze_inter,
    decode,
    emit_artwork,
    encode,
    optimize_artwork,
    parse_program,
    regen_inter,
    rq2_campaign,
    tamper,
)
from artpta import consumer, ir
from artpta.ir import ProgramIndex


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


def test_consumer_imports_only_the_verifier_side_modules():
    with open(consumer.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("artpta")):
            if node.module and node.module != "artpta":
                package.add(node.module.split(".")[-1])
            else:  # ``from . import x`` or ``from artpta import x``
                package.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            package.update(a.name.split(".")[-1] for a in node.names if a.name.startswith("artpta"))
    assert package <= {"ir", "ptg", "equations", "artwork", "errors"}, package
    assert {"ir", "ptg", "equations", "artwork"} <= package
