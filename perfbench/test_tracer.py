"""Self-tests of the benchmark's tracer and determinism record.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import sys

import pytest

import artpta
import bench
from tracer import TRACED, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _small(name: str) -> bench.Workload:
    """The named workload cut down to six generated programs per run."""
    return dataclasses.replace(bench.WORKLOADS[name], programs_per_second=6.0)


def _traced(wl: bench.Workload, seed: int):
    tr = Tracer()
    with tr.installed():
        clock = bench.Clock()
        prep = bench.setup(wl, seed, 1.0, clock, span=tr.span)
        ps = bench.run_pass(wl, prep, check=False, clock=clock, span=tr.span)
    return tr, prep, ps


def _evals_under(tr: Tracer, root: str) -> dict[int, int]:
    """transfer plus project_out spans under each ``root`` span."""
    counts = {i: 0 for i in tr.indices(root)}
    for name in ("ptg.transfer", "ptg.project_out"):
        for i in tr.indices(name):
            owner = tr.nearest(i, root)
            if owner >= 0:
                counts[owner] += 1
    return counts


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_traced_outputs_identical_to_untraced(name):
    wl = _small(name)
    clock = bench.Clock()
    prep = bench.setup(wl, 5, 1.0, clock)
    base = bench.run_pass(wl, prep, check=True, clock=clock)
    assert base.failed == 0, base.failures
    tr, traced_prep, traced = _traced(wl, 5)
    assert len(tr) > 0
    assert traced_prep.corpus_digest == prep.corpus_digest
    assert traced_prep.artifact_digest == prep.artifact_digest
    assert traced.outputs == base.outputs


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_producer_spans_sum_to_iteration_count(name):
    tr, _, _ = _traced(_small(name), 6)
    counts = _evals_under(tr, "producer.analyze_inter")
    assert counts
    for i, n in counts.items():
        assert n == tr.values[i], f"analyze_inter span {i}"


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_consumer_spans_match_regen_outcome(name):
    tr, _, ps = _traced(_small(name), 7)
    counts = _evals_under(tr, "consumer.regen_inter")
    assert counts
    for i, n in counts.items():
        applications, safe = tr.values[i]
        if safe:
            assert n == applications, f"regen_inter span {i}"
        else:
            # An aborted regeneration has counted the call-site evaluations
            # whose callee it was still regenerating when it stopped.
            assert n <= applications, f"regen_inter span {i}"
    layer = bench.per_layer(tr, ps, ps)
    assert layer["consumer.transfer_applications"] == ps.transfer_applications


def test_tamper_workload_exercises_every_layer():
    tr, _, ps = _traced(_small("tamper-verify"), 8)
    agg = tr.aggregate()
    for name, _, _ in TRACED:
        if name != "producer.optimize_artwork":  # tamper artifacts are plain
            assert agg[name]["calls"] > 0, name
    assert all(v["self_s"] >= 0 for v in agg.values())
    assert tr.graphs_built > 0
    assert any(not safe for _, safe in (tr.values[i] for i in tr.indices("consumer.regen_inter")))


def test_tracer_restores_every_binding():
    from artpta.ptg import PointsToGraph

    modules = {n: m for n, m in sys.modules.items() if n == "artpta" or n.startswith("artpta.")}
    before = {(n, k): v for n, m in modules.items() for k, v in vars(m).items() if callable(v)}
    post_init = PointsToGraph.__post_init__
    tr = Tracer()
    with tr.installed():
        assert artpta.producer.transfer is not before[("artpta.producer", "transfer")]
        assert artpta.consumer.project_in is not before[("artpta.consumer", "project_in")]
        assert sys.modules["artpta.tamper"].analyze_inter is not before[("artpta.tamper", "analyze_inter")]
        assert artpta.analyze_inter is not before[("artpta", "analyze_inter")]
    after = {(n, k): v for n, m in modules.items() for k, v in vars(m).items() if callable(v)}
    assert after == before
    assert PointsToGraph.__post_init__ is post_init


def test_self_time_excludes_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    agg = tr.aggregate()
    dur = tr.durations()
    assert agg["outer"]["self_s"] == pytest.approx((dur[0] - dur[1]) / 1e9)
    assert agg["inner"]["self_s"] == agg["inner"]["total_s"]


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_same_seed_same_digests(name):
    wl = _small(name)
    clocks = [bench.Clock() for _ in range(3)]
    a, b, c = (bench.setup(wl, s, 1.0, k) for s, k in zip((3, 3, 4), clocks))
    assert (a.corpus_digest, a.artifact_digest) == (b.corpus_digest, b.artifact_digest)
    assert a.corpus_digest != c.corpus_digest
    pa, pb = (bench.run_pass(wl, x, check=False, clock=k) for x, k in zip((a, b), clocks))
    assert pa.outputs == pb.outputs and pa.art_bytes == pb.art_bytes


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        assert json.load(f) == bench.spec()
