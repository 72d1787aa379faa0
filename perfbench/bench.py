"""Workloads, timed operations, output checks and metric definitions of the
artpta benchmark.

Two user-facing operations are timed, each by calling the public ``artpta``
functions in-process:

* produce, the ``artpta analyze [-O]`` path:
  ``parse_program`` -> ``analyze_inter`` -> ``emit_artwork``
  [-> ``optimize_artwork``] -> ``encode``;
* verify, the ``artpta regen`` path:
  ``parse_program`` -> ``decode`` -> ``regen_inter``.

Every output is checked outside the timed regions: the producer's result must
equal ``chaotic_oracle`` (the independent round-robin engine), each verify
must give the verdict its input calls for, and an accepted artifact must
regenerate the reference (or subsume it, for a conservative edge addition).
A failed check or an exception counts against the op; it never stops the run.

Calls go through the ``artpta`` package namespace at call time, so that the
tracer's wrappers (see ``tracer.py``) see them.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import artpta
from artpta.tamper import REDUCTIVE_KINDS

SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: dict  # CorpusConfig fields other than seed and program_count
    # Generated programs per second of --seconds: the corpus size is
    # round(seconds * rate), calibrated so that the timed ops of one run take
    # 8 to 11 s of every 12 on a 2-core x86-64 machine under CPython 3.11.
    programs_per_second: float
    # Reductive mutations verified per program; nonzero makes this a
    # tamper workload, whose artifacts are produced during set-up.
    reductive: int = 0

    def corpus_config(self, seed: int, seconds: float) -> "artpta.CorpusConfig":
        count = max(1, round(seconds * self.programs_per_second))
        return artpta.CorpusConfig(program_count=count, seed=seed, **self.shape)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="roundtrip-small",
            why="small programs (default corpus shape): per-program fixed costs in ir (parse, CFG and call-graph builds) dominate produce and verify",
            shape={},
            programs_per_second=85.0,
        ),
        Workload(
            name="roundtrip-large",
            why="one self-recursive method of 300 statements per program: entries of about 140 edges, so ptg transfer and meet outweigh ir",
            shape={"methods_min": 1, "methods_max": 1, "stmts_min": 300, "stmts_max": 300, "recursion_prob": 1.0},
            programs_per_second=9.0,
        ),
        Workload(
            name="tamper-verify",
            why="verify on untrusted, mostly rejected artifacts (reductive mutations, one conservative add-edge, the original): the consumer's early-abort path and the codec",
            shape={},
            programs_per_second=36.0,
            reductive=4,
        ),
    )
}

# name, unit, better, bound (share of the parent's median it may worsen by).
# The bounds sit at about twice the widest spread seen between seeds (quartile
# distance over median, 10 seeds): the produce p90 of tamper-verify (0.12 to
# 0.15) and the peak memory of roundtrip-small (0.09 to 0.14), which follows
# the largest program of each corpus, get the largest bound.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("produce_s", "s", "lower", 0.2),
    ("produce_ms_p50", "ms", "lower", 0.2),
    ("produce_ms_p90", "ms", "lower", 0.25),
    ("verify_s", "s", "lower", 0.2),
    ("verify_ms_p50", "ms", "lower", 0.2),
    ("verify_ms_p90", "ms", "lower", 0.2),
    ("art_bytes", "bytes", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.25),
)

_CALLS_SELF = (
    "ir.parse_program", "ir.build_cfg", "ir.build_call_graph",
    "ptg.transfer", "ptg.meet", "ptg.meet_all", "ptg.subsumes", "ptg.project_in",
    "ptg.project_out", "ptg.reachable_field_edges", "ptg.restrict_to_summary",
    "producer.analyze_inter", "producer.validate_result", "producer.emit_artwork",
    "producer.optimize_artwork",
    "artwork.encode", "artwork.decode",
    "consumer.regen_inter",
    "tamper.tamper",
)

# name, unit, better
PER_LAYER: tuple[tuple[str, str, str], ...] = tuple(
    m
    for f in _CALLS_SELF
    for m in ((f"{f}.calls", "count", "lower"), (f"{f}.self_s", "s", "lower"))
) + (
    ("ir.cfg_builds_per_method", "count", "lower"),
    ("ptg.graphs_built", "count", "lower"),
    ("ptg.max_entry_edges", "count", "lower"),
    ("producer.statement_evals", "count", "lower"),
    ("producer.evals_per_stmt", "ratio", "lower"),
    ("producer.analyze_per_program", "ratio", "lower"),
    ("artwork.decode_edges_per_s", "1/s", "higher"),
    ("artwork.art_over_naive", "ratio", "lower"),
    ("consumer.transfer_applications", "count", "lower"),
    ("consumer.unsafe_verdicts", "count", "higher"),
    ("consumer.evals_over_producer", "ratio", "lower"),
    ("consumer.wall_over_producer", "ratio", "lower"),
    ("tamper.reclosures_per_addition", "ratio", "lower"),
    ("corpus.generate_corpus.self_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
)

RUN_SECONDS = 12


def spec() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# The two operations
# ---------------------------------------------------------------------------


@dataclass
class Produced:
    data: bytes
    result: "artpta.AnalysisResult"
    program: "artpta.Program"
    artwork: "artpta.Artwork"


def produce(text: str, optimize: bool) -> Produced:
    p = artpta.parse_program(text)
    r = artpta.analyze_inter(p)
    a = artpta.emit_artwork(p, r)
    if optimize:
        a = artpta.optimize_artwork(p, a)
    return Produced(artpta.encode(a), r, p, a)


def verify(text: str, data: bytes) -> "artpta.RegenOutcome":
    p = artpta.parse_program(text)
    return artpta.regen_inter(p, artpta.decode(data, p))


def _reference_work() -> int:
    """A fixed pure-Python loop of set, dict and tuple work, like the
    analysis's own, that calls nothing from artpta."""
    pairs = frozenset((i % 61, i % 53) for i in range(1500))
    counts: dict[int, int] = {}
    for a, b in pairs:
        counts[a] = counts.get(a, 0) + b
    return len(counts) + sum(1 for a, b in pairs if b > a)


class Clock:
    """Wall-clock op timer that corrects for load on a shared machine.

    Other tenants' load slows every op while it lasts, for seconds or for a
    whole run.  The clock times ``_reference_work`` between ops (``probe``)
    and scales each op's wall time by ``REFERENCE_NS / local``, where
    ``local`` is the median of the probes nearest in time to the op.  So an
    op is reported in the time it takes on a machine where the reference
    loop takes ``REFERENCE_NS``: on this benchmark's reference machine when
    idle, the factor is 1 and the time is plain wall time.  An op timed more
    than once (a tamper workload's produce ops, once per set-up) keeps its
    fastest time.
    """

    # The reference loop's median time on an idle 2-core x86-64 machine under
    # CPython 3.11, where the bounds in BENCHMARK.json were set.
    REFERENCE_NS = 400_000
    NEAREST = 15

    def __init__(self) -> None:
        self._probe_t: list[int] = []
        self._probe_ns: list[int] = []
        self._ops: dict[tuple, list[tuple[int, int]]] = {}

    def probe(self) -> None:
        # Without the collector the loop's time does not depend on how many
        # objects the process holds, only on how fast the machine runs.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            _reference_work()
            ns = time.perf_counter_ns() - t0
        finally:
            if enabled:
                gc.enable()
        self._probe_t.append(t0)
        self._probe_ns.append(ns)

    def add(self, key: tuple, t0: int, ns: int) -> None:
        """Record one run of op ``key`` that started at ``t0`` and took ``ns``."""
        self._ops.setdefault(key, []).append((t0, ns))

    def time(self, key: tuple, fn: Callable, *args):
        t0 = time.perf_counter_ns()
        out = fn(*args)
        self.add(key, t0, time.perf_counter_ns() - t0)
        return out

    def _local(self, t: int) -> float:
        i = bisect.bisect_left(self._probe_t, t)
        lo = max(0, min(i - self.NEAREST // 2, len(self._probe_t) - self.NEAREST))
        return statistics.median(self._probe_ns[lo : lo + self.NEAREST])

    def summary(self) -> dict:
        """The reference loop's local medians: how loaded the machine was."""
        local = [self._local(t) for t in self._probe_t]
        return {
            "probes": len(local),
            "reference_ns": self.REFERENCE_NS,
            "min_ns": min(local, default=None),
            "median_ns": statistics.median(local) if local else None,
            "max_ns": max(local, default=None),
        }

    def corrected(self) -> dict[tuple, float]:
        """Fastest load-corrected time of each op, in ns; plain wall time
        when no probe was taken."""
        if not self._probe_t:
            return {k: float(min(ns for _, ns in v)) for k, v in self._ops.items()}
        return {
            k: min(ns * self.REFERENCE_NS / self._local(t) for t, ns in v)
            for k, v in self._ops.items()
        }


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

EXACT, WIDER, REJECT = "exact", "wider", "reject"  # expected verify outcome


@dataclass
class Program:
    name: str
    text: str
    produced: Produced | None = None  # tamper workloads: made in set-up
    error: str | None = None
    ops: list[tuple[str, bytes]] = field(default_factory=list)  # (expected, artifact)


@dataclass
class Prepared:
    programs: list[Program]
    corpus_digest: str
    artifact_digest: str | None  # tamper workloads only


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


Span = Callable[[str], contextlib.AbstractContextManager]


def _no_span(name: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


def _mutations(wl: Workload, seed: int, prog: Program) -> None:
    """Reductive mutations rotating through the four kinds as rq2_campaign
    does, one conservative add-edge, then the untampered artifact."""
    made = prog.produced
    rng = random.Random(f"{seed}/{prog.name}")
    for i in range(wl.reductive):
        trial_seed = rng.getrandbits(63)
        for j in range(len(REDUCTIVE_KINDS)):
            kind = REDUCTIVE_KINDS[(i + j) % len(REDUCTIVE_KINDS)]
            try:
                mutated, _ = artpta.tamper(made.artwork, kind, trial_seed)
            except artpta.NothingToTamperError:
                continue
            prog.ops.append((REJECT, artpta.encode(mutated)))
            break
    try:
        wide, _ = artpta.tamper(
            made.artwork, artpta.TamperKind.ADD_EDGE, rng.getrandbits(63), program=made.program
        )
        prog.ops.append((WIDER, artpta.encode(wide)))
    except artpta.NothingToTamperError:
        pass
    prog.ops.append((EXACT, made.data))


def setup(wl: Workload, seed: int, seconds: float, clock: Clock,
          span: Span = _no_span) -> Prepared:
    """Generate the corpus; for a tamper workload also produce every plain
    artifact (a produce op timed on ``clock``) and its mutations."""
    files = artpta.generate_corpus(wl.corpus_config(seed, seconds))
    programs = [Program(name, text) for name, text in files]
    corpus_digest = _digest(f"{n}\n{t}".encode() for n, t in files)
    if not wl.reductive:
        return Prepared(programs, corpus_digest, None)
    chunks = []
    for prog in programs:
        try:
            clock.probe()
            with span("op.produce"):
                prog.produced = clock.time(("produce", prog.name), produce, prog.text, False)
            with span("setup.mutate"):
                _mutations(wl, seed, prog)
        except Exception as exc:  # counted as a failed produce op
            prog.produced, prog.ops, prog.error = None, [], repr(exc)
            continue
        chunks.extend(data for _, data in prog.ops)
    return Prepared(programs, corpus_digest, _digest(chunks))


# ---------------------------------------------------------------------------
# Timed pass and checks
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    """Every op of a workload, run once; op times come from the ``Clock``."""

    clock: Clock
    produce: dict[tuple, float] = field(default_factory=dict)  # op key -> ns
    verify: dict[tuple, float] = field(default_factory=dict)
    outputs: list[bytes] = field(default_factory=list)  # artifacts and verdicts, in order
    art_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    transfer_applications: int = 0
    # Rows carry the naive whole-dump size only when asked: the dump of the
    # largest program would otherwise set the process's peak memory.
    naive: bool = False

    @property
    def produce_ns(self) -> list[float]:
        return list(self.produce.values())

    @property
    def verify_ns(self) -> list[float]:
        return list(self.verify.values())

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def attempt(self, key: tuple, fn: Callable, *args):
        """Run one timed op; on an exception count it failed and return None."""
        self.attempted += 1
        try:
            return self.clock.time(key, fn, *args)
        except Exception as exc:
            self.fail(f"{key}: {exc!r}")
            return None


def _verdict(outcome) -> bytes:
    if outcome.safe:
        return b"SAFE"
    return f"UNSAFE {outcome.violation.kind}".encode()


def _entry_edges(a: "artpta.Artwork") -> int:
    graphs = [*a.i_loop.values(), *a.i_in.values(), *a.i_out.values()]
    return max((len(g.var_edges) + len(g.field_edges) for g in graphs), default=0)


def _covers(wide: "artpta.AnalysisResult", least: "artpta.AnalysisResult") -> bool:
    empty = artpta.EMPTY
    return (
        all(artpta.subsumes(wide.out.get(k, empty), g) for k, g in least.out.items())
        and all(artpta.subsumes(wide.in_summary.get(k, empty), g) for k, g in least.in_summary.items())
        and all(artpta.subsumes(wide.out_summary.get(k, empty), g) for k, g in least.out_summary.items())
    )


def _row(ps: Pass, made: Produced, produce_key: tuple, verify_key: tuple | None,
         outcome, oracle) -> dict:
    """Per-program row; the op times are filled in at the end of the pass."""
    p = made.program
    return {
        "program": produce_key[1],
        "statements": sum(len(m.body) for m in p.methods),
        "methods": len(p.methods),
        "produce_ms": produce_key,
        "verify_ms": verify_key,
        "iteration_count": made.result.iteration_count,
        "transfer_applications": None if outcome is None else outcome.transfer_applications,
        "art_bytes": len(made.data),
        "naive_bytes": len(artpta.naive_encode(oracle)) if ps.naive else None,
        "max_entry_edges": _entry_edges(made.artwork),
    }


def _check_verify(ps: Pass, expected: str, outcome, oracle, where: tuple) -> None:
    if expected == REJECT:
        ok = not outcome.safe
    elif expected == WIDER:
        ok = outcome.safe and _covers(outcome.result, oracle)
    else:
        ok = outcome.safe and outcome.result.same_values(oracle)
    if not ok:
        ps.fail(f"{where}: expected {expected}, got {_verdict(outcome).decode()}")


def run_pass(wl: Workload, prep: Prepared, check: bool, clock: Clock,
             span: Span = _no_span, naive: bool = False) -> Pass:
    """Time every op of the workload on ``clock`` (which for a tamper
    workload already holds the set-up's produce ops); with ``check``, check
    each program's outputs right after its ops, outside the timed regions,
    and fill one row per program."""
    ps = Pass(clock=clock, naive=naive)
    one_program = _tamper_program if wl.reductive else _roundtrip_program
    for prog in prep.programs:
        clock.probe()
        one_program(ps, prog, check, span)
    times = clock.corrected()
    for table in (ps.produce, ps.verify):
        for key in table:
            table[key] = times[key]
    for row in ps.rows:
        row["produce_ms"] = ps.produce[row["produce_ms"]] / 1e6
        if row["verify_ms"] is not None:
            row["verify_ms"] = ps.verify[row["verify_ms"]] / 1e6
    return ps


def _roundtrip_program(ps: Pass, prog: Program, check: bool, span: Span) -> None:
    pkey, vkey = ("produce", prog.name), ("verify", prog.name)
    with span("op.produce"):
        made = ps.attempt(pkey, produce, prog.text, True)
    if made is None:
        return
    ps.produce[pkey] = 0.0
    ps.outputs.append(made.data)
    ps.art_bytes += len(made.data)
    with span("op.verify"):
        outcome = ps.attempt(vkey, verify, prog.text, made.data)
    if outcome is None:
        return
    ps.verify[vkey] = 0.0
    ps.outputs.append(_verdict(outcome))
    ps.transfer_applications += outcome.transfer_applications
    if not check:
        return
    oracle = artpta.chaotic_oracle(artpta.parse_program(prog.text))
    if not made.result.same_values(oracle):
        ps.fail(f"{pkey}: result differs from chaotic_oracle")
    _check_verify(ps, EXACT, outcome, oracle, vkey)
    ps.rows.append(_row(ps, made, pkey, vkey, outcome, oracle))


def _tamper_program(ps: Pass, prog: Program, check: bool, span: Span) -> None:
    pkey = ("produce", prog.name)
    made = prog.produced
    ps.attempted += 1  # the produce op, run during set-up
    if made is None:
        ps.fail(f"{pkey}: {prog.error}")
        return
    ps.produce[pkey] = 0.0
    ps.art_bytes += len(made.data)
    outcomes = []
    for k, (expected, data) in enumerate(prog.ops):
        vkey = ("verify", prog.name, k)
        with span("op.verify"):
            outcome = ps.attempt(vkey, verify, prog.text, data)
        if outcome is None:
            continue
        ps.verify[vkey] = 0.0
        ps.outputs.append(_verdict(outcome))
        ps.transfer_applications += outcome.transfer_applications
        outcomes.append((vkey, expected, outcome))
    if not check:
        return
    oracle = artpta.chaotic_oracle(artpta.parse_program(prog.text))
    if not made.result.same_values(oracle):
        ps.fail(f"{pkey}: result differs from chaotic_oracle")
    exact_key, exact = None, None
    for vkey, expected, outcome in outcomes:
        _check_verify(ps, expected, outcome, oracle, vkey)
        if expected == EXACT:
            exact_key, exact = vkey, outcome
    row = _row(ps, made, pkey, exact_key, exact, oracle)
    row["verify_ops"] = len(prog.ops)
    ps.rows.append(row)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def geomean(values: list[float]) -> float:
    values = [v for v in values if v > 0]
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ps: Pass, setup_s: float) -> dict[str, float]:
    prod_ms = [ns / 1e6 for ns in ps.produce_ns]
    ver_ms = [ns / 1e6 for ns in ps.verify_ns]
    return {
        "setup_s": setup_s,
        "produce_s": sum(ps.produce_ns) / 1e9,
        "produce_ms_p50": statistics.median(prod_ms),
        "produce_ms_p90": p90(prod_ms),
        "verify_s": sum(ps.verify_ns) / 1e9,
        "verify_ms_p50": statistics.median(ver_ms),
        "verify_ms_p90": p90(ver_ms),
        "art_bytes": ps.art_bytes,
        "peak_rss_mb": peak_rss_mb(),
    }


def headline_ratios(ps: Pass) -> dict[str, dict]:
    """Consumer/producer ratios per program (untampered artifact), as
    geomeans with their base."""
    rows = [r for r in ps.rows if r["verify_ms"] and r["transfer_applications"] is not None]
    evals = geomean([r["transfer_applications"] / r["iteration_count"] for r in rows if r["iteration_count"]])
    wall = geomean([r["verify_ms"] / r["produce_ms"] for r in rows])
    ratios = {
        "consumer_over_producer_evals": {"geomean": evals, "base": "producer statement evaluations (iteration_count) of the same program", "n": len(rows)},
        "consumer_over_producer_wall": {"geomean": wall, "base": "produce-op wall time of the same program", "n": len(rows)},
    }
    if ps.naive:
        naive = geomean([r["art_bytes"] / r["naive_bytes"] for r in rows])
        ratios["art_over_naive_bytes"] = {"geomean": naive, "base": "naive whole-dump bytes of the same program", "n": len(rows)}
    return ratios


def per_layer(tr, untraced: Pass, traced: Pass) -> dict[str, float]:
    """Per-layer metrics of a traced set-up plus pass.  Counts come from the
    spans; the ratios over programs come from the untraced pass's rows."""
    agg = tr.aggregate()
    out: dict[str, float] = {}
    for f in _CALLS_SELF:
        out[f"{f}.calls"] = agg.get(f, {}).get("calls", 0)
        out[f"{f}.self_s"] = agg.get(f, {}).get("self_s", 0.0)

    rows = untraced.rows
    methods = sum(r["methods"] for r in rows)
    out["ir.cfg_builds_per_method"] = out["ir.build_cfg.calls"] / methods if methods else 0.0
    out["ptg.graphs_built"] = tr.graphs_built
    out["ptg.max_entry_edges"] = max((r["max_entry_edges"] for r in rows), default=0)

    add_edge = [i for i in tr.indices("tamper.tamper") if tr.values.get(i) == "add-edge"]
    analyses = tr.indices("producer.analyze_inter")
    in_tamper = [i for i in analyses if tr.nearest(i, "tamper.tamper") >= 0]
    producer_runs = [i for i in analyses if tr.nearest(i, "tamper.tamper") < 0]
    out["producer.statement_evals"] = sum(tr.values.get(i, 0) for i in producer_runs)
    stmts = sum(r["statements"] for r in rows)
    out["producer.evals_per_stmt"] = sum(r["iteration_count"] for r in rows) / stmts if stmts else 0.0
    out["producer.analyze_per_program"] = len(producer_runs) / len(rows) if rows else 0.0

    decode = agg.get("artwork.decode", {}).get("self_s", 0.0)
    edges = sum(tr.values.get(i, 0) for i in tr.indices("artwork.decode"))
    out["artwork.decode_edges_per_s"] = edges / decode if decode else 0.0
    ratios = headline_ratios(untraced)
    out["artwork.art_over_naive"] = ratios.get("art_over_naive_bytes", {"geomean": 0.0})["geomean"]

    regens = [tr.values[i] for i in tr.indices("consumer.regen_inter") if i in tr.values]
    out["consumer.transfer_applications"] = sum(a for a, _ in regens)
    out["consumer.unsafe_verdicts"] = sum(1 for _, safe in regens if not safe)
    out["consumer.evals_over_producer"] = ratios["consumer_over_producer_evals"]["geomean"]
    out["consumer.wall_over_producer"] = ratios["consumer_over_producer_wall"]["geomean"]

    out["tamper.reclosures_per_addition"] = len(
        [i for i in in_tamper if tr.values.get(tr.nearest(i, "tamper.tamper")) == "add-edge"]
    ) / len(add_edge) if add_edge else 0.0
    out["corpus.generate_corpus.self_s"] = agg.get("corpus.generate_corpus", {}).get("self_s", 0.0)
    base = sum(untraced.produce_ns) + sum(untraced.verify_ns)
    traced_ns = sum(traced.produce_ns) + sum(traced.verify_ns)
    out["bench.trace_overhead"] = traced_ns / base if base else 0.0
    return out


def pass_summary(ps: Pass) -> dict:
    d = {k: getattr(ps, k) for k in ("attempted", "failed", "failures", "art_bytes", "transfer_applications")}
    d["produce_ops"] = len(ps.produce_ns)
    d["verify_ops"] = len(ps.verify_ns)
    d["fail_frac"] = ps.failed / ps.attempted if ps.attempted else 0.0
    d["outputs_digest"] = _digest(ps.outputs)
    return d
