#!/usr/bin/env python3
"""Run one workload of the artpta benchmark and print its metrics.

    python3 perfbench/run.py --workload roundtrip-small --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each
    python3 perfbench/run.py --write-spec                 # regenerate BENCHMARK.json

The program under test is imported from ``src/`` next to this directory; the
command fails (exit 2, no result line) when those sources are absent.  The
seed fixes every input: the same seed gives the same corpus, artifacts and
mutations.  ``--trace 0`` prints the end-to-end metrics, measured with no
tracing.  ``--trace 1`` runs the workload untraced once (for the checks, the
per-program ratios and the tracing-overhead base), then again under the
outside-in tracer, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(metadata, determinism digests, per-program rows, ratios, failures) is
written to ``perfbench/results/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# A seed kept out of tuning, so later performance claims can be re-checked on
# inputs nobody optimized for.
HELD_OUT_SEED = 90917


def _import_artpta() -> tuple[int, int]:
    """Import the package from this checkout's sources; returns the start
    and the duration of the import, in ns."""
    if not os.path.isfile(os.path.join(SRC, "artpta", "__init__.py")):
        print(f"perfbench: no artpta sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter_ns()
    import artpta

    elapsed = time.perf_counter_ns() - t0
    if not os.path.abspath(artpta.__file__).startswith(SRC + os.sep):
        print(f"perfbench: artpta imported from {artpta.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return t0, elapsed


def _git_sha() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a
    repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _metadata() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
    }


def _plain_run(bench, wl, seed: int, seconds: float, imported: tuple[int, int]) -> dict:
    clock = bench.Clock()
    clock.add(("import",), *imported)
    digests = []
    prep = None
    for rep in range(bench.SETUP_REPEATS):
        prep = None  # release the previous set-up before timing the next
        gc.collect()
        clock.probe()
        prep = clock.time(("setup", rep), bench.setup, wl, seed, seconds, clock)
        digests.append((prep.corpus_digest, prep.artifact_digest))
    deterministic = all(d == digests[0] for d in digests)
    gc.collect()
    ps = bench.run_pass(wl, prep, check=True, clock=clock)
    times = clock.corrected()
    setup_times = [times[("setup", rep)] / 1e9 for rep in range(bench.SETUP_REPEATS)]
    import_s = times[("import",)] / 1e9
    setup_s = import_s + statistics.median(setup_times)
    metrics = bench.end_to_end(ps, setup_s)
    summary = bench.pass_summary(ps)
    return {
        "correct": ps.failed == 0 and deterministic,
        "deterministic_setup": deterministic,
        "clock": clock.summary(),
        "setup_times_s": setup_times,
        "import_s": import_s,
        "corpus_digest": prep.corpus_digest,
        "artifact_digest": prep.artifact_digest or summary["outputs_digest"],
        "pass": summary,
        "metrics": metrics,
        "ratios": bench.headline_ratios(ps),
        "rows": ps.rows,
        "_attempted": ps.attempted,
        "_failed": ps.failed,
    }


def _traced_run(bench, wl, seed: int, seconds: float, tag: str) -> dict:
    from tracer import Tracer

    clock = bench.Clock()
    prep = bench.setup(wl, seed, seconds, clock)
    base = bench.run_pass(wl, prep, check=True, clock=clock, naive=True)
    digests = (prep.corpus_digest, prep.artifact_digest)
    prep = None
    gc.collect()
    tr = Tracer()
    clock = bench.Clock()
    with tr.installed():
        with tr.span("setup"):
            prep = bench.setup(wl, seed, seconds, clock, span=tr.span)
        traced = bench.run_pass(wl, prep, check=False, clock=clock, span=tr.span)
    metrics = bench.per_layer(tr, base, traced)
    same_outputs = (
        digests == (prep.corpus_digest, prep.artifact_digest)
        and traced.outputs == base.outputs
    )
    spans_agree = metrics["consumer.transfer_applications"] == traced.transfer_applications
    spans_path = os.path.join(RESULTS, tag + ".spans.tsv.gz")
    tr.write(spans_path)
    summary = bench.pass_summary(base)
    return {
        "correct": base.failed == 0 and same_outputs and spans_agree,
        "traced_outputs_identical": same_outputs,
        "span_transfer_applications_match": spans_agree,
        "corpus_digest": prep.corpus_digest,
        "artifact_digest": prep.artifact_digest or summary["outputs_digest"],
        "pass": summary,
        "traced_pass": bench.pass_summary(traced),
        "span_count": len(tr),
        "spans": os.path.relpath(spans_path, ROOT),
        "layers": tr.aggregate(),
        "metrics": metrics,
        "ratios": bench.headline_ratios(base),
        "rows": base.rows,
        "_attempted": base.attempted,
        "_failed": base.failed,
    }


def _report(record: dict, units: dict[str, str]) -> None:
    w = record["workload"]
    ps = record["pass"]
    print(
        f"workload {w['name']} seed {record['seed']} seconds {record['seconds']} "
        f"trace {record['trace']}: {ps['produce_ops']} produce ops, {ps['verify_ops']} verify ops"
    )
    samples = {"produce": ps["produce_ops"], "verify": ps["verify_ops"]}
    for name, value in record["metrics"].items():
        n = samples.get(name.split("_")[0])
        suffix = f"  (n={n})" if n is not None else ""
        print(f"  {name:<36} {value:>16.6g} {units[name]}{suffix}")
    print(f"  {'fail_frac':<36} {ps['fail_frac']:>16.6g} ratio  ({ps['failed']}/{ps['attempted']} ops failed)")
    for name, r in record["ratios"].items():
        print(f"  {name:<36} {r['geomean']:>16.6g} geomean  (n={r['n']}; base: {r['base']})")
    for f in ps["failures"]:
        print(f"  FAILED {f}")


def _run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    import bench

    code = 0
    for name in bench.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args(argv)

    imported = _import_artpta()
    import bench

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            f.write(json.dumps(bench.spec(), indent=2) + "\n")
        return 0
    if args.seconds is None:
        args.seconds = bench.RUN_SECONDS
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in bench.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(bench.WORKLOADS)}, all")
    wl = bench.WORKLOADS[args.workload]

    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    started = time.perf_counter()
    if args.trace:
        body = _traced_run(bench, wl, args.seed, args.seconds, tag)
        units = {n: u for n, u, _ in bench.PER_LAYER}
    else:
        body = _plain_run(bench, wl, args.seed, args.seconds, imported)
        units = {n: u for n, u, _, _ in bench.END_TO_END}
    attempted, failed = body.pop("_attempted"), body.pop("_failed")
    record = {
        "metadata": _metadata(),
        "workload": {
            "name": wl.name,
            "why": wl.why,
            "corpus": dataclasses.asdict(wl.corpus_config(args.seed, args.seconds)),
            "reductive_mutations_per_program": wl.reductive,
        },
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        **body,
    }
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    _report(record, units)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
