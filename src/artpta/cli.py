"""Command-line pipeline: analyze, regen, tamper, rq2, diff, stats,
gen-corpus.

Exit codes are a contract: 0 for success or a SAFE verdict, 1 for an UNSAFE
verdict (from ``regen``, or from ``stats``, which sizes only artifacts that
regenerate; or differing results / undetected tamperings), 2 for usage, IO, and
format errors and for any internal error.  Output files are written
atomically (write then rename).  ANSI color is used only on a terminal and
is disabled by ART_COLOR=0.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from .artwork import decode, encode, naive_encode, parse_artwork, parse_naive, stats
from .consumer import RegenOutcome, regen_inter
from .corpus import CorpusConfig, generate_corpus
from .errors import ArtError
from .ir import parse_program
from .producer import analyze_inter, emit_artwork, optimize_artwork
from .ptg import render_edges
from .tamper import TamperKind, rq2_campaign, tamper


def _color_enabled() -> bool:
    if os.environ.get("ART_COLOR") == "0":
        return False
    return sys.stdout.isatty()


def _style(text: str, code: str) -> str:
    if _color_enabled():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _write_atomic(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-art-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _load_program(path: str):
    return parse_program(_read(path).decode("utf-8"))


def _cmd_analyze(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    result = analyze_inter(program)
    artwork = emit_artwork(program, result)
    if args.optimize:
        artwork = optimize_artwork(program, artwork)
    data = encode(artwork)
    _write_atomic(args.output, data)
    if args.dump_results:
        _write_atomic(args.dump_results, naive_encode(result))
    print(
        f"{args.output}: {len(data)} bytes "
        f"(loop={len(artwork.i_loop)} in={len(artwork.i_in)} out={len(artwork.i_out)})"
    )
    return 0


def _cmd_regen(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    artwork = decode(_read(args.artwork), program)
    outcome = regen_inter(program, artwork, keep_going=args.keep_going)
    if not outcome.safe:
        return _report_unsafe(outcome)
    print(_style("SAFE", "32"))
    if args.dump_results:
        _write_atomic(args.dump_results, naive_encode(outcome.result))
    return 0


def _report_unsafe(outcome: RegenOutcome) -> int:
    print(_style("UNSAFE", "31"))
    for v in outcome.violations:
        print(v.describe(), file=sys.stderr)
        for line in render_edges(v.expected):
            print(f"  expected: {line}", file=sys.stderr)
        for line in render_edges(v.found):
            print(f"  found:    {line}", file=sys.stderr)
    return 1


def _cmd_tamper(args: argparse.Namespace) -> int:
    data = _read(args.artwork)
    kind = TamperKind(args.kind)
    program = None if args.program is None else _load_program(args.program)
    if program is None and kind is TamperKind.ADD_EDGE:
        raise ArtError("--kind add-edge requires --program <prog.ir>")
    artwork = parse_artwork(data) if program is None else decode(data, program)
    mutated, spec = tamper(artwork, kind, args.seed, program=program)
    _write_atomic(args.output, encode(mutated))
    print(f"{spec.kind.value} {spec.target}")
    return 0


def _cmd_rq2(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    artwork = decode(_read(args.artwork), program)
    report = rq2_campaign(program, artwork, args.count, args.seed)
    for line in report.to_lines():
        print(line)
    return 0 if report.detected == report.n else 1


def _cmd_diff(args: argparse.Namespace) -> int:
    left = _read(args.results1)
    right = _read(args.results2)
    if left == right:
        print("identical")
        return 0
    print(_style("different", "31"))
    try:
        parsed_left = parse_naive(left)
        parsed_right = parse_naive(right)
    except ArtError:
        print("(structural diff unavailable: not a results dump)", file=sys.stderr)
        return 1
    keys = sorted(set(parsed_left) | set(parsed_right))
    for key in keys:
        l_edges = set(parsed_left.get(key, ()))
        r_edges = set(parsed_right.get(key, ()))
        if l_edges == r_edges:
            continue
        method, point = key
        print(f"{method} {point}:", file=sys.stderr)
        for e in sorted(l_edges - r_edges):
            print(f"  - {e}", file=sys.stderr)
        for e in sorted(r_edges - l_edges):
            print(f"  + {e}", file=sys.stderr)
    return 1


def _cmd_stats(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    artwork = decode(_read(args.artwork), program)
    # The naive dump is sized from the results the artifact encodes; an
    # artifact that does not regenerate has none to size.
    outcome = regen_inter(program, artwork)
    if not outcome.safe:
        return _report_unsafe(outcome)
    st = stats(program, artwork, outcome.result)
    print(f"artwork bytes:        {st.bytes_art}")
    print(f"naive bytes:          {st.bytes_naive}")
    ratio = st.bytes_art / st.bytes_naive if st.bytes_naive else 0.0
    print(f"artwork/naive:        {ratio:.3f}")
    print(f"loop entries:         {st.loop_entries}")
    print(f"in entries:           {st.in_entries}")
    print(f"out entries:          {st.out_entries}")
    print(f"dedup savings:        {st.dedup_savings}")
    print(f"compressed artwork:   {st.bytes_art_compressed}")
    print(f"compressed naive:     {st.bytes_naive_compressed}")
    return 0


def _cmd_gen_corpus(args: argparse.Namespace) -> int:
    cfg = CorpusConfig(
        program_count=args.count,
        methods_min=args.methods_min,
        methods_max=args.methods_max,
        stmts_min=args.stmts_min,
        stmts_max=args.stmts_max,
        loop_prob=args.loop_prob,
        recursion_prob=args.recursion_prob,
        seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    files = generate_corpus(cfg)
    for name, text in files:
        _write_atomic(os.path.join(args.out, name), text.encode("utf-8"))
    print(f"wrote {len(files)} programs to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artpta",
        description="Points-to analysis producer/consumer with verifiable compact artifacts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the analysis and emit an artifact")
    p.add_argument("program")
    p.add_argument("-O", "--optimize", action="store_true", help="apply size optimizations")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dump-results")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("regen", help="verify an artifact and regenerate the results")
    p.add_argument("program")
    p.add_argument("artwork")
    p.add_argument("--dump-results")
    p.add_argument("--keep-going", action="store_true", help="collect all violations")
    p.set_defaults(func=_cmd_regen)

    p = sub.add_parser("tamper", help="apply one seeded mutation to an artifact")
    p.add_argument("artwork")
    p.add_argument("--kind", required=True, choices=[k.value for k in TamperKind])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument(
        "--program", help="check the artifact against this program (required for --kind add-edge)"
    )
    p.set_defaults(func=_cmd_tamper)

    p = sub.add_parser("rq2", help="run a seeded reductive-tampering campaign")
    p.add_argument("program")
    p.add_argument("artwork")
    p.add_argument("-n", "--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_rq2)

    p = sub.add_parser("diff", help="compare two results dumps")
    p.add_argument("results1")
    p.add_argument("results2")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("stats", help="artifact size and entry statistics")
    p.add_argument("program")
    p.add_argument("artwork")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("gen-corpus", help="generate a deterministic program corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--methods-min", type=int, default=1)
    p.add_argument("--methods-max", type=int, default=4)
    p.add_argument("--stmts-min", type=int, default=8)
    p.add_argument("--stmts-max", type=int, default=28)
    p.add_argument("--loop-prob", type=float, default=0.85)
    p.add_argument("--recursion-prob", type=float, default=0.5)
    p.set_defaults(func=_cmd_gen_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ArtError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means UNSAFE, never a crash
        detail = str(exc).partition("\n")[0]
        print(f"error: internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
