"""The random program generator's output: pinned corpus digests, jump rows
resolved to labels, the least method length, and ``gen-corpus`` writing
exactly what ``generate_corpus`` returns."""

import hashlib

import pytest

from artpta import FIXTURES, CorpusConfig, generate_corpus, parse_program
from artpta.cli import main

# perfbench's roundtrip-large shape: one self-recursive method of budget 300
LARGE = {"methods_min": 1, "methods_max": 1, "stmts_min": 300, "stmts_max": 300, "recursion_prob": 1.0}
SHAPES = {"default": ({}, 40), "large": (LARGE, 4)}

PINNED = {
    (1, "default"): "a2020d366903bb93cd7148c1d4fa0d3682992023df70f0da2658d37ed7998308",
    (1, "large"): "45eba4d076427ec08626c219fc01a57c366dc78fcf7a4c9703221a8eb9ff3e01",
    (90917, "default"): "efc7cf42e5c9e3fe22c2db0a87d90f0cf4614f7509b5f12105b5695077bb839c",
    (90917, "large"): "41523b5bf20ba7edd158019134d133db580a732c543a8cd95fd327c5aea46ca6",
}


def _config(seed: int, shape: str) -> CorpusConfig:
    fields, count = SHAPES[shape]
    return CorpusConfig(program_count=count, seed=seed, **fields)


def _digest(files) -> str:
    """sha256 over each length-prefixed ``f"{name}\\n{text}"``, the way
    ``perfbench/bench.py`` digests a corpus."""
    h = hashlib.sha256()
    for name, text in files:
        chunk = f"{name}\n{text}".encode()
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


@pytest.mark.parametrize("seed, shape", sorted(PINNED))
def test_corpus_digest_is_pinned(seed, shape):
    assert _digest(generate_corpus(_config(seed, shape))) == PINNED[seed, shape]


@pytest.mark.parametrize("seed, shape", sorted(PINNED))
def test_jumps_resolved_and_no_method_shorter_than_stmts_min(seed, shape):
    cfg = _config(seed, shape)
    files = generate_corpus(cfg)
    assert files[: len(FIXTURES)] == list(FIXTURES)
    for name, text in files[len(FIXTURES) :]:
        assert "@" not in text, name
        # parsing checks every jump names a label of its own method
        for method in parse_program(text).methods:
            assert len(method.body) >= cfg.stmts_min, (name, method.name)


@pytest.mark.parametrize(
    "flags, cfg",
    [
        ([], CorpusConfig(program_count=6, seed=90917)),
        (
            ["--methods-min", "1", "--methods-max", "1", "--stmts-min", "300", "--stmts-max", "300", "--recursion-prob", "1.0"],
            CorpusConfig(program_count=6, seed=90917, **LARGE),
        ),
    ],
    ids=["default", "large"],
)
def test_gen_corpus_writes_generate_corpus_texts(tmp_path, capsys, flags, cfg):
    out = tmp_path / "corpus"
    assert main(["gen-corpus", "--seed", "90917", "--count", "6", "--out", str(out)] + flags) == 0
    capsys.readouterr()
    files = generate_corpus(cfg)
    assert sorted(p.name for p in out.iterdir()) == sorted(name for name, _ in files)
    for name, text in files:
        assert (out / name).read_bytes() == text.encode("utf-8")
