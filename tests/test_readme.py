"""The README's Python blocks run as written, each with ``text`` bound to
the LOOPY fixture, the program text its library-use block reads."""

import pathlib
import re

import pytest

from artpta import LOOPY

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_the_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_a_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"text": LOOPY})
