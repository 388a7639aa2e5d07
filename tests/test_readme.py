"""The README's fenced python examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

_README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCKS = re.findall(r"^```python\n(.*?)^```$", _README.read_text(encoding="utf-8"),
                     re.MULTILINE | re.DOTALL)


def test_readme_has_a_python_example():
    assert _BLOCKS


@pytest.mark.parametrize("source", _BLOCKS,
                         ids=[f"block{i}" for i in range(1, len(_BLOCKS) + 1)])
def test_readme_python_block_runs(source):
    exec(compile(source, str(_README), "exec"), {})
