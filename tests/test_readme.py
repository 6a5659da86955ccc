"""The README's library example runs as printed."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    probs = namespace["probs"]
    assert probs.shape == (8, 10)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0)
