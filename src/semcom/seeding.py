"""Deterministic seed derivation for parallel and resumable runs.

Every stochastic component takes an explicit seed or Generator. Child seeds
are derived as ``master XOR stable_hash(coordinates)`` so that results do not
depend on scheduling order or worker count. Python's builtin ``hash`` is
salted per process and must not be used here.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1


def stable_hash(*parts: object) -> int:
    """Map a tuple of primitives to a stable unsigned 64-bit value."""
    text = "\x1f".join(f"{type(p).__name__}:{p!r}" for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seed(master_seed: int, *parts: object) -> int:
    """Child seed for the work unit identified by ``parts``."""
    return (int(master_seed) ^ stable_hash(*parts)) & _MASK64


def spawn_rng(master_seed: int, *parts: object) -> np.random.Generator:
    """Independent Generator for the work unit identified by ``parts``."""
    import numpy as np  # here, not at the top, so that settings load without numpy

    return np.random.default_rng(derive_seed(master_seed, *parts))
