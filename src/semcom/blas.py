"""Run OpenBLAS on one thread inside semcom's entry points.

Every matrix product semcom makes is tiny (a training step multiplies
32x256 by 256x64), so a second OpenBLAS thread only spins, doubling CPU time
for no wall-time gain, and sweep pool workers that each keep their own
threads oversubscribe the cores. :func:`single_thread` pins each loaded
OpenBLAS to one thread for the duration of a call and restores the previous
count afterwards. It overrides ``OPENBLAS_NUM_THREADS`` inside that scope and
does nothing where numpy uses another BLAS. :func:`core_name` names the
kernel OpenBLAS picked for this CPU, which fixes how its products round.

The libraries are looked up through ``ctypes`` on first use, never at import.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from collections.abc import Callable, Iterator

import numpy as np

# (setter, getter) symbol names: numpy's bundled 64-bit-integer build, then
# system OpenBLAS builds with and without the 64-bit suffix.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


# Sets and gets the thread count of one loaded OpenBLAS.
_Control = tuple[Callable[[int], None], Callable[[], int]]


def _loaded_openblas_paths() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process.

    Reads ``/proc/self/maps`` where it exists; elsewhere falls back to the
    copy bundled with the numpy wheel in ``numpy.libs``.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
        return sorted(paths)
    except OSError:
        libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
        if not os.path.isdir(libs):
            return []
        return [os.path.join(libs, f) for f in sorted(os.listdir(libs)) if "openblas" in f]


def _control(path: str) -> _Control | None:
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for set_name, get_name in _SYMBOLS:
        set_fn = getattr(lib, set_name, None)
        get_fn = getattr(lib, get_name, None)
        if set_fn is not None and get_fn is not None:
            set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
            get_fn.argtypes, get_fn.restype = [], ctypes.c_int
            return set_fn, get_fn
    return None


@functools.cache
def _controls() -> tuple[_Control, ...]:
    """Thread controls of every loaded OpenBLAS; empty when there is none."""
    found = (_control(path) for path in _loaded_openblas_paths())
    return tuple(c for c in found if c is not None)


# Run-time kernel name getters of the same builds, in the order of _SYMBOLS.
_CORE_NAMES = ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename")


def core_name() -> str | None:
    """Name of the kernel OpenBLAS picked for this CPU, such as ``SkylakeX``; None without OpenBLAS."""
    for path in _loaded_openblas_paths():
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(path)
            for name in _CORE_NAMES:
                get = getattr(lib, name, None)
                if get is not None:
                    get.restype = ctypes.c_char_p
                    return get().decode()
    return None


@contextlib.contextmanager
def single_thread() -> Iterator[None]:
    """Pin OpenBLAS to one thread; restore the previous count on exit.

    Scopes nest, and the count is restored when the body raises. Usable as a
    decorator.
    """
    controls = _controls()
    previous = [get() for _, get in controls]
    for set_threads, _ in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(controls, previous):
            set_threads(count)
