"""Discrete modulation: 16PSK and 16APSK constellations, hard-decision demod.

Constellations are unit mean energy. PSK rings are Gray labelled; the APSK
grid is Gray labelled per ring with the two label MSBs selecting the ring
segment. Demodulation equalizes by the known channel gain and picks the
nearest point in Euclidean distance, ties to the lowest index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import (
    DEFAULT_APSK_RING_RATIO,
    TABLE_BITS,
    TABLE_ORDER,
    apsk16_radii,
    is_table_order,
    parse_modulation,
)

# The most symbol-to-point distances demodulate_hard holds at once (16 MiB of
# complex128); a block takes as many symbols as fit, at least one.
DEMOD_BLOCK_DISTANCES = 1 << 20


class DeepFadeError(Exception):
    """Channel gain is exactly zero, equalization impossible."""


@dataclass
class Constellation:
    """Indexed point set plus its bit labelling.

    ``points[i]`` is the complex position of symbol index i, ``labels[i]`` the
    integer bit pattern assigned to it. Mean energy is validated to 1.
    """

    points: np.ndarray
    labels: np.ndarray
    bits_per_symbol: int = field(init=False)
    label_to_index: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.complex128)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        m = self.points.size
        if not is_table_order(m):
            raise ValueError(f"constellation order {TABLE_ORDER[1]}, got {m}")
        if self.labels.shape != self.points.shape:
            raise ValueError("labels and points must align")
        if sorted(self.labels.tolist()) != list(range(m)):
            raise ValueError("labels must be a permutation of 0..M-1")
        energy = float(np.mean(np.abs(self.points) ** 2))
        if abs(energy - 1.0) > 1e-12:
            raise ValueError(f"mean symbol energy must be 1, got {energy}")
        self.bits_per_symbol = int(round(math.log2(m)))
        inverse = np.empty(m, dtype=np.int64)
        inverse[self.labels] = np.arange(m)
        self.label_to_index = inverse


def _gray(k: np.ndarray) -> np.ndarray:
    return k ^ (k >> 1)


def build_psk(order: int) -> Constellation:
    """M-PSK on the unit circle, point k at angle 2 pi k / M, Gray labels."""
    if not is_table_order(order):
        raise ValueError(f"order {TABLE_ORDER[1]}, got {order}")
    k = np.arange(order)
    points = np.exp(2j * np.pi * k / order)
    return Constellation(points=points, labels=_gray(k))


def build_apsk16(ring_ratio: float = DEFAULT_APSK_RING_RATIO) -> Constellation:
    """4+12 two-ring APSK, outer radius = ring_ratio * inner, unit mean energy.

    Inner ring: 4 points offset by pi/4, labels 00xx with xx Gray coded.
    Outer ring: 12 points in three 120-degree segments; the two MSBs select
    the segment (01, 10, 11) and the two LSBs Gray-code the position.
    ring_ratio = 1 collapses both rings onto the unit circle.
    """
    if not 0.0 < ring_ratio < math.inf:  # also false for NaN
        raise ValueError(f"ring ratio must be positive and finite, got {ring_ratio}")
    r1, r2 = apsk16_radii(ring_ratio)
    inner_k = np.arange(4)
    inner = r1 * np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * inner_k))
    outer_k = np.arange(12)
    outer = r2 * np.exp(2j * np.pi * outer_k / 12.0)
    points = np.concatenate([inner, outer])
    labels = np.empty(16, dtype=np.int64)
    labels[:4] = _gray(inner_k)
    segment = outer_k // 4 + 1
    labels[4:] = (segment << 2) | _gray(outer_k % 4)
    return Constellation(points=points, labels=labels)


def build_constellation(name: str, ring_ratio: float = DEFAULT_APSK_RING_RATIO) -> Constellation:
    """Constellation by name, '16apsk' or '<M>psk', as :func:`~semcom.config.parse_modulation` reads it."""
    family, order = parse_modulation(name)
    return build_apsk16(ring_ratio) if family == "apsk" else build_psk(order)


def fits_in_bits(values: np.ndarray, width: int) -> bool:
    """Whether every int64 value lies in ``[0, 2**width)``.

    One reduction: the OR of all values is negative, or has a bit at or above
    ``width``, exactly when some value is out of range.
    """
    return not values.size or not int(np.bitwise_or.reduce(values, axis=None)) >> width


def _shifted_bits(values: np.ndarray, width: int) -> np.ndarray:
    """(n, width) uint8 rows of ``values``' bits, most significant first."""
    return ((values[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)


@functools.cache
def _bit_table(width: int) -> np.ndarray:
    """Item v holds the ``width`` bit bytes of v as one record; built once per width."""
    table = _shifted_bits(np.arange(1 << width), width).view(np.dtype((np.void, width)))[:, 0]
    table.flags.writeable = False
    return table


def _msb_bits(values: np.ndarray, width: int) -> np.ndarray:
    """The bits of ``values``, most significant first, flattened; a table lookup up to TABLE_BITS."""
    if 0 < width <= TABLE_BITS:
        return _bit_table(width)[values].view(np.uint8)
    return _shifted_bits(values, width).reshape(-1)


def ints_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Unpack integers to MSB-first bit rows, flattened."""
    values = np.asarray(values, dtype=np.int64)
    if not fits_in_bits(values, width):
        raise ValueError(f"values do not fit in {width} bits")
    return _msb_bits(values, width)


def bits_to_ints(bits: np.ndarray, width: int) -> np.ndarray:
    """Pack an MSB-first bitstream into integers of ``width`` bits each."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.size % width != 0:
        raise ValueError(f"bit count {bits.size} is not a multiple of {width}")
    weights = 1 << np.arange(width - 1, -1, -1)
    return bits.reshape(-1, width) @ weights


def modulate(bits: np.ndarray, constellation: Constellation) -> tuple[np.ndarray, int]:
    """Map a bitstream to symbols, zero-padding to a symbol boundary.

    Returns the symbol frame and the number of pad bits appended.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size and bits.max() > 1:  # unsigned, so only 0 and 1 pass
        raise ValueError("bitstream must contain only 0 and 1")
    k = constellation.bits_per_symbol
    pad = (-bits.size) % k
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    indices = constellation.label_to_index[bits_to_ints(bits, k)]
    return constellation.points[indices], pad


def _block_rows(order: int) -> int:
    """Symbols per ``demodulate_hard`` block for an ``order``-point constellation."""
    return max(1, DEMOD_BLOCK_DISTANCES // order)


def demodulate_hard(
    received: np.ndarray, gain: complex | np.ndarray, constellation: Constellation
) -> np.ndarray:
    """Equalize by the known gain and hard-slice to the nearest point's bits.

    ``gain`` may be a scalar (block fading) or a per-symbol array. A zero
    gain anywhere raises :class:`DeepFadeError`. Ties resolve to the lowest
    symbol index. Returns the full recovered bitstream, pad bits included.
    """
    received = np.asarray(received, dtype=np.complex128)
    gain_arr = np.asarray(gain, dtype=np.complex128)
    if not gain_arr.all():  # a complex value is false only when |value| == 0
        raise DeepFadeError("zero channel gain")
    flat = (received / gain_arr).reshape(-1)
    points = constellation.points
    rows = _block_rows(points.size)
    nearest = [  # one block when the frame fits, or is empty
        (np.abs(flat[start : start + rows, None] - points[None, :]) ** 2).argmin(axis=1)
        for start in range(0, max(flat.size, 1), rows)
    ]
    indices = nearest[0] if len(nearest) == 1 else np.concatenate(nearest)
    # Labels are 0..M-1, so they fit bits_per_symbol bits: no range check.
    return _msb_bits(constellation.labels[indices], constellation.bits_per_symbol)
