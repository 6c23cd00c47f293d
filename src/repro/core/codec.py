"""Vectorized NumPy implementation of the INCEPTIONN gradient codec.

This is the production codec: it compresses/decompresses whole gradient
vectors with array operations and is validated element-for-element
against the scalar reference in :mod:`repro.core.reference`.

Algorithm 2's class decision depends only on a value's biased exponent,
so every kernel reads one :class:`ExponentTable` per error bound — 256
entries, built once — the way the NIC engine decides a class in a
single pass without per-class branches.  The table's keep-mask makes
the reconstruction a bitwise AND: truncating the fixed-point magnitude
``q`` and rescaling it (Algorithm 3) yields exactly the input with its
mantissa bits below the class quantum cleared.  :func:`quantize` uses
that identity to give the reconstruction and the wire size without
building payloads at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .bounds import BIT16_FRACTION_BITS, ErrorBound, FLOAT32_EXP_BIAS
from .container import CompressedGradients, wire_bits
from .tags import (
    PAYLOAD_BITS_LUT,
    TAG_BIT8,
    TAG_BIT16,
    TAG_NO_COMPRESS,
    TAG_ZERO,
)

_MANTISSA_BITS = 23
_MANTISSA_MASK = np.uint32((1 << _MANTISSA_BITS) - 1)
_IMPLICIT_ONE = 1 << _MANTISSA_BITS
#: Number of float32 biased exponents (the table length).
NUM_EXPONENTS = 256


@dataclass(frozen=True)
class ExponentTable:
    """Algorithm 2's per-exponent decisions under one error bound.

    Every array has :data:`NUM_EXPONENTS` entries indexed by the float32
    biased exponent:

    ``tags``
        the 2-bit class tag.
    ``payload_bits``
        the payload width in bits (0/8/16/32).
    ``keep``
        the reconstruction mask: ``0`` for ZERO, ``0xFFFFFFFF`` for
        NO_COMPRESS, and for BIT8/BIT16 all bits but the mantissa bits
        below the class quantum.
    ``lead``
        what replaces the exponent field when forming the payload: the
        implicit one for BIT8/BIT16, the exponent itself for NO_COMPRESS.
    ``shift``
        right shift from the 24-bit significand to the fixed-point ``q``.
    ``sign_pos``
        the payload bit that carries the sign.
    """

    tags: np.ndarray
    payload_bits: np.ndarray
    keep: np.ndarray
    lead: np.ndarray
    shift: np.ndarray
    sign_pos: np.ndarray


@lru_cache(maxsize=None)
def exponent_table(bound: ErrorBound) -> ExponentTable:
    """Build (once per bound; there are 15) the 256-entry table for ``bound``.

    The cached arrays are shared by every caller, so they are read-only.
    """
    e = np.arange(NUM_EXPONENTS, dtype=np.int64)
    # NO_COMPRESS has highest precedence: with relaxed bounds (b < 7) the
    # BIT8 exponent threshold exceeds 127 and would otherwise swallow it.
    tags = np.select(
        [
            e >= FLOAT32_EXP_BIAS,
            e < bound.zero_exponent_threshold,
            e < bound.bit8_exponent_threshold,
        ],
        [TAG_NO_COMPRESS, TAG_ZERO, TAG_BIT8],
        TAG_BIT16,
    ).astype(np.uint8)
    # q = floor(|f| * 2^s) with s = b (BIT8) or 15 (BIT16) keeps the top
    # bits of the significand 1.m; ``shift`` is how many it drops.
    scale_exp = np.where(tags == TAG_BIT8, bound.exponent, BIT16_FRACTION_BITS)
    lossy = (tags == TAG_BIT8) | (tags == TAG_BIT16)
    shift = np.where(
        lossy, (FLOAT32_EXP_BIAS + _MANTISSA_BITS) - scale_exp - e, 0
    )
    zero = tags == TAG_ZERO
    keep = np.select(
        [zero, lossy], [0, (0xFFFFFFFF << shift) & 0xFFFFFFFF], 0xFFFFFFFF
    )
    lead = np.select([zero, lossy], [0, _IMPLICIT_ONE], e << _MANTISSA_BITS)
    payload_bits = PAYLOAD_BITS_LUT[tags].astype(np.int64)
    table = ExponentTable(
        tags=tags,
        payload_bits=payload_bits,
        keep=keep.astype(np.uint32),
        lead=lead.astype(np.uint32),
        shift=shift.astype(np.uint32),
        sign_pos=np.maximum(payload_bits - 1, 0).astype(np.uint32),
    )
    for arr in vars(table).values():
        arr.setflags(write=False)
    return table


def _as_float32_vector(values: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float32)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr


def _bits_and_exponents(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The raw float32 words of ``values`` and their biased exponents.

    The exponents come back as ``intp``: table gathers and ``bincount``
    would otherwise each convert a narrower index array on every call.
    """
    bits = _as_float32_vector(values).view(np.uint32)
    exponent = (bits >> np.uint32(_MANTISSA_BITS)) & np.uint32(0xFF)
    return bits, exponent.astype(np.intp)


def tag_counts(values: np.ndarray, bound: ErrorBound) -> np.ndarray:
    """Number of values in each tag class (int64, indexed by tag).

    Folds the 256-bin exponent histogram through the table's tags, so no
    per-value tag array is built.
    """
    _, exponent = _bits_and_exponents(values)
    histogram = np.bincount(exponent, minlength=NUM_EXPONENTS)
    return np.bincount(
        exponent_table(bound).tags, weights=histogram, minlength=4
    ).astype(np.int64)


def classify(values: np.ndarray, bound: ErrorBound) -> np.ndarray:
    """Return the 2-bit tag for every value (vectorized Algorithm 2 head)."""
    _, exponent = _bits_and_exponents(values)
    return exponent_table(bound).tags[exponent]


def compress(values: np.ndarray, bound: ErrorBound) -> CompressedGradients:
    """Compress a float32 vector under the given error bound.

    The payload is the significand ``1.m`` (or, for NO_COMPRESS, the
    exponent and mantissa) shifted down to its fixed-point width, with
    the sign placed above it; ZERO's keep-mask clears everything.
    """
    bits, exponent = _bits_and_exponents(values)
    table = exponent_table(bound)
    kept = bits & table.keep[exponent]
    payloads = ((kept & _MANTISSA_MASK) | table.lead[exponent]) >> table.shift[
        exponent
    ]
    payloads |= (kept >> np.uint32(31)) << table.sign_pos[exponent]
    return CompressedGradients(
        tags=table.tags[exponent], payloads=payloads, bound=bound
    )


#: Per-tag magnitude field, sign bit and (for NO_COMPRESS) raw-word flag.
_TAG_MAGNITUDE_MASK = np.array([0, 0x7F, 0x7FFF, 0], dtype=np.uint32)
_TAG_SIGN_BIT = np.array([0, 0x80, 0x8000, 0], dtype=np.uint32)
_TAG_IS_RAW = np.array([False, False, False, True], dtype=bool)


def decompress(compressed: CompressedGradients) -> np.ndarray:
    """Decompress back to a float32 vector (vectorized Algorithm 3)."""
    tags = compressed.tags.astype(np.intp)
    payloads = compressed.payloads
    scale = np.array(
        [0.0, compressed.bound.bit8_scale, 2.0**-BIT16_FRACTION_BITS, 0.0],
        dtype=np.float32,
    )
    magnitude = (payloads & _TAG_MAGNITUDE_MASK[tags]).astype(np.float32)
    magnitude *= scale[tags]
    signed = np.where(payloads & _TAG_SIGN_BIT[tags], -magnitude, magnitude)
    return np.where(_TAG_IS_RAW[tags], payloads, signed.view(np.uint32)).view(
        np.float32
    )


def quantize(values: np.ndarray, bound: ErrorBound) -> Tuple[np.ndarray, int]:
    """Single-pass ``decompress(compress(values))`` plus its wire size.

    Returns the flat float32 reconstruction and the exact wire-format
    size in bits, bit-identical to ``decompress(compress(values))`` and
    ``compress(values).compressed_bits``.
    """
    bits, exponent = _bits_and_exponents(values)
    table = exponent_table(bound)
    reconstruction = (bits & table.keep[exponent]).view(np.float32)
    histogram = np.bincount(exponent, minlength=NUM_EXPONENTS)
    return reconstruction, wire_bits(
        bits.size, int(histogram @ table.payload_bits)
    )


def roundtrip(values: np.ndarray, bound: ErrorBound) -> np.ndarray:
    """Compress then decompress, preserving the input's shape."""
    arr = np.asarray(values, dtype=np.float32)
    return quantize(arr, bound)[0].reshape(arr.shape)


def compressed_nbits(values: np.ndarray, bound: ErrorBound) -> int:
    """Wire-format size in bits without materializing payloads."""
    return quantize(values, bound)[1]
