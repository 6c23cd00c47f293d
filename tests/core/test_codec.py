"""Vectorized codec tests, including equivalence with the scalar reference."""

import numpy as np
import pytest

from repro.core import (
    ErrorBound,
    TAG_NO_COMPRESS,
    TAG_ZERO,
    classify,
    compress,
    compressed_nbits,
    decompress,
    roundtrip,
)
from repro.core.codec import quantize, tag_counts
from repro.core.reference import (
    compress_value,
    decompress_value,
    float_to_bits,
)

ALL_BOUNDS = range(1, 16)

#: Mantissas probed at every biased exponent 0..255.  Zero gives ±0,
#: ±inf, and the exact class thresholds 2^-b, 2^(7-b) and 1.0; all ones
#: gives the largest value below each threshold.  At e=0 the others are
#: subnormals, and at e=255 they are NaNs: 0x400000 and 0x400001 are quiet
#: NaNs (the second carries a payload), and 1 is a signalling NaN.  The
#: rest land between the BIT8/BIT16 quanta.
_MANTISSAS = (0, 1, 0x400000, 0x400001, 0x7FFFFF, 0x123456, 0x00FFFF, 0x7F0000)


def _sample_gradients(n=4096, scale=0.3, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) * scale).astype(np.float32)


def _every_exponent():
    """Both signs of each probe mantissa at every biased exponent."""
    exponent, mantissa, sign = np.meshgrid(
        np.arange(256, dtype=np.uint32),
        np.array(_MANTISSAS, dtype=np.uint32),
        np.array([0, 1], dtype=np.uint32),
        indexing="ij",
    )
    bits = (sign << np.uint32(31)) | (exponent << np.uint32(23)) | mantissa
    return bits.ravel().view(np.float32)


def _reference_inputs(exp, seed):
    """Random gradients plus hand-picked and exhaustive edge cases."""
    extras = np.array(
        [0.0, -0.0, 1.0, -1.0, 2.0**-exp, -(2.0**-exp), 0.999, 5e-42, 1e30],
        dtype=np.float32,
    )
    return np.concatenate(
        [_sample_gradients(2000, seed=seed), extras, _every_exponent()]
    )


def _float_api_exact(value):
    """The scalar reference takes Python floats, which quiet signalling NaNs."""
    return float_to_bits(float(value)) == int(value.view(np.uint32))


@pytest.mark.parametrize("exp", ALL_BOUNDS)
def test_matches_scalar_reference(exp):
    bound = ErrorBound(exp)
    values = _reference_inputs(exp, seed=exp)
    cg = compress(values, bound)
    np.testing.assert_array_equal(classify(values, bound), cg.tags)
    for i, value in enumerate(values):
        if not _float_api_exact(value):
            continue
        tag, payload = compress_value(float(value), bound)
        assert cg.tags[i] == tag, (i, value)
        assert cg.payloads[i] == payload, (i, value)


@pytest.mark.parametrize("exp", ALL_BOUNDS)
def test_decompress_matches_scalar_reference(exp):
    bound = ErrorBound(exp)
    values = _reference_inputs(exp, seed=exp + 100)
    cg = compress(values, bound)
    recon_bits = decompress(cg).view(np.uint32)
    for i, value in enumerate(values):
        if not _float_api_exact(value):
            continue
        expected = decompress_value(int(cg.tags[i]), int(cg.payloads[i]), bound)
        assert recon_bits[i] == float_to_bits(expected), (i, value)


@pytest.mark.parametrize("exp", ALL_BOUNDS)
def test_quantize_matches_compress_decompress(exp):
    # Bit for bit, signalling-NaN payloads included; sizes and tag counts
    # agree with the container's census.
    bound = ErrorBound(exp)
    values = _reference_inputs(exp, seed=exp + 200)
    cg = compress(values, bound)
    recon, nbits = quantize(values, bound)
    np.testing.assert_array_equal(
        recon.view(np.uint32), decompress(cg).view(np.uint32)
    )
    assert nbits == cg.compressed_bits == compressed_nbits(values, bound)
    np.testing.assert_array_equal(
        tag_counts(values, bound), np.bincount(cg.tags, minlength=4)
    )
    np.testing.assert_array_equal(
        roundtrip(values, bound).view(np.uint32), recon.view(np.uint32)
    )


def test_roundtrip_error_bound_vectorized():
    bound = ErrorBound(10)
    values = _sample_gradients(100_000, scale=0.2)
    recon = roundtrip(values, bound)
    inside = np.abs(values) < 1.0
    assert np.max(np.abs(values[inside] - recon[inside])) < bound.bound
    assert np.array_equal(values[~inside], recon[~inside])


def test_roundtrip_preserves_shape():
    bound = ErrorBound(8)
    values = _sample_gradients(600).reshape(20, 30)
    recon = roundtrip(values, bound)
    assert recon.shape == (20, 30)


def test_classify_extremes():
    bound = ErrorBound(10)
    values = np.array([0.0, np.inf, -np.inf, np.nan, 1e-40], dtype=np.float32)
    tags = classify(values, bound)
    assert tags[0] == TAG_ZERO
    assert tags[1] == TAG_NO_COMPRESS
    assert tags[2] == TAG_NO_COMPRESS
    assert tags[3] == TAG_NO_COMPRESS
    assert tags[4] == TAG_ZERO


def test_nan_and_inf_survive_roundtrip():
    bound = ErrorBound(10)
    values = np.array([np.nan, np.inf, -np.inf], dtype=np.float32)
    recon = roundtrip(values, bound)
    assert np.isnan(recon[0])
    assert recon[1] == np.inf
    assert recon[2] == -np.inf


def test_empty_vector():
    bound = ErrorBound(10)
    cg = compress(np.array([], dtype=np.float32), bound)
    assert len(cg) == 0
    assert decompress(cg).shape == (0,)
    assert cg.compression_ratio == 1.0


def test_compressed_nbits_matches_container():
    bound = ErrorBound(10)
    values = _sample_gradients(1000)
    cg = compress(values, bound)
    assert compressed_nbits(values, bound) == cg.compressed_bits


def test_quantize_does_not_alias_input():
    values = _sample_gradients(64)
    before = values.copy()
    recon, _ = quantize(values, ErrorBound(1))
    recon[:] = 7.0
    np.testing.assert_array_equal(values, before)


def test_all_zero_vector_hits_maximum_ratio():
    bound = ErrorBound(10)
    values = np.zeros(8000, dtype=np.float32)
    cg = compress(values, bound)
    # 2 bits per value out of 32 -> exactly 16x.
    assert cg.compression_ratio == pytest.approx(16.0)


def test_accepts_float64_input():
    bound = ErrorBound(10)
    values = np.array([0.5, 0.001, 2.0], dtype=np.float64)
    recon = roundtrip(values, bound)
    assert abs(recon[0] - 0.5) < bound.bound
    assert recon[2] == 2.0
