"""Codec registry: round-trips, error bounds, and profile resolution."""

import numpy as np
import pytest

from repro.core import (
    RAW_STREAM,
    StreamProfile,
    available_codecs,
    codec_tos,
    get_codec,
    inceptionn_profile,
    profile_for,
)
from repro.network import is_compressible_tos


def _sample(size=512, seed=3):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(size) * 0.004).astype(np.float32)


@pytest.mark.parametrize("name", available_codecs())
def test_round_trip_respects_declared_bound(name):
    codec = get_codec(name)
    values = _sample()
    result = codec.compress(values, **codec.default_params())

    assert result.values.dtype == np.float32
    assert result.values.shape == values.shape
    assert result.payload_nbytes > 0

    bound = codec.error_bound(values, **codec.default_params())
    if codec.lossless:
        assert bound in (None, 0.0)
        np.testing.assert_array_equal(result.values, values)
    else:
        assert bound is not None and bound > 0
        assert float(np.max(np.abs(result.values - values))) <= bound


@pytest.mark.parametrize("name", available_codecs())
def test_every_codec_has_a_registered_tos(name):
    tos = codec_tos(name)
    assert 0 <= tos <= 0xFF
    assert is_compressible_tos(tos)
    profile = profile_for(name)
    assert profile.resolved_tos == tos
    assert profile.compressing


def test_unknown_codec_raises_with_available_names():
    with pytest.raises(KeyError) as excinfo:
        get_codec("definitely_not_a_codec")
    message = excinfo.value.args[0]
    assert "definitely_not_a_codec" in message
    for name in available_codecs():
        assert name in message


def test_unknown_profile_raises_too():
    with pytest.raises(KeyError):
        profile_for("nope").resolve()


def test_raw_stream_is_not_compressing():
    assert not RAW_STREAM.compressing
    assert StreamProfile().compressing is False


def test_profile_params_override_defaults():
    values = _sample()
    default = profile_for("truncation").compress(values)
    aggressive = profile_for("truncation", bits=24).compress(values)
    assert aggressive.payload_nbytes < default.payload_nbytes


def test_inceptionn_profile_matches_direct_codec():
    values = _sample()
    profile = inceptionn_profile()
    codec = get_codec("inceptionn")
    via_profile = profile.compress(values)
    direct = codec.compress(values, **codec.default_params())
    np.testing.assert_array_equal(via_profile.values, direct.values)
    assert via_profile.payload_nbytes == direct.payload_nbytes
    assert profile.resolved_tos == codec_tos("inceptionn") == 0x28


@pytest.mark.parametrize("bound", [2.7, 10.0, True])
def test_inceptionn_rejects_non_integer_bound_param(bound):
    # A non-integral bound used to be truncated with int(): 2.7 ran at
    # 2^-2 while error_bound() reported 0.25.
    profile = profile_for("inceptionn", bound=bound)
    with pytest.raises(ValueError, match="must be an integer"):
        profile.compress(_sample())
    with pytest.raises(ValueError, match="must be an integer"):
        get_codec("inceptionn").error_bound(_sample(), bound=bound)


def test_inceptionn_accepts_numpy_integer_bound_param():
    values = _sample()
    codec = get_codec("inceptionn")
    np_bound = codec.compress(values, bound=np.int64(8))
    int_bound = codec.compress(values, bound=8)
    np.testing.assert_array_equal(np_bound.values, int_bound.values)
    assert np_bound.payload_nbytes == int_bound.payload_nbytes
    assert codec.error_bound(values, bound=np.int64(8)) == 2.0**-8


def test_compression_ratio_property():
    values = _sample(size=1024)
    result = profile_for("truncation").compress(values)
    assert result.compression_ratio == pytest.approx(
        values.nbytes / result.payload_nbytes
    )


# -- listing determinism (rule R10 runtime counterpart) ----------------------


def test_listings_are_sorted_not_insertion_ordered():
    """User-visible registry listings must not leak import order."""
    from repro.core import available_codecs
    from repro.distributed import available_strategies

    assert list(available_codecs()) == sorted(available_codecs())
    assert list(available_strategies()) == sorted(available_strategies())


def test_tos_collision_error_names_claimant():
    """The duplicate-ToS scan reports deterministically regardless of
    registration order (the scan is sorted)."""
    from repro.core import codec_tos
    from repro.core.registry import register_codec

    class _Stub:
        name = "zz-test-dup"

    taken = codec_tos("inceptionn")
    with pytest.raises(ValueError, match="already claimed by codec 'inceptionn'"):
        register_codec(_Stub(), tos=taken)
