"""Unit tests for error-bound configuration."""

import numpy as np
import pytest

from repro.core import ErrorBound, PAPER_BOUNDS


def test_bound_value():
    assert ErrorBound(10).bound == 2.0**-10
    assert ErrorBound(6).bound == 2.0**-6


def test_paper_bounds_are_the_three_evaluated():
    assert [b.exponent for b in PAPER_BOUNDS] == [10, 8, 6]


def test_zero_threshold_excludes_values_below_bound():
    bound = ErrorBound(10)
    # 2^-10 has biased exponent 117; anything below encodes to zero.
    assert bound.zero_exponent_threshold == 117


def test_bit8_threshold_is_seven_above_zero_threshold():
    bound = ErrorBound(8)
    assert bound.bit8_exponent_threshold - bound.zero_exponent_threshold == 7


def test_from_bound_roundtrip():
    for exp in (1, 6, 8, 10, 15):
        assert ErrorBound.from_bound(2.0**-exp) == ErrorBound(exp)


def test_from_bound_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        ErrorBound.from_bound(0.001)


def test_from_bound_rejects_negative():
    with pytest.raises(ValueError):
        ErrorBound.from_bound(-0.25)


@pytest.mark.parametrize("exp", [0, -3, 16, 100])
def test_exponent_out_of_range_rejected(exp):
    with pytest.raises(ValueError):
        ErrorBound(exp)


@pytest.mark.parametrize("exp", [2.5, 10.0, True, False, np.bool_(True), "10"])
def test_non_integer_exponent_rejected(exp):
    # A fractional b would misplace the class thresholds (2.5 decoded 0.3
    # as 0.3536, above the input); bools are ints but never a bound.
    with pytest.raises(ValueError, match="must be an integer"):
        ErrorBound(exp)


@pytest.mark.parametrize("exp", [np.int8(6), np.int64(10), np.uint16(15)])
def test_numpy_integer_exponent_accepted_as_int(exp):
    bound = ErrorBound(exp)
    assert bound == ErrorBound(int(exp))
    assert type(bound.exponent) is int
    assert str(bound) == f"2^-{int(exp)}"


def test_bit8_scale_equals_bound():
    bound = ErrorBound(6)
    assert bound.bit8_scale == bound.bound


def test_str_rendering():
    assert str(ErrorBound(10)) == "2^-10"
