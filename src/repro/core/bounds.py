"""Error-bound configuration for the INCEPTIONN lossy gradient codec.

The paper evaluates three absolute error bounds: 2^-10, 2^-8 and 2^-6
(Sec. VIII-C).  A bound ``2^-b`` partitions the float32 input range into
four classes, each encoded with a 2-bit tag and a 0/8/16/32-bit payload:

====================  ==============  =======================
value magnitude       tag             payload
====================  ==============  =======================
``|f| >= 1.0``        NO_COMPRESS     raw 32-bit word
``|f| <  2^-b``       ZERO            none (decodes to 0.0)
``[2^-b, 2^(7-b))``   BIT8            sign + 7-bit q = |f|*2^b
``[2^(7-b), 1.0)``    BIT16           sign + 15-bit q = |f|*2^15
====================  ==============  =======================

Every lossy class keeps the absolute reconstruction error strictly below
``2^-b`` (the 16-bit class is even tighter: below ``2^-15``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

#: Biased exponent of 1.0 in IEEE-754 single precision.
FLOAT32_EXP_BIAS = 127

#: Fixed-point fraction bits carried by the 16-bit payload class.
BIT16_FRACTION_BITS = 15

#: Magnitude bits carried by the 8-bit payload class (plus one sign bit).
BIT8_MAGNITUDE_BITS = 7


@dataclass(frozen=True)
class ErrorBound:
    """Absolute error bound ``2^-b`` steering the codec's class thresholds.

    Parameters
    ----------
    exponent:
        The ``b`` in ``2^-b``.  The paper uses 6, 8 and 10.  Any value in
        ``[1, 15]`` is supported; beyond 15 the 8-bit class quantization
        step would undercut the 16-bit class precision and the scheme
        degenerates.
    """

    exponent: int

    def __post_init__(self) -> None:
        # Thresholds are exponent comparisons, so ``b`` must be an integer:
        # a fractional ``b`` would shift the classes off the quanta and
        # decode values larger than their inputs.  ``bool`` is an ``int``
        # subclass but never a meaningful bound.
        if isinstance(self.exponent, bool) or not isinstance(
            self.exponent, numbers.Integral
        ):
            raise ValueError(
                f"error-bound exponent must be an integer, got {self.exponent!r}"
            )
        object.__setattr__(self, "exponent", int(self.exponent))
        if not 1 <= self.exponent <= BIT16_FRACTION_BITS:
            raise ValueError(
                f"error-bound exponent must be in [1, {BIT16_FRACTION_BITS}], "
                f"got {self.exponent}"
            )

    @property
    def bound(self) -> float:
        """The absolute error bound as a float (``2^-b``)."""
        return 2.0 ** -self.exponent

    @property
    def zero_exponent_threshold(self) -> int:
        """Biased exponents below this encode as ZERO (``|f| < 2^-b``)."""
        return FLOAT32_EXP_BIAS - self.exponent

    @property
    def bit8_exponent_threshold(self) -> int:
        """Biased exponents below this (and >= zero threshold) use BIT8.

        BIT8 stores ``q = floor(|f| * 2^b)`` in 7 bits, which holds any
        magnitude below ``2^(7-b)``.
        """
        return FLOAT32_EXP_BIAS - self.exponent + BIT8_MAGNITUDE_BITS

    @property
    def bit8_scale(self) -> float:
        """Quantization step of the BIT8 class (``2^-b``)."""
        return self.bound

    @classmethod
    def from_bound(cls, bound: float) -> "ErrorBound":
        """Build from a literal bound such as ``2**-10``.

        The bound must be an exact power of two; the paper's hardware
        realizes the threshold as an exponent comparison, so arbitrary
        bounds are not representable.
        """
        from math import frexp

        mantissa, exp = frexp(bound)
        if mantissa != 0.5 or bound <= 0.0:
            raise ValueError(f"bound must be a positive power of two, got {bound}")
        return cls(exponent=1 - exp)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"2^-{self.exponent}"


#: The three bounds evaluated in the paper (Sec. VIII-C, Fig 14, Table III).
PAPER_BOUNDS = (ErrorBound(10), ErrorBound(8), ErrorBound(6))

#: The bound used for the headline end-to-end results (Fig 12/13).
DEFAULT_BOUND = ErrorBound(10)
