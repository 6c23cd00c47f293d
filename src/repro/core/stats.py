"""Statistics over compressed gradients: Table III and Fig 14 metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

import numpy as np

from .bounds import ErrorBound
from .codec import compressed_nbits, tag_counts
from .tags import ENCODED_BITS, TAG_BIT8, TAG_BIT16, TAG_NO_COMPRESS, TAG_ZERO

#: Tag order used for reporting, matching Table III's column order
#: (2-bit, 10-bit, 18-bit, 34-bit encodings).
REPORT_TAG_ORDER = (TAG_ZERO, TAG_BIT8, TAG_BIT16, TAG_NO_COMPRESS)


@dataclass(frozen=True)
class BitwidthDistribution:
    """Fraction of values landing in each encoded-size class (Table III)."""

    fractions: Dict[int, float]  # tag -> fraction of values
    num_values: int

    def fraction_of(self, tag: int) -> float:
        """Fraction of values encoded with the given tag."""
        return self.fractions.get(tag, 0.0)

    @property
    def as_row(self) -> Dict[str, float]:
        """Table III row: encoded size label -> fraction."""
        return {
            f"{ENCODED_BITS[tag]}-bit": self.fractions[tag]
            for tag in REPORT_TAG_ORDER
        }

    @property
    def average_bits_per_value(self) -> float:
        """Mean encoded bits per value, including the 2-bit tag."""
        return sum(
            ENCODED_BITS[tag] * frac for tag, frac in self.fractions.items()
        )

    @property
    def compression_ratio(self) -> float:
        """32 bits over the mean encoded size."""
        avg = self.average_bits_per_value
        return 32.0 / avg if avg else float("inf")


def bitwidth_distribution(
    values: np.ndarray, bound: ErrorBound
) -> BitwidthDistribution:
    """Classify a gradient vector and report the tag-class fractions."""
    counts = tag_counts(values, bound)
    n = int(counts.sum())
    if n == 0:
        raise ValueError("cannot compute a distribution over zero values")
    fractions = {tag: int(counts[tag]) / n for tag in REPORT_TAG_ORDER}
    return BitwidthDistribution(fractions=fractions, num_values=n)


def compression_ratio(values: np.ndarray, bound: ErrorBound) -> float:
    """Exact wire-format compression ratio for a gradient vector.

    Raises ``ValueError`` on an empty vector — the ratio of zero bytes
    is undefined, and returning a quiet 1.0 here while
    :func:`bitwidth_distribution` raised made the two disagree on the
    same degenerate input.
    """
    n = np.size(values)
    if n == 0:
        raise ValueError("cannot compute a compression ratio over zero values")
    return (n * 32) / compressed_nbits(values, bound)


def average_compression_ratio(
    vectors: Iterable[np.ndarray], bound: ErrorBound
) -> float:
    """Mean per-vector compression ratio over an iteration trace.

    The paper reports *average* compression ratios across training
    iterations (Fig 14), i.e. the mean of per-snapshot ratios rather than
    the ratio of summed sizes.
    """
    ratios = [compression_ratio(vec, bound) for vec in vectors]
    if not ratios:
        raise ValueError("no gradient vectors supplied")
    return float(np.mean(ratios))


def max_abs_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Largest absolute elementwise deviation (the codec's bound metric)."""
    orig = np.asarray(original, dtype=np.float64).reshape(-1)  # repro-lint: disable=R1 -- error metric needs full precision
    recon = np.asarray(reconstructed, dtype=np.float64).reshape(-1)  # repro-lint: disable=R1 -- error metric needs full precision
    if orig.shape != recon.shape:
        raise ValueError("arrays must have the same number of elements")
    finite = np.isfinite(orig)
    if not finite.all():
        orig, recon = orig[finite], recon[finite]
    if orig.size == 0:
        return 0.0
    return float(np.max(np.abs(orig - recon)))


def value_histogram(
    values: np.ndarray, bins: int = 101, value_range: Sequence[float] = (-1.0, 1.0)
) -> "tuple[np.ndarray, np.ndarray]":
    """Normalized histogram of gradient values (paper Fig 5).

    Returns ``(frequencies, bin_edges)`` where frequencies sum to the
    fraction of values inside ``value_range``.
    """
    flat = np.asarray(values, dtype=np.float64).reshape(-1)  # repro-lint: disable=R1 -- histogram bins, not a gradient payload
    counts, edges = np.histogram(flat, bins=bins, range=tuple(value_range))
    freqs = counts / max(flat.size, 1)
    return freqs, edges
