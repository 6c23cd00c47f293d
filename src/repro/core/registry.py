"""Pluggable gradient-codec registry and per-stream profiles.

The paper hardwires one contract: gradient streams are tagged ToS 0x28
and the NIC's INCEPTIONN engines pick them up.  This module generalizes
that contract so any compressor can ride the same transport:

* :class:`GradientCodec` — the protocol every codec implements:
  ``compress(values, **params)`` returns the measured wire size *and*
  the reconstruction the receiver will observe, keeping the functional
  and timing domains coupled exactly like the INCEPTIONN path.
* a registry mapping codec names to implementations, each with its own
  reserved ToS byte (``inceptionn`` keeps the paper's 0x28).
* :class:`StreamProfile` — the per-stream property the software stack
  threads through the transport instead of a ``compressible`` boolean:
  codec name, ToS byte and codec parameters (error bound etc.).

Seven codecs are registered from this module: the INCEPTIONN codec, a
lossless identity, and the four comparator baselines (LSB truncation,
QSGD quantization, DGC sparsification, the SZ-style error-bounded
compressor) plus the snappy-like lossless LZ — so every offline
comparison in ``src/repro/baselines`` can now run end-to-end through
the simulated NIC and fabric.  The homomorphic families (lossless
homomorphic compression, THC) live in :mod:`repro.core.homomorphic`
and the FFT sparsifier in :mod:`repro.core.fftsparse`; they register
themselves on import (``repro.core`` imports both).

Codecs may additionally implement the *codec algebra* —
``aggregate_compressed(parts)`` summing payloads without a decompress
round-trip — advertised via the :data:`CAP_HOMOMORPHIC` capability
flag; the aggregation-site layer (``repro.transport.aggregation``)
keys off it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.network.packet import (
    TOS_COMPRESS,
    TOS_DEFAULT,
    register_compressible_tos,
)

from .bounds import DEFAULT_BOUND, ErrorBound
from .codec import quantize as _inc_quantize

# Not called here: perfbench/spans.py wraps these module globals by name
# as ``core.codec`` spans, so they must exist until its boundary list
# names ``_inc_quantize`` instead.
from .codec import compress as _inc_compress  # noqa: F401
from .codec import decompress as _inc_decompress  # noqa: F401

#: Capability flags reported by :meth:`GradientCodec.capabilities`.
#: ``CAP_HOMOMORPHIC`` marks codecs whose payloads form a monoid under
#: addition (``aggregate_compressed`` is implemented), ``CAP_LOSSY``
#: marks inexact reconstructions, and ``CAP_ERROR_FEEDBACK`` marks
#: codecs whose dropped mass an EF-SGD-style wrapper can re-inject.
CAP_HOMOMORPHIC = "homomorphic"
CAP_LOSSY = "lossy"
CAP_ERROR_FEEDBACK = "error-feedback"


@dataclass(frozen=True)
class CodecResult:
    """What one ``compress`` (or ``aggregate_compressed``) call produced.

    ``payload_nbytes`` is the measured wire size (what the network
    clocks); ``values`` is the reconstruction (what the receiver
    observes).  Codecs never ship opaque blobs through the simulator —
    the two domains travel together.

    ``fan_in`` counts how many gradient streams are folded into this
    payload (1 for a fresh ``compress``); ``state``, when a homomorphic
    codec sets it, is the codec's exact compressed-domain accumulator,
    carried alongside the float32 rendering so partial sums forwarded
    through a reduction tree never lose precision.
    """

    payload_nbytes: int
    values: np.ndarray
    fan_in: int = 1
    state: Optional[object] = None

    @property
    def compression_ratio(self) -> float:
        if self.payload_nbytes == 0:
            return float("inf")
        return self.values.size * 4 / self.payload_nbytes


def _flat32(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float32).reshape(-1)


class GradientCodec(abc.ABC):
    """Protocol of a pluggable gradient compressor.

    Subclasses set ``name``/``lossless`` and implement ``compress``;
    lossy codecs also implement :meth:`error_bound` so tests and callers
    can check reconstructions against the declared guarantee.
    """

    #: Registry key, also used on the wire via the codec's ToS byte.
    name: str = "?"
    #: Lossless codecs reconstruct bit-exactly.
    lossless: bool = False

    def default_params(self) -> Dict[str, object]:
        """Parameter defaults, for documentation and the CLI listing."""
        return {}

    @abc.abstractmethod
    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        """Measure the wire size of ``values`` and reconstruct them."""

    def error_bound(self, values: np.ndarray, **params: object) -> Optional[float]:
        """Declared max absolute reconstruction error on ``values``.

        ``None`` means bit-exact (lossless codecs).  Lossy codecs return
        a bound that :meth:`compress`'s reconstruction is guaranteed to
        respect for these inputs and parameters.
        """
        if self.lossless:
            return None
        raise NotImplementedError(f"{self.name} must declare an error bound")

    def capabilities(self) -> FrozenSet[str]:
        """Capability flags (``CAP_*``) for discovery and site checks.

        The default derives ``lossy`` from :attr:`lossless`; codecs with
        a codec algebra add :data:`CAP_HOMOMORPHIC`, codecs whose
        dropped mass is re-injectable add :data:`CAP_ERROR_FEEDBACK`.
        """
        return frozenset() if self.lossless else frozenset({CAP_LOSSY})

    @property
    def homomorphic(self) -> bool:
        """True when payloads aggregate without leaving the codec domain."""
        return CAP_HOMOMORPHIC in self.capabilities()

    def aggregate_compressed(
        self, parts: Sequence[CodecResult], **params: object
    ) -> CodecResult:
        """Sum compressed ``parts`` without a decompress round-trip.

        The codec algebra: homomorphic codecs return the payload of the
        aggregate — same wire/value coupling as :meth:`compress`, with
        ``fan_in`` accumulated and ``state`` carrying the codec's exact
        accumulator.  Codecs without :data:`CAP_HOMOMORPHIC` raise.
        """
        raise NotImplementedError(
            f"codec {self.name!r} has no codec algebra "
            "(not homomorphic); aggregate at the endpoint instead"
        )

    def aggregate_payload_nbytes(
        self,
        raw_nbytes: int,
        payload_sizes: Sequence[int],
        fan_in: int,
        **params: object,
    ) -> int:
        """Size-domain image of :meth:`aggregate_compressed`.

        For size-only streams (paper-scale sends with no functional
        array) the reduction runtime needs the aggregated wire size
        without values; homomorphic codecs model it from the raw byte
        count and the combined ``fan_in``.
        """
        raise NotImplementedError(
            f"codec {self.name!r} has no codec algebra "
            "(not homomorphic); aggregate at the endpoint instead"
        )

    def measured_ratio(self, values: np.ndarray, **params: object) -> float:
        """Compression ratio achieved on ``values``."""
        arr = _flat32(values)
        if arr.size == 0:
            return 1.0
        return arr.nbytes / max(1, self.compress(arr, **params).payload_nbytes)


# -- built-in codecs ---------------------------------------------------------


class InceptionnCodec(GradientCodec):
    """The paper's error-bounded hardware codec (Algorithms 2/3)."""

    name = "inceptionn"

    def capabilities(self) -> FrozenSet[str]:
        # The EF-SGD wrapper (repro.core.error_feedback) re-injects the
        # residual this codec drops.
        return frozenset({CAP_LOSSY, CAP_ERROR_FEEDBACK})

    def default_params(self) -> Dict[str, object]:
        return {"bound": DEFAULT_BOUND.exponent}

    @staticmethod
    def _bound(params: Mapping) -> ErrorBound:
        bound = params.get("bound", DEFAULT_BOUND)
        return bound if isinstance(bound, ErrorBound) else ErrorBound(bound)

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        reconstruction, nbits = _inc_quantize(values, self._bound(params))
        return CodecResult(payload_nbytes=-(-nbits // 8), values=reconstruction)

    def error_bound(self, values: np.ndarray, **params: object) -> Optional[float]:
        return self._bound(params).bound


class IdentityCodec(GradientCodec):
    """Lossless pass-through: ratio 1.0, bit-exact.

    Useful as a control stream and for measuring pure engine overhead.
    """

    name = "identity"
    lossless = True

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        arr = _flat32(values)
        return CodecResult(payload_nbytes=arr.nbytes, values=arr.copy())


class TruncationCodec(GradientCodec):
    """The paper's ``xb-T`` baseline: drop the low ``bits`` LSBs."""

    name = "truncation"

    def default_params(self) -> Dict[str, object]:
        return {"bits": 16}

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        from repro.baselines.truncation import truncate_lsbs

        bits = int(params.get("bits", 16))
        arr = _flat32(values)
        payload_bits = arr.size * (32 - bits)
        return CodecResult(
            payload_nbytes=-(-payload_bits // 8),
            values=truncate_lsbs(arr, bits),
        )

    def error_bound(self, values: np.ndarray, **params: object) -> Optional[float]:
        # Zeroing the low ``bits`` bits of a float with magnitude |v|
        # perturbs it by less than 2^bits ulps = |v| * 2^(bits - 23).
        bits = int(params.get("bits", 16))
        arr = _flat32(values)
        max_abs = float(np.max(np.abs(arr))) if arr.size else 0.0
        return max_abs * 2.0 ** (bits - 23)


class QuantizationCodec(GradientCodec):
    """QSGD stochastic uniform quantization (Alistarh et al.)."""

    name = "quantization"

    def default_params(self) -> Dict[str, object]:
        return {"bits": 4, "seed": 0}

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        from repro.baselines.quantization import qsgd

        bits = int(params.get("bits", 4))
        rng = np.random.default_rng(int(params.get("seed", 0)))
        result = qsgd(_flat32(values), rng, bits=bits)
        return CodecResult(
            payload_nbytes=-(-result.payload_bits // 8), values=result.values
        )

    def error_bound(self, values: np.ndarray, **params: object) -> Optional[float]:
        # Stochastic rounding lands on one of two adjacent levels, so the
        # per-element error is below one level step = ||g|| / levels.
        bits = int(params.get("bits", 4))
        levels = (1 << bits) - 1
        norm = float(np.linalg.norm(_flat32(values)))
        return norm / levels


class SparsificationCodec(GradientCodec):
    """DGC-style top-k sparsification (single-shot, no residual state).

    The stateful accumulating variant lives in
    :class:`repro.baselines.sparsification.DeepGradientCompression`;
    the registry adapter is stateless per call so concurrent simulated
    streams do not share residuals.
    """

    name = "sparsification"

    def capabilities(self) -> FrozenSet[str]:
        # DGC's defining trick is residual accumulation of the dropped
        # coordinates — an error-feedback codec by construction.
        return frozenset({CAP_LOSSY, CAP_ERROR_FEEDBACK})

    def default_params(self) -> Dict[str, object]:
        return {"sparsity": 0.9}

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        from repro.baselines.sparsification import DeepGradientCompression

        sparsity = float(params.get("sparsity", 0.9))
        result = DeepGradientCompression(sparsity=sparsity).sparsify(
            _flat32(values)
        )
        return CodecResult(
            payload_nbytes=-(-result.payload_bits // 8), values=result.values
        )

    def error_bound(self, values: np.ndarray, **params: object) -> Optional[float]:
        # Every transmitted coordinate is exact; a dropped one errs by
        # its own magnitude, which the top-k threshold keeps at or below
        # the largest surviving magnitude — bounded by max |g|.
        arr = _flat32(values)
        return float(np.max(np.abs(arr))) if arr.size else 0.0


class SzCodec(GradientCodec):
    """The SZ-style error-bounded predictor codec (real bitstream)."""

    name = "sz_like"

    def default_params(self) -> Dict[str, object]:
        return {"bound": 2.0**-10}

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        from repro.baselines import sz_like

        bound = float(params.get("bound", 2.0**-10))
        arr = _flat32(values)
        blob = sz_like.compress(arr, bound)
        return CodecResult(
            payload_nbytes=len(blob), values=sz_like.decompress(blob, bound)
        )

    def error_bound(self, values: np.ndarray, **params: object) -> Optional[float]:
        return float(params.get("bound", 2.0**-10))


class SnappyCodec(GradientCodec):
    """Snappy-like lossless LZ over the raw float bytes (real bitstream)."""

    name = "snappy_like"
    lossless = True

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        from repro.baselines import snappy_like

        arr = _flat32(values)
        blob = snappy_like.compress(arr.tobytes())
        restored = np.frombuffer(snappy_like.decompress(blob), dtype=np.float32)
        return CodecResult(payload_nbytes=len(blob), values=restored.copy())


# -- the registry ------------------------------------------------------------


@dataclass(frozen=True)
class RegisteredCodec:
    """A codec plus the ToS byte its streams are tagged with."""

    codec: GradientCodec
    tos: int


_REGISTRY: Dict[str, RegisteredCodec] = {}


def register_codec(codec: GradientCodec, tos: int) -> GradientCodec:
    """Register ``codec`` under its name with a reserved ToS byte."""
    name = codec.name
    if not name or name == "?":
        raise ValueError("codecs must set a registry name")
    if name in _REGISTRY:
        raise ValueError(f"codec {name!r} is already registered")
    # Sorted so the collision error names the same claimant no matter
    # what order plugins imported in (rule R10: registry listing order).
    for other, entry in sorted(_REGISTRY.items()):
        if entry.tos == tos:
            raise ValueError(
                f"ToS {tos:#x} already claimed by codec {other!r}"
            )
    register_compressible_tos(tos)
    _REGISTRY[name] = RegisteredCodec(codec=codec, tos=tos)
    return codec


def available_codecs() -> Tuple[str, ...]:
    """Registered codec names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_codec(name: str) -> GradientCodec:
    """Look a codec up by name; unknown names list what is available."""
    try:
        return _REGISTRY[name].codec
    except KeyError:
        raise KeyError(
            f"unknown codec {name!r}; available codecs: "
            f"{', '.join(available_codecs())}"
        ) from None


def codec_tos(name: str) -> int:
    """The ToS byte tagging streams of the named codec."""
    get_codec(name)  # raise the descriptive KeyError for unknown names
    return _REGISTRY[name].tos


# -- stream profiles ---------------------------------------------------------


@dataclass(frozen=True)
class StreamProfile:
    """Per-stream property replacing the old ``compressible`` boolean.

    ``codec is None`` means a raw stream (ordinary traffic, ToS 0x00).
    Otherwise the stream is tagged with the codec's registered ToS (or
    an explicit override) and, when the endpoint NICs have engines, its
    payload travels compressed: the receiver observes the codec's
    reconstruction and the wire carries its measured size.
    """

    codec: Optional[str] = None
    tos: Optional[int] = None
    params: Mapping[str, object] = field(default_factory=dict)

    @property
    def resolved_tos(self) -> int:
        """The ToS byte this stream's packets carry."""
        if self.tos is not None:
            return self.tos
        if self.codec is None:
            return TOS_DEFAULT
        return codec_tos(self.codec)

    @property
    def compressing(self) -> bool:
        """True when this profile requests engine processing."""
        return self.codec is not None and self.resolved_tos != TOS_DEFAULT

    def resolve(self) -> GradientCodec:
        if self.codec is None:
            raise ValueError("raw streams have no codec to resolve")
        return get_codec(self.codec)

    @property
    def homomorphic(self) -> bool:
        """True when this stream's codec supports the codec algebra."""
        return self.codec is not None and self.resolve().homomorphic

    def compress(self, values: np.ndarray) -> CodecResult:
        return self.resolve().compress(values, **dict(self.params))

    def aggregate_compressed(
        self, parts: Sequence[CodecResult]
    ) -> CodecResult:
        """Apply the codec algebra with this stream's parameters."""
        return self.resolve().aggregate_compressed(
            parts, **dict(self.params)
        )

    def aggregate_payload_nbytes(
        self, raw_nbytes: int, payload_sizes: Sequence[int], fan_in: int
    ) -> int:
        """Size-domain codec algebra with this stream's parameters."""
        return self.resolve().aggregate_payload_nbytes(
            raw_nbytes, payload_sizes, fan_in, **dict(self.params)
        )

    def error_bound(self, values: np.ndarray) -> Optional[float]:
        return self.resolve().error_bound(values, **dict(self.params))

    def describe(self) -> str:
        if self.codec is None:
            return "raw"
        params = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.codec}({params})" if params else self.codec


#: The ordinary-traffic profile: no codec, ToS 0x00.
RAW_STREAM = StreamProfile()


def profile_for(name: str, **params: object) -> StreamProfile:
    """Build a profile for a registered codec (validates the name)."""
    return StreamProfile(codec=name, tos=codec_tos(name), params=params)


def inceptionn_profile(bound: ErrorBound = DEFAULT_BOUND) -> StreamProfile:
    """The paper's default stream: INCEPTIONN codec under ToS 0x28."""
    return profile_for("inceptionn", bound=bound)


register_codec(InceptionnCodec(), tos=TOS_COMPRESS)
register_codec(IdentityCodec(), tos=0x2C)
register_codec(TruncationCodec(), tos=0x30)
register_codec(QuantizationCodec(), tos=0x34)
register_codec(SparsificationCodec(), tos=0x38)
register_codec(SzCodec(), tos=0x3C)
register_codec(SnappyCodec(), tos=0x40)
