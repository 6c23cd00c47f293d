"""NIC datapath with integrated (de)compression engines (paper Fig 8).

Transmit side: packets arrive from the host over the (modeled) DMA, a
comparator checks the IP ToS byte against the engine dispatch table,
and payloads of matching packets stream through that ToS's engine
before entering the MAC FIFOs; everything else bypasses.  Receive side
mirrors this with the paired decompression engine.

The INCEPTIONN engines sit at ToS ``0x28`` by default; additional
byte-level engines (e.g. the snappy-like LZ or SZ-style codec) can be
attached at other registered codec ToS bytes via
:meth:`InceptionnNic.register_engine`, so the comparator dispatches on
ToS → codec instead of assuming one engine.

This is the *functional* model — it transforms real packet bytes
bit-exactly.  Its timing surface is exported to the network simulator
via :func:`repro.hardware.timing.timing_model_for`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.bounds import ErrorBound
from repro.network.packet import (
    TOS_COMPRESS,
    Packet,
    is_compressible_tos,
    segment_bytes,
)
from repro.obs import CAT_CODEC, Tracer

from .axi import WORDS_PER_BURST
from .compression_engine import DEFAULT_CLOCK_HZ, CompressionEngine
from .decompression_engine import DecompressionEngine

#: TX transform: payload bytes -> compressed bytes.
CompressFn = Callable[[bytes], bytes]
#: RX transform: (compressed bytes, num_values or None) -> payload bytes.
DecompressFn = Callable[[bytes, Optional[int]], bytes]


@dataclass(frozen=True)
class PacketEngine:
    """One ToS slot of the NIC's engine dispatch table."""

    name: str
    compress: CompressFn
    decompress: DecompressFn


def snappy_engine() -> PacketEngine:
    """Byte-level lossless LZ engine (the snappy-like baseline)."""
    from repro.baselines import snappy_like

    return PacketEngine(
        name="snappy_like",
        compress=snappy_like.compress,
        decompress=lambda blob, _num_values: snappy_like.decompress(blob),
    )


def sz_engine(bound: float = 2.0**-10) -> PacketEngine:
    """Error-bounded SZ-style engine over float32 payload words."""
    from repro.baselines import sz_like

    def _compress(payload: bytes) -> bytes:
        values = np.frombuffer(payload, dtype=np.float32)
        return sz_like.compress(values, bound)

    def _decompress(blob: bytes, _num_values: Optional[int]) -> bytes:
        return sz_like.decompress(blob, bound).tobytes()

    return PacketEngine(name="sz_like", compress=_compress, decompress=_decompress)


@dataclass
class NicCounters:
    """Traffic counters maintained by the datapath."""

    tx_packets: int = 0
    tx_compressed: int = 0
    tx_bypassed: int = 0
    tx_payload_bytes_in: int = 0
    tx_payload_bytes_out: int = 0
    rx_packets: int = 0
    rx_decompressed: int = 0
    rx_bypassed: int = 0

    @property
    def tx_compression_ratio(self) -> float:
        """Payload-level compression ratio achieved so far."""
        if self.tx_payload_bytes_out == 0:
            return 1.0
        return self.tx_payload_bytes_in / self.tx_payload_bytes_out


@dataclass
class _CompressionContext:
    """Sidecar metadata carried by compressed packets.

    In the physical system the receive host knows the logical message
    length (the MPI receive posts it); in the simulation we carry it on
    the packet so the RX path can trim group padding.
    """

    num_values: int
    original_context: object = None


class InceptionnNic:
    """A NIC whose comparator dispatches ToS bytes to paired engines.

    The INCEPTIONN compression/decompression engines are installed at
    ToS ``0x28``; further engines attach with :meth:`register_engine`.
    Packets whose ToS matches no table entry bypass untouched.
    """

    def __init__(
        self,
        node_id: int,
        bound: ErrorBound,
        enabled: bool = True,
        num_blocks: int = WORDS_PER_BURST,
        clock_hz: float = DEFAULT_CLOCK_HZ,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.node_id = node_id
        self.bound = bound
        self.enabled = enabled
        #: Nullable tracer: records per-packet engine calls + tag classes.
        self.tracer = tracer
        self.compressor = CompressionEngine(bound, num_blocks, clock_hz)
        self.decompressor = DecompressionEngine(bound, num_blocks, clock_hz)
        self.counters = NicCounters()
        self._engines: Dict[int, PacketEngine] = {}
        self.register_engine(
            TOS_COMPRESS,
            PacketEngine(
                name="inceptionn",
                compress=lambda payload: self.compressor.compress(payload)[0],
                decompress=lambda blob, num_values: self.decompressor.decompress(
                    blob, num_values
                )[0],
            ),
        )

    # -- engine dispatch table ---------------------------------------------------

    def register_engine(self, tos: int, engine: PacketEngine) -> PacketEngine:
        """Attach an engine pair at a ToS byte (replacing any previous)."""
        if not 0 <= tos <= 0xFF:
            raise ValueError(f"ToS must fit one byte, got {tos:#x}")
        self._engines[tos] = engine
        return engine

    def engine_for(self, tos: int) -> Optional[PacketEngine]:
        """The engine the comparator selects for ``tos`` (None = bypass)."""
        if not self.enabled:
            return None
        return self._engines.get(tos)

    def dispatches(self, tos: int) -> bool:
        """Would the comparator route ``tos`` traffic through an engine?

        Message-granular variant of :meth:`engine_for`, used by the
        :mod:`repro.transport.wire` builder: any ToS claimed by a
        registered codec dispatches (the stream's own codec does the
        byte work there), in addition to locally attached packet
        engines.  A disabled NIC bypasses everything.
        """
        if not self.enabled:
            return False
        return tos in self._engines or is_compressible_tos(tos)

    # -- aggregate accounting (WireMessage pipeline) -----------------------------

    def account_tx(
        self,
        packets: int,
        engine_packets: int,
        payload_bytes_in: int,
        payload_bytes_out: int,
    ) -> None:
        """Tick TX counters for one wire traversal of a packet train.

        Equivalent to running :meth:`process_tx` over every packet, but
        at message granularity so size-only (paper-scale) sends never
        walk per-packet objects.  Payload bytes count only the
        engine-processed stream, matching the per-packet path.
        """
        self.counters.tx_packets += packets
        self.counters.tx_compressed += engine_packets
        self.counters.tx_bypassed += packets - engine_packets
        self.counters.tx_payload_bytes_in += payload_bytes_in
        self.counters.tx_payload_bytes_out += payload_bytes_out

    def account_rx(self, packets: int, engine_packets: int) -> None:
        """Tick RX counters for one delivered packet train."""
        self.counters.rx_packets += packets
        self.counters.rx_decompressed += engine_packets
        self.counters.rx_bypassed += packets - engine_packets

    # -- per-packet datapath -----------------------------------------------------

    def _trace_engine_call(
        self, name: str, engine: str, packet: Packet, out_nbytes: int
    ) -> None:
        """Record one engine pass (and, for INCEPTIONN, its tag classes).

        The functional NIC model runs outside simulated time, so these
        events carry ``ts=0`` — they order by record sequence, and their
        value is the per-packet achieved ratio and tag-class census.
        """
        assert self.tracer is not None
        in_nbytes = packet.payload_nbytes
        # Explicit zero handling: an empty packet compressed to nothing
        # is ratio 1.0, not infinity (the falsy-check cousin of the
        # zero-ratio bug fixed in the sized-send path).
        if out_nbytes:
            ratio = in_nbytes / out_nbytes
        elif in_nbytes:
            ratio = float("inf")
        else:
            ratio = 1.0
        self.tracer.instant(
            name,
            cat=CAT_CODEC,
            ts=0.0,
            node=self.node_id,
            engine=engine,
            seq=packet.seq,
            tos=packet.tos,
            nbytes_in=in_nbytes,
            nbytes_out=out_nbytes,
            ratio=ratio,
        )
        metrics = self.tracer.metrics
        metrics.counter(f"{name}_packets", engine=engine).inc()
        if (
            name == "nic.compress"
            and engine == "inceptionn"
            and packet.payload is not None
            and in_nbytes % 4 == 0
            and in_nbytes
        ):
            from repro.core.codec import tag_counts

            values = np.frombuffer(packet.payload, dtype=np.float32)
            counts = tag_counts(values, self.bound)
            for tag in range(4):
                if counts[tag]:
                    metrics.counter("tag_class_values", tag=tag).inc(
                        int(counts[tag])
                    )

    def process_tx(self, packet: Packet) -> Packet:
        """Transmit-side classification + compression of one packet."""
        self.counters.tx_packets += 1
        engine = self.engine_for(packet.tos)
        if engine is None:
            self.counters.tx_bypassed += 1
            return packet
        if packet.payload is None:
            raise ValueError(
                "bit-exact NIC processing needs materialized payload bytes"
            )
        compressed = engine.compress(packet.payload)
        self.counters.tx_compressed += 1
        self.counters.tx_payload_bytes_in += len(packet.payload)
        self.counters.tx_payload_bytes_out += len(compressed)
        if self.tracer is not None:
            self._trace_engine_call(
                "nic.compress", engine.name, packet, len(compressed)
            )
        return Packet(
            src=packet.src,
            dst=packet.dst,
            seq=packet.seq,
            tos=packet.tos,
            payload=compressed,
            context=_CompressionContext(
                num_values=len(packet.payload) // 4,
                original_context=packet.context,
            ),
        )

    def process_rx(self, packet: Packet) -> Packet:
        """Receive-side classification + decompression of one packet."""
        self.counters.rx_packets += 1
        engine = self.engine_for(packet.tos)
        if engine is None:
            self.counters.rx_bypassed += 1
            return packet
        if packet.payload is None:
            raise ValueError(
                "bit-exact NIC processing needs materialized payload bytes"
            )
        context = packet.context
        num_values = (
            context.num_values if isinstance(context, _CompressionContext) else None
        )
        restored = engine.decompress(packet.payload, num_values)
        self.counters.rx_decompressed += 1
        if self.tracer is not None:
            self._trace_engine_call(
                "nic.decompress", engine.name, packet, len(restored)
            )
        original_context = (
            context.original_context
            if isinstance(context, _CompressionContext)
            else context
        )
        return Packet(
            src=packet.src,
            dst=packet.dst,
            seq=packet.seq,
            tos=packet.tos,
            payload=restored,
            context=original_context,
        )

    # -- message-level convenience -------------------------------------------------

    def transmit_message(
        self, data: bytes, dst: int, tos: int, mss: int = 1460
    ) -> List[Packet]:
        """Segment a byte stream and run every packet through TX."""
        packets = segment_bytes(data, src=self.node_id, dst=dst, tos=tos, mss=mss)
        return [self.process_tx(pkt) for pkt in packets]

    def receive_message(self, packets: List[Packet]) -> bytes:
        """Run packets through RX in sequence order and reassemble."""
        restored = [self.process_rx(pkt) for pkt in packets]
        restored.sort(key=lambda p: p.seq)
        return b"".join(p.payload for p in restored)
