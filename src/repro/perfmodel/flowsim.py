"""Flow-level fast path for the exchange simulators (Sec. VIII-D model).

The packet-granular pipeline is O(packets) in events and cannot reach
Fig-15-style sweeps at 1024-4096 nodes.  This module replays the *same*
per-train timing recurrence the event kernel executes — cut-through
stage chaining, FIFO reservation per resource, keyed same-instant
arbitration order — as a vectorized dynamic program over numpy arrays,
one entry per concurrent flow, generalizing the paper's per-hop
``alpha + nbytes / beta`` cost model to every wire traversal (engine,
uplink, downlink, engine).

Exactness: on the switched-star fabric the ring exchange has zero
cross-flow contention (each uplink and downlink serves exactly one
flow), so the flow DP reproduces the packet pipeline to floating-point
noise.  The WA exchange shares the aggregator's links; single-train
messages arrive in arbitration-key order and stay exact, while
multi-train gathers interleave the workers' trains in the packet
model and serve whole messages in FIFO order here.  That is the one
approximation: rounding noise while the shared downlink stays busy, up
to ~2e-4 relative when small trains leave it idle
(``tests/perfmodel/test_flow_parity.py``).

Cost: per-train serialization and head times are tabulated once per
exchange (:func:`train_times`), so a ring step only runs the FIFO
recurrence over precomputed seconds.  Each element still evaluates the
same float operations in the same order as the packet kernel, so the
ring matches it bit for bit and the pinned results stay unchanged
(``tests/perfmodel/test_flow_pins.py``).

Loss, retransmission and tracing remain packet-mode features; the
``fidelity="flow"`` wrappers in :mod:`repro.perfmodel.exchange` reject
them up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core import ErrorBound, StreamProfile
from repro.core.bounds import DEFAULT_BOUND
from repro.distributed.node import ComputeProfile, ZERO_COMPUTE
from repro.distributed.ring import ring_exchange_sizes
from repro.hardware.nic import InceptionnNic
from repro.hardware.timing import engine_latency_s, engine_throughput_bps
from repro.network.packet import HEADER_BYTES
from repro.transport.endpoint import ClusterConfig

if TYPE_CHECKING:
    from .exchange import ExchangeResult


@dataclass(frozen=True)
class FlowFabric:
    """Per-traversal cost parameters mirroring one :class:`ClusterConfig`.

    Each wire traversal is an ``(alpha, beta)`` pair — a latency plus a
    serialization rate — applied per stage of a flow's path, exactly the
    quantities the packet pipeline's :class:`repro.network.link.Link`
    uses.
    """

    bandwidth_bps: float
    link_latency_s: float
    switch_delay_s: float
    engine_bandwidth_bps: float
    engine_latency_s: float
    mss: int
    train_packets: int

    @classmethod
    def from_config(cls, config: ClusterConfig) -> "FlowFabric":
        """Derive the flow costs from the packet mode's own config."""
        return cls(
            bandwidth_bps=config.bandwidth_bps,
            link_latency_s=config.link_latency_s,
            switch_delay_s=config.switch_delay_s,
            engine_bandwidth_bps=engine_throughput_bps(
                config.engine_blocks, config.engine_clock_hz
            )
            * 8,
            engine_latency_s=engine_latency_s(config.engine_clock_hz),
            mss=config.mss,
            train_packets=config.train_packets,
        )

    @property
    def head_cap(self) -> int:
        """Largest head-packet size (header plus one MSS payload)."""
        return HEADER_BYTES + self.mss


def stream_compresses(
    stream: Optional[StreamProfile], bound: ErrorBound = DEFAULT_BOUND
) -> bool:
    """Whether gradient messages traverse the NIC engines.

    Mirrors the packet path: the sender NIC's comparator dispatches the
    stream's ToS (``build_wire_message``), and engines are present on
    the timing NICs exactly when a profile is configured.
    """
    if stream is None:
        return False
    nic = InceptionnNic(0, bound, enabled=True)
    return stream.compressing and nic.dispatches(stream.resolved_tos)


def wire_payload_nbytes(
    nbytes: np.ndarray, ratio: Optional[float], compressed: bool
) -> np.ndarray:
    """On-wire payload per message, as ``build_wire_message`` computes it."""
    if not compressed:
        return nbytes.astype(np.int64)
    divisor = 1.0 if ratio is None else ratio
    return np.rint(nbytes / divisor).astype(np.int64)


def split_trains(
    nbytes: np.ndarray, wire_payload: np.ndarray, fabric: FlowFabric
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Vectorized mirror of ``Network._split_trains`` over a batch.

    Returns one ``(packets, wire_bytes, raw_bytes)`` triple per train
    index (int64 arrays over the batch, byte counts including
    per-packet headers).  Batch entries whose message has fewer trains
    get zero-packet padding entries.
    """
    raw = nbytes.astype(np.int64)
    wire = wire_payload.astype(np.int64)
    num_packets = np.maximum(1, -(-raw // fabric.mss))
    remaining = num_packets.copy()
    wire_left, raw_left = wire.copy(), raw.copy()
    trains: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    while int(remaining.max()) > 0:
        pkts = np.minimum(fabric.train_packets, remaining)
        frac = pkts / num_packets
        wire_t = np.minimum(wire_left, np.rint(wire * frac).astype(np.int64))
        raw_t = np.minimum(raw_left, np.rint(raw * frac).astype(np.int64))
        last = remaining - pkts == 0
        wire_t = np.where(last, wire_left, wire_t)
        raw_t = np.where(last, raw_left, raw_t)
        remaining = remaining - pkts
        wire_left = wire_left - wire_t
        raw_left = raw_left - raw_t
        trains.append(
            (pkts, pkts * HEADER_BYTES + wire_t, pkts * HEADER_BYTES + raw_t)
        )
    return trains


class TrainTimes(NamedTuple):
    """One train index's per-message stage times over a batch (seconds).

    Built once per exchange from :func:`split_trains` with the exact
    expressions the packet kernel's ``Link`` evaluates, so a step of
    the recurrence only adds and compares precomputed seconds.
    """

    active: np.ndarray
    wire_ser: np.ndarray
    wire_head: np.ndarray
    raw_ser: np.ndarray
    raw_head: np.ndarray


def train_times(
    nbytes: np.ndarray, wire_payload: np.ndarray, fabric: FlowFabric
) -> List[TrainTimes]:
    """Per-train serialization and head times of a batch of messages.

    Wire times use the link rate, raw times the NIC engine rate; a
    head is the first packet (at most :attr:`FlowFabric.head_cap`
    bytes).  ``active`` masks zero-packet padding trains.
    """
    link, engine = fabric.bandwidth_bps, fabric.engine_bandwidth_bps
    return [
        TrainTimes(
            pkts > 0,
            wire_b * 8.0 / link,
            np.minimum(wire_b, fabric.head_cap) * 8.0 / link,
            raw_b * 8.0 / engine,
            np.minimum(raw_b, fabric.head_cap) * 8.0 / engine,
        )
        for pkts, wire_b, raw_b in split_trains(nbytes, wire_payload, fabric)
    ]


def _traverse(
    enter: np.ndarray,
    free: np.ndarray,
    serialization: np.ndarray,
    head: np.ndarray,
    latency_s: float,
    active: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One batch of trains over one batch of *distinct* FIFO resources.

    The packet kernel's ``Link._reserve`` + ``transmit_cut_through``
    arithmetic, element-wise, on times in seconds: returns
    ``(head_arrival, finish)`` and advances ``free`` in place where
    ``active`` (padding trains reserve nothing).
    """
    start = np.maximum(enter, free)
    finish = start + serialization
    np.copyto(free, finish, where=active)
    return start + head + latency_s, finish


def _serve_fifo(
    arrivals: np.ndarray, serialization: np.ndarray, free_at: float
) -> Tuple[np.ndarray, float]:
    """FIFO starts on one shared resource, in the given order.

    ``start[k] = max(arrival[k], finish[k-1])`` solved in closed form:
    with exclusive prefix sums ``c`` of the serialization times,
    ``start[k] - c[k]`` is the running maximum of ``arrival - c``
    (floored by the resource's prior ``free_at``).
    """
    prefix = np.zeros_like(serialization)
    np.cumsum(serialization[:-1], out=prefix[1:])
    starts = prefix + np.maximum(
        np.maximum.accumulate(arrivals - prefix), free_at
    )
    new_free = float(starts[-1] + serialization[-1]) if starts.size else free_at
    return starts, new_free


def simulate_ring_exchange_flow(
    num_workers: int,
    nbytes: int,
    iterations: int = 1,
    bandwidth_bps: float = 10e9,
    profile: ComputeProfile = ZERO_COMPUTE,
    stream: Optional[StreamProfile] = None,
    gradient_ratio: Optional[float] = None,
    bound: ErrorBound = DEFAULT_BOUND,
    include_local_compute: bool = False,
    train_packets: int = 4400,
) -> "ExchangeResult":
    """Flow-level replica of :func:`repro.perfmodel.exchange.simulate_ring_exchange`.

    ``gradient_ratio`` arrives already measured (the packet-mode
    wrapper owns the ratio measurement).
    """
    from .exchange import ExchangeResult

    if num_workers < 2:
        raise ValueError("need at least two workers")
    n = num_workers
    config = ClusterConfig(
        num_nodes=n,
        bandwidth_bps=bandwidth_bps,
        bound=bound,
        train_packets=train_packets,
        profile=stream,
    )
    fabric = FlowFabric.from_config(config)
    compressed = stream_compresses(stream, bound)

    block = np.array(
        [s * 4 for s in ring_exchange_sizes(n, nbytes // 4)], dtype=np.int64
    )
    wire_block = wire_payload_nbytes(block, gradient_ratio, compressed)
    # Worker w sends block (w - step + 1) mod n, a rotation: every
    # per-block table is stored twice end to end, and a step reads the
    # contiguous window starting at (1 - step) mod n.
    doubled = [
        TrainTimes(*(np.tile(a, 2) for a in train))
        for train in train_times(block, wire_block, fabric)
    ]
    sum_bw = profile.sum_bandwidth_bps
    sum_dt = np.tile(block / sum_bw, 2) if sum_bw > 0 else None
    # On the star ring only sender w uses the downlink and RX engine of
    # succ(w), so all four resources are indexed by sender.
    free_tx, free_up, free_down, free_rx = np.zeros((4, n))
    pred = (np.arange(n) - 1) % n
    t_ready = np.zeros(n)
    sum_s = 0.0
    update_s = 0.0

    for _ in range(iterations):
        if include_local_compute and profile.local_compute_s:
            t_ready = t_ready + profile.local_compute_s
        for step in range(1, 2 * n - 1):
            window = slice((1 - step) % n, (1 - step) % n + n)
            for t, train in enumerate(doubled):
                active, wire_ser, wire_head, raw_ser, raw_head = (
                    a[window] for a in train
                )
                cursor = t_ready
                if compressed:
                    cursor, _ = _traverse(
                        cursor,
                        free_tx,
                        raw_ser,
                        raw_head,
                        fabric.engine_latency_s,
                        active,
                    )
                head, _ = _traverse(
                    cursor,
                    free_up,
                    wire_ser,
                    wire_head,
                    fabric.link_latency_s,
                    active,
                )
                head, finish = _traverse(
                    head + fabric.switch_delay_s,
                    free_down,
                    wire_ser,
                    wire_head,
                    fabric.link_latency_s,
                    active,
                )
                latency = fabric.link_latency_s
                if compressed:
                    _, finish = _traverse(
                        head,
                        free_rx,
                        raw_ser,
                        raw_head,
                        fabric.engine_latency_s,
                        active,
                    )
                    latency = fabric.engine_latency_s
                # FIFO finishes never decrease, so a message's last
                # active train is its delivery; a padding train keeps
                # the previous train's.
                done = finish + latency
                delivered = done if t == 0 else np.where(active, done, delivered)
            t_ready = delivered[pred]
            if step < n and sum_dt is not None:
                dt = sum_dt[(-step) % n : (-step) % n + n]
                t_ready = t_ready + dt
                sum_s += float(dt[0])
        if profile.update_s:
            update_s += profile.update_s
            t_ready = t_ready + profile.update_s

    steps_per_iter = 2 * n - 2
    sent = int(block.sum()) * steps_per_iter * iterations
    wire_sent = int(wire_block.sum()) * steps_per_iter * iterations
    return ExchangeResult(
        algorithm="ring",
        num_workers=n,
        nbytes=nbytes,
        iterations=iterations,
        total_s=float(t_ready.max()),
        gradient_sum_s=sum_s,
        update_s=update_s,
        sent_nbytes=sent,
        wire_payload_nbytes=wire_sent,
        trains_retransmitted=0,
    )


def simulate_wa_exchange_flow(
    num_workers: int,
    nbytes: int,
    iterations: int = 1,
    bandwidth_bps: float = 10e9,
    profile: ComputeProfile = ZERO_COMPUTE,
    stream: Optional[StreamProfile] = None,
    gradient_ratio: Optional[float] = None,
    bound: ErrorBound = DEFAULT_BOUND,
    include_local_compute: bool = False,
    train_packets: int = 4400,
) -> "ExchangeResult":
    """Flow-level replica of :func:`repro.perfmodel.exchange.simulate_wa_exchange`.

    Gather and scatter legs share the aggregator's downlink/uplink; the
    shared-resource FIFO is served in arbitration-key order, matching
    the packet kernel exactly for single-train messages and
    whole-message FIFO for multi-train gathers.
    """
    from .exchange import ExchangeResult

    if num_workers < 2:
        raise ValueError("need at least two workers")
    p = num_workers
    config = ClusterConfig(
        num_nodes=p + 1,
        bandwidth_bps=bandwidth_bps,
        bound=bound,
        train_packets=train_packets,
        profile=stream,
    )
    fabric = FlowFabric.from_config(config)
    compressed = stream_compresses(stream, bound)

    sizes = np.full(p, nbytes, dtype=np.int64)
    wire_g = wire_payload_nbytes(sizes, gradient_ratio, compressed)
    gather = train_times(sizes, wire_g, fabric)
    scatter = train_times(sizes, sizes, fabric)
    # The aggregator's shared downlink, RX engine and uplink serve
    # every (worker, train) pair in worker-major (arbitration-key) order.
    down_ser = np.stack([t.wire_ser for t in gather], axis=1).ravel()
    down_head = np.stack([t.wire_head for t in gather], axis=1).ravel()
    rx_ser = np.stack([t.raw_ser for t in gather], axis=1).ravel()
    up_ser = np.stack([t.wire_ser for t in scatter], axis=1).ravel()
    up_head = np.stack([t.wire_head for t in scatter], axis=1).ravel()

    free_tx, free_up, free_down, free_rx = np.zeros((4, p + 1))
    t_workers = np.zeros(p)
    agg_free = 0.0
    sum_s = 0.0
    update_s = 0.0
    dt_sum = profile.sum_time(nbytes)

    for _ in range(iterations):
        if include_local_compute and profile.local_compute_s:
            t_workers = t_workers + profile.local_compute_s

        # -- gather: workers -> aggregator (engines when compressed) ----
        # Distinct stages (tx engine, own uplink) run vectorized; the
        # shared aggregator downlink and rx engine serve whole messages
        # in worker order (the arbitration key order).
        arr_down = np.empty((p, len(gather)))
        for t, train in enumerate(gather):
            cursor = t_workers
            if compressed:
                cursor, _ = _traverse(
                    cursor,
                    free_tx[:p],
                    train.raw_ser,
                    train.raw_head,
                    fabric.engine_latency_s,
                    train.active,
                )
            head, _ = _traverse(
                cursor,
                free_up[:p],
                train.wire_ser,
                train.wire_head,
                fabric.link_latency_s,
                train.active,
            )
            arr_down[:, t] = head + fabric.switch_delay_s
        starts, free_down[p] = _serve_fifo(
            arr_down.ravel(), down_ser, float(free_down[p])
        )
        if compressed:
            starts, free_rx[p] = _serve_fifo(
                starts + down_head + fabric.link_latency_s,
                rx_ser,
                float(free_rx[p]),
            )
            gathered = starts + rx_ser + fabric.engine_latency_s
        else:
            gathered = starts + down_ser + fabric.link_latency_s
        delivered_g = gathered.reshape(p, len(gather))[:, -1]

        # -- aggregator: ordered recv, sum, update ----------------------
        t_agg = max(agg_free, float(delivered_g[0]))
        for i in range(1, p):
            t_agg = max(t_agg, float(delivered_g[i])) + dt_sum
            sum_s += dt_sum
        if profile.update_s:
            update_s += profile.update_s
            t_agg += profile.update_s

        # -- scatter: aggregator -> workers (always raw) ----------------
        # All sends spawn at the same instant; the shared uplink grants
        # whole messages in destination order (the key order), exactly.
        starts, free_up[p] = _serve_fifo(
            np.full(up_ser.size, t_agg), up_ser, float(free_up[p])
        )
        enter_down = (
            (starts + up_head + fabric.link_latency_s) + fabric.switch_delay_s
        ).reshape(p, len(scatter))
        for t, train in enumerate(scatter):
            _, finish = _traverse(
                enter_down[:, t],
                free_down[:p],
                train.wire_ser,
                train.wire_head,
                fabric.link_latency_s,
                train.active,
            )
            done = finish + fabric.link_latency_s
            t_workers = done if t == 0 else np.where(train.active, done, t_workers)
        agg_free = float(t_workers.max())

    sent = 2 * p * nbytes * iterations
    wire_sent = (int(wire_g.sum()) + p * nbytes) * iterations
    return ExchangeResult(
        algorithm="wa",
        num_workers=p,
        nbytes=nbytes,
        iterations=iterations,
        total_s=agg_free,
        gradient_sum_s=sum_s,
        update_s=update_s,
        sent_nbytes=sent,
        wire_payload_nbytes=wire_sent,
        trains_retransmitted=0,
    )


__all__ = [
    "FlowFabric",
    "TrainTimes",
    "simulate_ring_exchange_flow",
    "simulate_wa_exchange_flow",
    "split_trains",
    "stream_compresses",
    "train_times",
    "wire_payload_nbytes",
]
