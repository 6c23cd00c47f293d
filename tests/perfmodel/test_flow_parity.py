"""Flow-level fast path: parity against the packet simulator.

The flow model (``repro.perfmodel.flowsim``) mirrors the packet
kernel's arithmetic operation for operation, so parity is pinned
*tight*: the ring topology has zero cross-flow contention and is exact
(``==``).  The WA gather's whole-message FIFO approximation measures at
float rounding noise (<= 2.4e-15 relative) on the configurations below;
the 1e-9 tolerance leaves six orders of magnitude of headroom over
rounding while still catching any genuine modeling divergence.

One divergence is known and pinned as a strict xfail: when small
trains (``train_packets`` 1-3) leave the aggregator's downlink idle
between arrivals, the packet model interleaves the workers' trains
while the flow model serves whole messages, and WA totals drift by up
to ~2e-4 relative.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import inceptionn_profile
from repro.network import RetransmitPolicy
from repro.network.packet import packet_count
from repro.obs import Tracer
from repro.perfmodel import simulate_ring_exchange, simulate_wa_exchange

from .test_flow_pins import PROFILE

#: Pinned flow-vs-packet relative tolerance (see module docstring).
TOL = 1e-9

SIMULATORS = [simulate_ring_exchange, simulate_wa_exchange]

#: Case name -> (workers, nbytes, keyword arguments of the simulators).
CASES = {
    # > ~6.4 MB splits messages into several 4400-packet trains,
    # exercising the cut-through pipelining arithmetic.
    "multi_train": (3, 20_000_000, {}),
    # Every compute term nonzero, over three iterations.
    "compute": (
        3,
        2_000_000,
        dict(profile=PROFILE, include_local_compute=True, iterations=3),
    ),
    # Two unequal ring blocks: which block a worker sums is observable.
    "compute_two": (
        2,
        2_000_004,
        dict(profile=PROFILE, include_local_compute=True, iterations=3),
    ),
    # Ring blocks of 1464/1464/1460 B: the batch carries padding trains.
    "padding": (3, 4388, dict(train_packets=1)),
    # Multi-train WA gathers: 2.32e-15 and 1.68e-15 relative error raw.
    "multi_train_small": (3, 70_088, dict(train_packets=3, iterations=2)),
    "multi_train_five": (5, 17_524, dict(train_packets=2, iterations=2)),
}


def _stream(compress):
    return inceptionn_profile() if compress else None


def _both(simulate, workers, nbytes, **kwargs):
    packet = simulate(workers, nbytes, **kwargs)
    flow = simulate(workers, nbytes, fidelity="flow", **kwargs)
    return packet, flow


class TestFlowPacketParity:
    @pytest.mark.parametrize("simulate", SIMULATORS)
    @pytest.mark.parametrize("workers", [2, 3, 5])
    @pytest.mark.parametrize("compress", [False, True])
    def test_single_train_totals_match(self, simulate, workers, compress):
        packet, flow = _both(
            simulate,
            workers,
            2_000_000,
            iterations=2,
            stream=_stream(compress),
        )
        assert flow.total_s == pytest.approx(packet.total_s, rel=TOL)
        assert flow.sent_nbytes == packet.sent_nbytes
        assert flow.wire_payload_nbytes == packet.wire_payload_nbytes
        assert flow.iterations == packet.iterations

    @pytest.mark.parametrize("simulate", SIMULATORS)
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("compress", [False, True])
    def test_case_totals_match(self, simulate, case, compress):
        workers, nbytes, kwargs = CASES[case]
        packet, flow = _both(
            simulate, workers, nbytes, stream=_stream(compress), **kwargs
        )
        assert flow.total_s == pytest.approx(packet.total_s, rel=TOL)
        assert flow.gradient_sum_s == pytest.approx(
            packet.gradient_sum_s, rel=TOL
        )
        assert flow.update_s == packet.update_s
        assert flow.sent_nbytes == packet.sent_nbytes
        assert flow.wire_payload_nbytes == packet.wire_payload_nbytes

    @given(
        workers=st.integers(min_value=2, max_value=6),
        nbytes=st.integers(min_value=0, max_value=99_999),
        train_packets=st.integers(min_value=1, max_value=8),
        compress=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_flow_equals_packet(
        self, workers, nbytes, train_packets, compress
    ):
        packet, flow = _both(
            simulate_ring_exchange,
            workers,
            nbytes,
            train_packets=train_packets,
            stream=_stream(compress),
        )
        assert flow.total_s == packet.total_s
        assert flow.sent_nbytes == packet.sent_nbytes
        assert flow.wire_payload_nbytes == packet.wire_payload_nbytes

    @given(
        workers=st.integers(min_value=2, max_value=6),
        nbytes=st.integers(min_value=0, max_value=99_999),
        train_packets=st.integers(min_value=1, max_value=8),
        compress=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_wa_flow_matches_packet(
        self, workers, nbytes, train_packets, compress
    ):
        packet, flow = _both(
            simulate_wa_exchange,
            workers,
            nbytes,
            train_packets=train_packets,
            stream=_stream(compress),
        )
        assert flow.sent_nbytes == packet.sent_nbytes
        assert flow.wire_payload_nbytes == packet.wire_payload_nbytes
        # Single-train gathers arrive in key order: the model is exact
        # up to rounding.  Multi-train gathers are the known divergence
        # (test_wa_interleaved_trains_diverge).
        if packet_count(nbytes) <= train_packets:
            assert flow.total_s == pytest.approx(packet.total_s, rel=TOL)

    @pytest.mark.xfail(
        strict=True,
        reason="WA flow serves whole messages; the packet model "
        "interleaves small trains at the aggregator's downlink",
    )
    def test_wa_interleaved_trains_diverge(self):
        packet, flow = _both(
            simulate_wa_exchange,
            2,
            80_364,
            train_packets=1,
            stream=inceptionn_profile(),
        )
        assert flow.total_s == pytest.approx(packet.total_s, rel=TOL)

    def test_explicit_stream_matches(self):
        stream = inceptionn_profile()
        packet, flow = _both(simulate_wa_exchange, 4, 2_000_000, stream=stream)
        assert flow.total_s == pytest.approx(packet.total_s, rel=TOL)
        assert flow.wire_ratio == pytest.approx(packet.wire_ratio, rel=TOL)


class TestFlowScaling:
    def test_1024_worker_ring_sweep_is_fast(self):
        # Acceptance criterion: a Fig-15-style point at 1024 workers
        # completes in seconds, not hours.
        t0 = time.perf_counter()
        result = simulate_ring_exchange(
            1024, 100_000_000, stream=inceptionn_profile(), fidelity="flow"
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        assert result.total_s > 0.0
        assert result.num_workers == 1024

    def test_flow_scaling_is_monotonic_in_workers(self):
        totals = [
            simulate_wa_exchange(
                p, 10_000_000, stream=inceptionn_profile(), fidelity="flow"
            ).total_s
            for p in (4, 8, 16)
        ]
        assert totals == sorted(totals)


class TestFlowGuards:
    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            simulate_ring_exchange(4, 1000, fidelity="quantum")

    @pytest.mark.parametrize("simulate", SIMULATORS)
    @pytest.mark.parametrize("fidelity", ["packet", "flow"])
    @pytest.mark.parametrize("ratio", [0.5, 0.0, -2.0, float("nan")])
    def test_invalid_ratio_rejected(self, simulate, fidelity, ratio):
        with pytest.raises(ValueError, match="compression ratio"):
            simulate(
                3,
                12_000,
                stream=inceptionn_profile(),
                gradient_ratio=ratio,
                fidelity=fidelity,
            )

    @pytest.mark.parametrize("simulate", SIMULATORS)
    def test_infinite_ratio_accepted_alike(self, simulate):
        packet, flow = _both(
            simulate,
            3,
            12_000,
            stream=inceptionn_profile(),
            gradient_ratio=float("inf"),
        )
        assert flow.total_s == pytest.approx(packet.total_s, rel=TOL)
        assert flow.wire_payload_nbytes == packet.wire_payload_nbytes

    def test_flow_rejects_loss(self):
        with pytest.raises(ValueError, match="loss"):
            simulate_ring_exchange(4, 1000, fidelity="flow", loss_rate=0.1)

    def test_flow_rejects_retransmission(self):
        with pytest.raises(ValueError, match="retransmission"):
            simulate_wa_exchange(
                4, 1000, fidelity="flow", retransmit=RetransmitPolicy()
            )

    def test_flow_rejects_tracer(self):
        with pytest.raises(ValueError, match="tracing"):
            simulate_wa_exchange(4, 1000, fidelity="flow", tracer=Tracer())
