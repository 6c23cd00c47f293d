"""Bit-exact pins for the two-tier (oversubscribed ToR + core) fabric.

The values below were recorded with ``tools/record_two_tier_pins.py``
while ``two-tier:`` still built its own ToR/core fabric class, before
the spec became a one-spine :class:`~repro.network.LeafSpine` whose
leaf<->spine ports run at ``bandwidth * hosts / oversub``.  Both graphs
give every host pair the same single path over links of the same
rates, so the exchange and placement timings must reproduce these
``float.hex`` strings and byte counts exactly.
"""

import pytest

from repro.core import inceptionn_profile
from repro.network import (
    Network,
    Simulation,
    build_topology,
    rack_aligned_ring_order,
    rack_interleaved_ring_order,
)
from repro.perfmodel import simulate_ring_exchange, simulate_wa_exchange

TOPOLOGY = "two-tier:racks=2,hosts=3,oversub=4"
NBYTES = 200_000

#: Case name -> keyword arguments of the exchange simulators.
CASES = {
    f"{stream}_tp{train_packets}": dict(
        train_packets=train_packets,
        stream=inceptionn_profile() if stream == "inceptionn" else None,
    )
    for stream in ("raw", "inceptionn")
    for train_packets in (1, 128)
}

#: Algorithm -> (simulator, workers).  The WA aggregator takes the
#: sixth host, so both exchanges fill the two racks of three.
SIMULATORS = {
    "ring": (simulate_ring_exchange, 6),
    "wa": (simulate_wa_exchange, 5),
}

#: "<algo>_<case>" -> (total_s.hex(), sent, wire payload, link payload).
PINS = {
    "ring_raw_tp1": ("0x1.aebb8f0713be3p-12", 2_000_000, 2_000_000, 5_333_328),
    "ring_raw_tp128": ("0x1.8eb2bf868bbacp-12", 2_000_000, 2_000_000, 5_333_328),
    "ring_inceptionn_tp1": ("0x1.a0132e1404a0dp-13", 2_000_000, 530_180, 1_413_812),
    "ring_inceptionn_tp128": ("0x1.d744cee26e89ap-13", 2_000_000, 530_180, 1_413_812),
    "wa_raw_tp1": ("0x1.b6339b477585ep-10", 2_000_000, 2_000_000, 6_400_000),
    "wa_raw_tp128": ("0x1.b6339b477588ep-10", 2_000_000, 2_000_000, 6_400_000),
    "wa_inceptionn_tp1": ("0x1.31b11362fd37ep-10", 2_000_000, 1_265_075, 4_048_240),
    "wa_inceptionn_tp128": ("0x1.322449c93d447p-10", 2_000_000, 1_265_075, 4_048_240),
}

#: Placement ablation: 8 MB ring blocks on ``two-tier:racks=2,hosts=4``.
PLACEMENT_BLOCK = 8 * 2**20
PLACEMENT_OVERSUB = (1.0, 4.0, 8.0)

#: "<order>_<oversub>" -> ring rotation time as ``float.hex``.
PLACEMENT_PINS = {
    "aligned_1": "0x1.8fcc626cfd469p-4",
    "aligned_4": "0x1.8fe70e229fc09p-4",
    "aligned_8": "0x1.8df14652148c8p-3",
    "interleaved_1": "0x1.9a67728a490dcp-4",
    "interleaved_4": "0x1.8f1411b34564cp-2",
    "interleaved_8": "0x1.8ec87e52791dep-1",
}


def exchange_pin(algo, case):
    simulate, workers = SIMULATORS[algo]
    result = simulate(workers, NBYTES, topology=TOPOLOGY, **CASES[case])
    return (
        result.total_s.hex(),
        result.sent_nbytes,
        result.wire_payload_nbytes,
        result.link_payload_nbytes,
    )


def placement_orders():
    fabric = build_topology("two-tier:racks=2,hosts=4", Simulation(), 8)
    return {
        "aligned": rack_aligned_ring_order(fabric),
        "interleaved": rack_interleaved_ring_order(fabric),
    }


def placement_time(order_name, oversub):
    """Full ring (2(n-1) steps) of 8 MB blocks in the given node order."""
    order = placement_orders()[order_name]
    sim = Simulation()
    fabric = build_topology(
        f"two-tier:racks=2,hosts=4,oversub={oversub:g}", sim, 8
    )
    net = Network(sim, fabric, train_packets=880)
    n = len(order)

    def node(pos):
        src, dst = order[pos], order[(pos + 1) % n]
        for _ in range(2 * (n - 1)):
            yield net.send(src, dst, PLACEMENT_BLOCK)

    procs = [sim.process(node(pos)) for pos in range(n)]
    out = []
    sim.all_of(procs).add_callback(lambda e: out.append(sim.now))
    sim.run()
    return out[0].hex()


@pytest.mark.parametrize("key", sorted(PINS))
def test_two_tier_exchange_is_bit_exact(key):
    algo, case = key.split("_", 1)
    assert exchange_pin(algo, case) == PINS[key]


@pytest.mark.parametrize("key", sorted(PLACEMENT_PINS))
def test_placement_ablation_is_bit_exact(key):
    order_name, oversub = key.split("_")
    assert placement_time(order_name, float(oversub)) == PLACEMENT_PINS[key]


def test_pins_cover_every_case():
    assert set(PINS) == {f"{a}_{c}" for a in SIMULATORS for c in CASES}
    assert set(PLACEMENT_PINS) == {
        f"{o}_{v:g}" for o in ("aligned", "interleaved") for v in PLACEMENT_OVERSUB
    }
