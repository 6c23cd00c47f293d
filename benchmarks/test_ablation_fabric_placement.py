"""Ablation: ring placement on an oversubscribed two-tier fabric.

The paper's testbed is one switch; real datacenters oversubscribe ToR
uplinks (Sec. VII-C cites Facebook/Google designs).  This ablation runs
the ring exchange over a 2-rack fabric with 4:1 oversubscription and
compares node orderings: rack-aligned (one core hop per rack boundary)
vs rack-interleaved (every hop crosses the core).
"""

import pytest

from conftest import print_header, print_row, run_once
from repro.network import (
    Network,
    Simulation,
    build_topology,
    rack_aligned_ring_order,
    rack_interleaved_ring_order,
)

MB = 2**20
BLOCK = 8 * MB  # per-hop block of a 64 MB model over 8 nodes


def _two_tier(sim, oversubscription=4.0):
    return build_topology(
        f"two-tier:racks=2,hosts=4,oversub={oversubscription:g}", sim, 8
    )


def _ring_exchange_time(order, oversubscription):
    sim = Simulation()
    fabric = _two_tier(sim, oversubscription)
    net = Network(sim, fabric, train_packets=880)
    n = len(order)

    def node(idx):
        def proc():
            nxt = order[(order.index(order[idx]) + 1) % n]
            src = order[idx]
            for _ in range(2 * (n - 1)):
                yield net.send(src, nxt, BLOCK)

        return proc

    procs = [sim.process(node(i)()) for i in range(n)]
    out = []
    sim.all_of(procs).add_callback(lambda e: out.append(sim.now))
    sim.run()
    return out[0]


@pytest.fixture(scope="module")
def times():
    probe = _two_tier(Simulation())
    aligned = rack_aligned_ring_order(probe)
    interleaved = rack_interleaved_ring_order(probe)
    out = {}
    for oversub in (1.0, 4.0, 8.0):
        out[("aligned", oversub)] = _ring_exchange_time(aligned, oversub)
        out[("interleaved", oversub)] = _ring_exchange_time(
            interleaved, oversub
        )
    return out


def test_fabric_placement(benchmark, times):
    results = run_once(benchmark, lambda: times)
    print_header(
        "Ablation: ring placement on 2-rack fabric (8 nodes, 8 MB blocks)"
    )
    print_row("oversub", "aligned (s)", "interleaved (s)", "penalty")
    for oversub in (1.0, 4.0, 8.0):
        a = results[("aligned", oversub)]
        b = results[("interleaved", oversub)]
        print_row(f"{oversub:g}:1", f"{a:.3f}", f"{b:.3f}", f"{b / a:.2f}x")


def test_no_penalty_without_oversubscription(times):
    a = times[("aligned", 1.0)]
    b = times[("interleaved", 1.0)]
    assert b == pytest.approx(a, rel=0.25)


def test_interleaving_penalized_by_oversubscription(times):
    for oversub in (4.0, 8.0):
        assert times[("interleaved", oversub)] > times[("aligned", oversub)] * 1.5


def test_aligned_ring_mostly_immune(times):
    # The aligned ring crosses the core on only 2 of 8 hops, so even
    # 8:1 oversubscription costs it far less than the interleaved ring.
    assert times[("aligned", 8.0)] < times[("interleaved", 8.0)] / 2
