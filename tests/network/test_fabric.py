"""Two-tier oversubscribed fabric tests (the one-spine ``two-tier:`` spec)."""

import pytest

from repro.network import (
    LeafSpine,
    Network,
    Simulation,
    build_topology,
    rack_aligned_ring_order,
    rack_interleaved_ring_order,
)


def _two_tier(sim, num_racks=2, nodes_per_rack=4, oversubscription=4.0):
    return build_topology(
        f"two-tier:racks={num_racks},hosts={nodes_per_rack},"
        f"oversub={oversubscription:g}",
        sim,
        num_racks * nodes_per_rack,
    )


def _fabric(num_racks=2, nodes_per_rack=4, oversubscription=4.0):
    sim = Simulation()
    fabric = _two_tier(sim, num_racks, nodes_per_rack, oversubscription)
    return sim, fabric, Network(sim, fabric)


def _deliver(sim, net, src, dst, nbytes=2**20):
    out = {}
    net.send(src, dst, nbytes).add_callback(lambda e: out.setdefault("t", sim.now))
    sim.run()
    return out["t"]


def test_rack_membership():
    _, fabric, _ = _fabric()
    assert isinstance(fabric, LeafSpine) and fabric.num_spines == 1
    assert fabric.leaf_of(0) == 0
    assert fabric.leaf_of(3) == 0
    assert fabric.leaf_of(4) == 1


def test_intra_rack_route_has_two_hops():
    _, fabric, _ = _fabric()
    assert len(fabric.route(0, 1).links) == 2


def test_cross_rack_route_has_four_hops():
    _, fabric, _ = _fabric()
    route = fabric.route(0, 5)
    assert len(route.links) == 4
    # The leaf<->spine hops run at edge rate * hosts / oversub.
    edge, up, down, last = (link.bandwidth_bps for link in route.links)
    assert edge == last == 10e9
    assert up == down == 10e9 * 4 / 4.0


def test_cross_rack_slower_than_intra_rack():
    sim1, _, net1 = _fabric()
    t_intra = _deliver(sim1, net1, 0, 1, nbytes=8 * 2**20)
    sim2, _, net2 = _fabric()
    t_cross = _deliver(sim2, net2, 0, 5, nbytes=8 * 2**20)
    assert t_cross > t_intra


def test_oversubscription_throttles_cross_rack_aggregate():
    # All four nodes of rack 0 send cross-rack simultaneously: the
    # shared uplink at edge/4 aggregate throttles them.
    def run(oversub):
        sim, fabric, net = _fabric(oversubscription=oversub)
        events = [
            net.send(src, 4 + src, 4 * 2**20) for src in range(4)
        ]
        out = {}
        sim.all_of(events).add_callback(lambda e: out.setdefault("t", sim.now))
        sim.run()
        return out["t"]

    assert run(4.0) > run(1.0) * 2


def test_ring_orders():
    _, fabric, _ = _fabric()
    aligned = rack_aligned_ring_order(fabric)
    interleaved = rack_interleaved_ring_order(fabric)
    assert sorted(aligned) == sorted(interleaved) == list(range(8))
    # Aligned: 1 cross-rack hop per rack boundary; interleaved: all hops
    # cross racks.
    def cross_hops(order):
        return sum(
            fabric.leaf_of(order[i]) != fabric.leaf_of(order[(i + 1) % 8])
            for i in range(8)
        )

    assert cross_hops(aligned) == 2
    assert cross_hops(interleaved) == 8


def test_aligned_ring_faster_than_interleaved():
    """Placement matters on oversubscribed fabrics: a rack-aligned ring
    puts one hop per direction on the core; interleaving puts them all."""

    def ring_time(order):
        sim = Simulation()
        net = Network(sim, _two_tier(sim))
        n = len(order)

        # One full rotation of 8 MB blocks around the ring.
        events = []
        for i in range(n):
            events.append(net.send(order[i], order[(i + 1) % n], 8 * 2**20))
        out = {}
        sim.all_of(events).add_callback(lambda e: out.setdefault("t", sim.now))
        sim.run()
        return out["t"]

    fabric0 = _two_tier(Simulation())
    aligned = ring_time(rack_aligned_ring_order(fabric0))
    interleaved = ring_time(rack_interleaved_ring_order(fabric0))
    assert aligned < interleaved


def test_validation():
    sim = Simulation()
    with pytest.raises(ValueError):
        build_topology("two-tier:racks=0,hosts=4", sim, 2)
    with pytest.raises(ValueError):
        build_topology("two-tier:racks=2,hosts=4,oversub=0.5", sim, 8)
