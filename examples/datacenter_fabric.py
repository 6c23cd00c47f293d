"""Datacenter study: the ring on an oversubscribed two-tier fabric.

The paper's cluster hangs off one switch; production datacenters
oversubscribe rack uplinks (Sec. VII-C).  This example sweeps the
oversubscription factor and compares ring placements — showing that
INCEPTIONN's algorithm keeps its advantage as long as the ring is laid
out rack-aligned.

Run:  python examples/datacenter_fabric.py
"""

from repro.network import (
    Network,
    Simulation,
    build_topology,
    rack_aligned_ring_order,
    rack_interleaved_ring_order,
)

MB = 2**20
BLOCK = 8 * MB


def two_tier(sim, oversubscription=4.0):
    """2 racks of 4 hosts whose uplinks carry 1/oversub of the edge."""
    return build_topology(
        f"two-tier:racks=2,hosts=4,oversub={oversubscription:g}", sim, 8
    )


def ring_time(order, oversubscription):
    sim = Simulation()
    fabric = two_tier(sim, oversubscription)
    net = Network(sim, fabric, train_packets=880)
    n = len(order)

    def node(idx):
        def proc():
            src = order[idx]
            nxt = order[(idx + 1) % n]
            for _ in range(2 * (n - 1)):
                yield net.send(src, nxt, BLOCK)

        return proc

    procs = [sim.process(node(i)()) for i in range(n)]
    out = []
    sim.all_of(procs).add_callback(lambda e: out.append(sim.now))
    sim.run()
    return out[0]


def wa_time(oversubscription):
    """Worker-aggregator with the aggregator in rack 0, workers spread."""
    sim = Simulation()
    fabric = two_tier(sim, oversubscription)
    net = Network(sim, fabric, train_packets=880)
    aggregator, workers = 0, [1, 2, 3, 4, 5, 6, 7]
    nbytes = 8 * BLOCK
    done = []
    gather = [net.send(w, aggregator, nbytes) for w in workers]

    def then_scatter(_):
        scatter = [net.send(aggregator, w, nbytes) for w in workers]
        sim.all_of(scatter).add_callback(lambda e: done.append(sim.now))

    sim.all_of(gather).add_callback(then_scatter)
    sim.run()
    return done[0]


def main() -> None:
    probe = two_tier(Simulation())
    aligned = rack_aligned_ring_order(probe)
    interleaved = rack_interleaved_ring_order(probe)

    print("8 nodes in 2 racks, 64 MB model, gradient exchange time (s)\n")
    print(f"{'oversub':>8}{'WA':>10}{'ring aligned':>14}{'ring interleaved':>18}")
    for oversub in (1.0, 2.0, 4.0, 8.0):
        print(
            f"{oversub:>7g}:1"
            f"{wa_time(oversub):>10.3f}"
            f"{ring_time(aligned, oversub):>14.3f}"
            f"{ring_time(interleaved, oversub):>18.3f}"
        )

    print(
        "\nrack-aligned rings cross the oversubscribed core on only one\n"
        "hop per direction, so the INCEPTIONN exchange keeps its edge in\n"
        "a datacenter; naive placement squanders it."
    )


if __name__ == "__main__":
    main()
