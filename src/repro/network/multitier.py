"""Multi-tier Clos fabrics: fat-tree and leaf-spine with ECMP routing.

Production training never has the network to itself (ROADMAP's first
open item); this module generalizes the paper's single switched star
into the datacenter fabrics the INCEPTIONN-vs-baseline comparisons must
survive: a k-ary fat-tree (Al-Fares et al., SIGCOMM 2008) and a
two-level leaf-spine, both built from per-egress-port
:class:`~repro.network.priority.PriorityLink` queues.

Invariants this module maintains:

* **Shortest-path routing from precomputed tables.**  Construction runs
  one reverse BFS per destination host; ``next_hops[node][host]`` holds
  *every* neighbor on a shortest path, sorted by node id, so routing
  state is deterministic and insertion-order free.
* **Deterministic per-flow ECMP.**  Among equal-cost next hops the pick
  is ``flow_hash(src, dst, tos, hop) % fanout``
  (:func:`repro.network.events.flow_hash` — splitmix64-based, so no
  Python ``hash()`` and no ``PYTHONHASHSEED`` dependence).  Every train
  of a flow takes the same path (no intra-flow reordering), replays are
  bit-identical, and path choice never depends on event order — the
  property ``repro sanitize`` verifies under perturbed tie-breaking.
* **FIFO delivery per flow.**  Routes are fixed per ``(src, dst, tos)``
  and every port serves FIFO within a priority class, so a flow never
  overtakes itself in the fabric.
* **Simulated-time discipline.**  Hop timing comes from link
  bandwidth/latency and ``forwarding_delay_s`` between hops; no
  wall-clock reads anywhere.

:func:`build_topology` is the one string-spec factory the CLI and
:class:`~repro.transport.endpoint.ClusterConfig` share
(``"fat-tree:k=4"``, ``"leaf-spine:spines=2,leaves=4,hosts=2"``,
``"two-tier:racks=2,hosts=2"``, ``"star"``, ``"ring"``).  A two-tier
oversubscribed ToR + core fabric (paper Sec. VII-C) is the one-spine
:class:`LeafSpine`: every host pair has exactly one route, and the
leaf<->spine ports carry ``oversub`` times less than the hosts below.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from .events import Simulation, flow_hash
from .link import Link
from .packet import TOS_DEFAULT
from .priority import PriorityLink
from .topology import (
    DEFAULT_BANDWIDTH_BPS,
    DEFAULT_LINK_LATENCY_S,
    DEFAULT_SWITCH_DELAY_S,
    DirectRing,
    Route,
    SwitchedStar,
    Topology,
)

if TYPE_CHECKING:
    from repro.hardware.aggregation_engine import AggregationEngine


class MultiTierFabric(Topology):
    """Base for graph-shaped fabrics routed via per-destination tables.

    Subclasses add edges with :meth:`_add_duplex` during construction and
    finish with :meth:`_build_routes`.  Hosts are the integer node ids of
    the :class:`Topology` contract, rendered ``"h<i>"`` in the graph;
    switches use subclass-chosen string ids.
    """

    def __init__(
        self, sim: Simulation, num_nodes: int, switch_delay_s: float
    ) -> None:
        super().__init__(sim, num_nodes)
        self.switch_delay_s = switch_delay_s
        #: Directed edge (u, v) -> the egress link carrying u's traffic to v.
        self.links: Dict[Tuple[str, str], Link] = {}
        self._adjacency: Dict[str, List[str]] = {}
        #: node -> destination host -> sorted equal-cost next hops.
        self._next_hops: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        #: Fabric vertex -> hosted in-network aggregation engine
        #: (see :meth:`aggregation_engine`).
        self.aggregation_engines: Dict[str, "AggregationEngine"] = {}

    @staticmethod
    def host_id(node: int) -> str:
        """Graph id of integer host ``node``."""
        return f"h{node}"

    def _add_duplex(
        self, u: str, v: str, bandwidth_bps: float, latency_s: float
    ) -> None:
        """Wire ``u`` and ``v`` with one priority-queued link per direction."""
        for a, b in ((u, v), (v, u)):
            if (a, b) in self.links:
                raise ValueError(f"duplicate edge {a}->{b}")
            self.links[(a, b)] = PriorityLink(
                self.sim, bandwidth_bps, latency_s, name=f"{a}->{b}"
            )
        self._adjacency.setdefault(u, []).append(v)
        self._adjacency.setdefault(v, []).append(u)

    def _build_routes(self) -> None:
        """One reverse BFS per destination host fills the next-hop tables."""
        for node in range(self.num_nodes):
            target = self.host_id(node)
            if target not in self._adjacency:
                raise ValueError(f"host {target} is not wired to any switch")
            distance: Dict[str, int] = {target: 0}
            frontier = deque([target])
            while frontier:
                current = frontier.popleft()
                for neighbor in self._adjacency[current]:
                    if neighbor not in distance:
                        distance[neighbor] = distance[current] + 1
                        frontier.append(neighbor)
            for vertex, dist in distance.items():
                if vertex == target:
                    continue
                nexts = tuple(
                    sorted(
                        neighbor
                        for neighbor in self._adjacency[vertex]
                        if distance.get(neighbor, -1) == dist - 1
                    )
                )
                self._next_hops.setdefault(vertex, {})[target] = nexts

    def route(self, src: int, dst: int, tos: int = TOS_DEFAULT) -> Route:
        """Hop-by-hop shortest path, ECMP-hashed per flow (see module doc)."""
        self._check_endpoints(src, dst)
        target = self.host_id(dst)
        current = self.host_id(src)
        links: List[Link] = []
        hop = 0
        while current != target:
            choices = self._next_hops[current][target]
            pick = choices[flow_hash(src, dst, tos, hop) % len(choices)]
            links.append(self.links[(current, pick)])
            current = pick
            hop += 1
        return Route(
            links=tuple(links), forwarding_delay_s=self.switch_delay_s
        )

    def tree_path(self, src: int, dst: int) -> Tuple[str, ...]:
        """Deterministic reduction-tree walk from ``src`` to ``dst``.

        Unlike :meth:`route`, which hashes per flow — so paths from
        different sources diverge again downstream of a merge point —
        this walk always takes the *first* sorted next hop.  Every
        source converging on ``dst`` therefore shares path suffixes,
        which is exactly the spanning tree an in-network reduction
        wants (SwitchML-style).  Returns the vertex ids walked,
        endpoints included.
        """
        self._check_endpoints(src, dst)
        target = self.host_id(dst)
        current = self.host_id(src)
        path = [current]
        while current != target:
            current = self._next_hops[current][target][0]
            path.append(current)
        return tuple(path)

    def segment_route(self, vertices: Sequence[str]) -> Route:
        """The :class:`Route` along consecutive fabric ``vertices``."""
        if len(vertices) < 2:
            raise ValueError("a route segment needs at least two vertices")
        links: List[Link] = []
        for a, b in zip(vertices, vertices[1:]):
            link = self.links.get((a, b))
            if link is None:
                raise ValueError(f"no fabric edge {a}->{b}")
            links.append(link)
        return Route(
            links=tuple(links), forwarding_delay_s=self.switch_delay_s
        )

    def aggregation_engine(
        self, vertex: str, factory: Callable[[], "AggregationEngine"]
    ) -> "AggregationEngine":
        """The aggregation engine hosted at ``vertex`` (get-or-create).

        Switch vertices host the in-network reduction engines; the
        aggregating endpoint's host vertex may host one too (its
        NIC-side adder).  Created lazily via ``factory`` so fabrics pay
        nothing until a switch-site gather runs.
        """
        if vertex not in self._adjacency:
            raise ValueError(f"unknown fabric vertex {vertex!r}")
        engine = self.aggregation_engines.get(vertex)
        if engine is None:
            engine = factory()
            self.aggregation_engines[vertex] = engine
        return engine

    def ecmp_path_count(self, src: int, dst: int) -> int:
        """Number of distinct shortest paths between two hosts."""
        self._check_endpoints(src, dst)
        target = self.host_id(dst)
        memo: Dict[str, int] = {target: 1}

        def count(vertex: str) -> int:
            if vertex not in memo:
                memo[vertex] = sum(
                    count(nxt) for nxt in self._next_hops[vertex][target]
                )
            return memo[vertex]

        return count(self.host_id(src))

    def path_length(self, src: int, dst: int) -> int:
        """Link count of the shortest path between two hosts."""
        return len(self.route(src, dst).links)

    def all_links(self) -> List[Link]:
        """Every port link, in deterministic (sorted edge id) order."""
        return [self.links[edge] for edge in sorted(self.links)]


class FatTree(MultiTierFabric):
    """A k-ary fat-tree: k pods of k/2 edge + k/2 aggregation switches.

    ``(k/2)^2`` core switches give full bisection bandwidth and
    ``k^3/4`` host ports.  Inter-pod host pairs see ``(k/2)^2``
    equal-cost paths; intra-pod pairs under different edge switches see
    ``k/2``.  All links run at ``bandwidth_bps`` — the fat-tree's
    defining property is that no tier is oversubscribed.
    """

    def __init__(
        self,
        sim: Simulation,
        k: int = 4,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        link_latency_s: float = DEFAULT_LINK_LATENCY_S,
        switch_delay_s: float = DEFAULT_SWITCH_DELAY_S,
    ) -> None:
        if k < 2 or k % 2:
            raise ValueError(f"fat-tree arity k must be even and >= 2, got {k}")
        half = k // 2
        super().__init__(sim, k * half * half, switch_delay_s)
        self.k = k
        for pod in range(k):
            for edge in range(half):
                edge_id = f"p{pod}e{edge}"
                for agg in range(half):
                    self._add_duplex(
                        edge_id, f"p{pod}a{agg}", bandwidth_bps, link_latency_s
                    )
                for port in range(half):
                    host = self.host_id(pod * half * half + edge * half + port)
                    self._add_duplex(host, edge_id, bandwidth_bps, link_latency_s)
            for agg in range(half):
                agg_id = f"p{pod}a{agg}"
                for up in range(half):
                    self._add_duplex(
                        agg_id, f"c{agg * half + up}", bandwidth_bps, link_latency_s
                    )
        self._build_routes()

    def pod_of(self, node: int) -> int:
        """Pod index of host ``node``."""
        half = self.k // 2
        return node // (half * half)


class LeafSpine(MultiTierFabric):
    """A two-level leaf-spine: every leaf connects to every spine.

    Hosts under different leaves see ``num_spines`` equal-cost paths.
    ``uplink_bandwidth_bps`` (default: host rate) sets the leaf<->spine
    port speed; choosing it below ``bandwidth_bps * hosts_per_leaf /
    num_spines`` oversubscribes the uplink tier.
    """

    def __init__(
        self,
        sim: Simulation,
        num_spines: int = 2,
        num_leaves: int = 2,
        hosts_per_leaf: int = 2,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        uplink_bandwidth_bps: Optional[float] = None,
        link_latency_s: float = DEFAULT_LINK_LATENCY_S,
        switch_delay_s: float = DEFAULT_SWITCH_DELAY_S,
    ) -> None:
        if num_spines < 1 or num_leaves < 1 or hosts_per_leaf < 1:
            raise ValueError("leaf-spine needs >=1 spine, leaf and host/leaf")
        super().__init__(sim, num_leaves * hosts_per_leaf, switch_delay_s)
        self.num_spines = num_spines
        self.num_leaves = num_leaves
        self.hosts_per_leaf = hosts_per_leaf
        uplink = (
            uplink_bandwidth_bps
            if uplink_bandwidth_bps is not None
            else bandwidth_bps
        )
        for leaf in range(num_leaves):
            leaf_id = f"l{leaf}"
            for port in range(hosts_per_leaf):
                host = self.host_id(leaf * hosts_per_leaf + port)
                self._add_duplex(host, leaf_id, bandwidth_bps, link_latency_s)
            for spine in range(num_spines):
                self._add_duplex(leaf_id, f"s{spine}", uplink, link_latency_s)
        self._build_routes()

    def leaf_of(self, node: int) -> int:
        """Leaf index of host ``node``."""
        return node // self.hosts_per_leaf


def rack_aligned_ring_order(fabric: LeafSpine) -> List[int]:
    """Node order that keeps ring neighbours rack-local where possible.

    Consecutive ring positions under one leaf (rack) use only host
    links; only one hop per rack boundary crosses the spine — the
    natural placement for Algorithm 1 on an oversubscribed fabric.
    """
    return list(range(fabric.num_nodes))


def rack_interleaved_ring_order(fabric: LeafSpine) -> List[int]:
    """Adversarial order: every ring hop crosses racks (worst case)."""
    return [
        leaf * fabric.hosts_per_leaf + offset
        for offset in range(fabric.hosts_per_leaf)
        for leaf in range(fabric.num_leaves)
    ]


def parse_topology_spec(spec: str) -> Tuple[str, Dict[str, float]]:
    """Split ``"kind:key=value,..."`` into ``(kind, params)``."""
    kind, _, rest = spec.strip().partition(":")
    kind = kind.strip().lower()
    if not kind:
        raise ValueError(f"empty topology spec {spec!r}")
    params: Dict[str, float] = {}
    if rest:
        for part in rest.split(","):
            name, sep, value = part.partition("=")
            name = name.strip()
            if not sep or not name:
                raise ValueError(
                    f"topology parameter {part!r} is not key=value (in {spec!r})"
                )
            try:
                params[name] = float(value)
            except ValueError:
                raise ValueError(
                    f"topology parameter {name!r} needs a number, got {value!r}"
                ) from None
    return kind, params


def build_topology(
    spec: Optional[str],
    sim: Simulation,
    num_nodes: int,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    link_latency_s: float = DEFAULT_LINK_LATENCY_S,
    switch_delay_s: float = DEFAULT_SWITCH_DELAY_S,
) -> Topology:
    """Build the fabric a spec string describes, sized for ``num_nodes``.

    ``None`` and ``"star"`` produce the paper's single switched star
    (the bit-exact degenerate single-tier case).  Multi-tier kinds build
    their full host complement — at least ``num_nodes`` ports, with any
    spare hosts available to background tenants:

    ========================  ==============================================
    ``star``                  one switch, ``num_nodes`` ports (the default)
    ``ring``                  direct successor wiring (ablation)
    ``fat-tree:k=4``          k-ary fat-tree, ``k^3/4`` hosts
    ``leaf-spine:spines=2,``  ``leaves x hosts`` ports, ``spines`` ECMP
    ``leaves=2,hosts=2``      paths between leaves
    ``two-tier:racks=2,``     one-spine leaf-spine whose uplinks run at
    ``hosts=2,oversub=4``     ``bandwidth * hosts / oversub`` (ToR + core)
    ========================  ==============================================
    """
    kind, params = parse_topology_spec(spec if spec is not None else "star")

    def take(name: str, default: float) -> float:
        return params.pop(name, default)

    topology: Topology
    if kind == "star":
        topology = SwitchedStar(
            sim,
            num_nodes,
            bandwidth_bps=bandwidth_bps,
            link_latency_s=link_latency_s,
            switch_delay_s=switch_delay_s,
        )
    elif kind == "ring":
        topology = DirectRing(
            sim,
            num_nodes,
            bandwidth_bps=bandwidth_bps,
            link_latency_s=link_latency_s,
        )
    elif kind == "fat-tree":
        topology = FatTree(
            sim,
            k=int(take("k", 4)),
            bandwidth_bps=bandwidth_bps,
            link_latency_s=link_latency_s,
            switch_delay_s=switch_delay_s,
        )
    elif kind == "leaf-spine":
        hosts_per_leaf = int(take("hosts", 2))
        num_leaves = int(take("leaves", max(2, -(-num_nodes // hosts_per_leaf))))
        topology = LeafSpine(
            sim,
            num_spines=int(take("spines", 2)),
            num_leaves=num_leaves,
            hosts_per_leaf=hosts_per_leaf,
            bandwidth_bps=bandwidth_bps,
            link_latency_s=link_latency_s,
            switch_delay_s=switch_delay_s,
        )
    elif kind == "two-tier":
        hosts_per_rack = int(take("hosts", 2))
        num_racks = int(take("racks", max(2, -(-num_nodes // hosts_per_rack))))
        oversub = take("oversub", 4.0)
        if oversub < 1.0:
            raise ValueError("oversubscription factor must be >= 1")
        topology = LeafSpine(
            sim,
            num_spines=1,
            num_leaves=num_racks,
            hosts_per_leaf=hosts_per_rack,
            bandwidth_bps=bandwidth_bps,
            uplink_bandwidth_bps=bandwidth_bps * hosts_per_rack / oversub,
            link_latency_s=link_latency_s,
            switch_delay_s=switch_delay_s,
        )
    else:
        raise ValueError(
            f"unknown topology kind {kind!r} "
            "(star, ring, fat-tree, leaf-spine, two-tier)"
        )
    if params:
        unknown = ", ".join(sorted(params))
        raise ValueError(f"unknown {kind} topology parameters: {unknown}")
    if topology.num_nodes < num_nodes:
        raise ValueError(
            f"{kind} topology has {topology.num_nodes} host ports, "
            f"but the cluster needs {num_nodes}"
        )
    return topology
