"""The benchmark's four workloads: inputs from a seed, one op, output checks.

Each workload's ``setup(seed)`` builds the inputs and returns a
:class:`Prepared` whose ``op()`` is one call into the program's public
entry points.  The entry points are looked up through their defining
modules at call time, so the traced run's boundary wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

#: An op's outputs that must be identical on every op of one run.
IDENTICAL = ("sim_time_s", "link_payload_bytes", "wire_ratio", "losses", "weights_sha256")
#: Flow fidelity must agree with packet fidelity this closely (relative).
FLOW_PARITY_REL = 1e-9


@dataclass
class Prepared:
    """One workload made ready to run: its inputs and its op."""

    inputs: Dict[str, Any]
    op: Callable[[], Dict[str, Any]]
    #: Once-per-run, untimed checks on a reference output; each returns
    #: failure messages.
    run_checks: Callable[[Dict[str, Any]], List[str]] = lambda out: []
    #: Informational figures printed beside the metrics.
    notes: Callable[[Dict[str, Any]], Dict[str, float]] = lambda out: {}


def check_op(reference: Dict[str, Any], out: Dict[str, Any]) -> List[str]:
    """Why one op's outputs are wrong, compared with the run's first op."""
    failures = [
        f"{key} {out.get(key)!r} != {reference.get(key)!r}"
        for key in IDENTICAL
        if out.get(key) != reference.get(key)
    ]
    if "final_loss" in out and not math.isfinite(out["final_loss"]):
        failures.append(f"final_loss {out['final_loss']!r} is not finite")
    return failures


def _exchange_outputs(result) -> Dict[str, Any]:
    return {
        "sim_time_s": result.total_s,
        "link_payload_bytes": result.link_payload_nbytes,
        "wire_ratio": result.wire_ratio,
        "background_messages": result.background_messages,
        "background_bytes": result.background_nbytes,
        "result": result,
    }


def _analytical_error(result) -> float:
    """Relative gap of a star exchange from the paper's α/β model.

    The model's ``n`` is the exchange's bytes over its achieved wire
    ratio; α is one link's latency, β the link's per-byte time and γ
    zero, as the exchanges run without a compute profile.
    """
    from repro.perfmodel import analytical
    from repro.transport.endpoint import ClusterConfig

    config = ClusterConfig(num_nodes=2)
    params = analytical.CostParameters(
        alpha_s=config.link_latency_s,
        beta_s_per_byte=8.0 / config.bandwidth_bps,
        gamma_s_per_byte=0.0,
    )
    model = (
        analytical.ring_exchange_time
        if result.algorithm == "ring"
        else analytical.wa_exchange_time
    )
    reference = model(result.num_workers, result.nbytes / result.wire_ratio, params)
    return (result.total_s - reference) / reference


def train_ring(seed: int) -> Prepared:
    from repro.core.registry import profile_for
    from repro.distributed import strategy
    from repro.dnn.data import hdc_dataset
    from repro.dnn.models import build_hdc
    from repro.dnn.optim import SGD, LRSchedule

    inputs = {
        "strategy": "ring",
        "model": "hdc",
        "workers": 4,
        "iterations": 3,
        "batch_size": 16,
        "optimizer": "SGD(LRSchedule(0.02), momentum=0.9)",
        "stream": "inceptionn",
        "train_size": 400,
        "test_size": 100,
    }
    dataset = hdc_dataset(train_size=400, test_size=100, seed=seed)
    build_hdc(seed)
    stream = profile_for("inceptionn")

    def op() -> Dict[str, Any]:
        run = strategy.run_strategy(
            "ring",
            build_hdc,
            lambda: SGD(LRSchedule(0.02), momentum=0.9),
            dataset,
            num_workers=4,
            iterations=3,
            batch_size=16,
            stream=stream,
            seed=seed,
        )
        return {
            "sim_time_s": run.virtual_time_s / run.iterations,
            "link_payload_bytes": run.transfers.link_payload_nbytes,
            "wire_ratio": run.transfers.wire_ratio,
            "final_loss": run.losses[-1],
            "losses": tuple(run.losses),
            "weights_sha256": hashlib.sha256(run.final_weights.tobytes()).hexdigest(),
        }

    return Prepared(inputs, op)


def _alexnet_stream(seed: int):
    """AlexNet's size and the INCEPTIONN stream; the ratio sample takes the seed."""
    from repro.core.registry import inceptionn_profile
    from repro.dnn.models import PAPER_MODELS
    from repro.perfmodel import exchange

    stream = inceptionn_profile()

    def ratio() -> float:
        return exchange.measure_profile_ratio(stream, seed=seed)

    return PAPER_MODELS["AlexNet"].nbytes, stream, ratio


def exchange_star(seed: int) -> Prepared:
    from repro.perfmodel import exchange

    nbytes, stream, ratio = _alexnet_stream(seed)
    inputs = {
        "exchange": "ring",
        "model": "AlexNet",
        "workers": 8,
        "stream": "inceptionn",
        "topology": "star",
        "train_packets": 128,
        "fidelity": "packet",
    }

    def ring(fidelity: str):
        return exchange.simulate_ring_exchange(
            8,
            nbytes,
            stream=stream,
            gradient_ratio=ratio(),
            train_packets=128,
            fidelity=fidelity,
        )

    def run_checks(out: Dict[str, Any]) -> List[str]:
        packet, flow = out["result"].total_s, ring("flow").total_s
        if abs(flow - packet) <= FLOW_PARITY_REL * packet:
            return []
        return [f"flow fidelity {flow!r} departs from packet {packet!r}"]

    def notes(out: Dict[str, Any]) -> Dict[str, float]:
        return {"sim_vs_analytical_rel": _analytical_error(out["result"])}

    return Prepared(inputs, lambda: _exchange_outputs(ring("packet")), run_checks, notes)


def fabric_contended(seed: int) -> Prepared:
    from repro.core.registry import profile_for
    from repro.network.tenants import parse_tenants
    from repro.perfmodel import exchange

    inputs = {
        "exchange": "wa",
        "workers": 6,
        "nbytes": 32_000_000,
        "stream": "lossless_hc",
        "topology": "fat-tree:k=4",
        "agg_site": "switch",
        "tenants": "train:4,infer:4",
        "prioritize": True,
        "train_packets": 128,
    }
    stream = profile_for("lossless_hc")
    tenants = parse_tenants("train:4,infer:4")

    def wa(agg_site: str):
        return exchange.simulate_wa_exchange(
            6,
            32_000_000,
            stream=stream,
            topology="fat-tree:k=4",
            agg_site=agg_site,
            tenants=tenants,
            prioritize=True,
            tenant_seed=seed,
            train_packets=128,
        )

    def run_checks(out: Dict[str, Any]) -> List[str]:
        failures = []
        switch, endpoint = out["result"], wa("endpoint")
        if not switch.link_payload_nbytes < endpoint.link_payload_nbytes:
            failures.append(
                f"switch site carries {switch.link_payload_nbytes} link bytes, "
                f"not fewer than the endpoint site's {endpoint.link_payload_nbytes}"
            )
        if switch.background_messages <= 0:
            failures.append("no background tenant traffic")
        return failures

    return Prepared(inputs, lambda: _exchange_outputs(wa("switch")), run_checks)


def sweep_flow(seed: int) -> Prepared:
    from repro.perfmodel import exchange

    nbytes, stream, ratio = _alexnet_stream(seed)
    inputs = {
        "exchange": "ring+wa",
        "model": "AlexNet",
        "workers": 1024,
        "stream": "inceptionn",
        "topology": "star",
        "fidelity": "flow",
    }

    def op() -> Dict[str, Any]:
        kwargs = dict(stream=stream, fidelity="flow")
        ring = exchange.simulate_ring_exchange(1024, nbytes, gradient_ratio=ratio(), **kwargs)
        wa = exchange.simulate_wa_exchange(1024, nbytes, gradient_ratio=ratio(), **kwargs)
        return {
            "sim_time_s": ring.total_s + wa.total_s,
            "wire_ratio": (ring.sent_nbytes + wa.sent_nbytes)
            / (ring.wire_payload_nbytes + wa.wire_payload_nbytes),
            "ring": ring,
            "wa": wa,
        }

    def run_checks(out: Dict[str, Any]) -> List[str]:
        ring, wa = out["ring"].total_s, out["wa"].total_s
        return [] if ring < wa else [f"ring {ring!r} s is not below WA {wa!r} s"]

    def notes(out: Dict[str, Any]) -> Dict[str, float]:
        return {
            "ring_sim_vs_analytical_rel": _analytical_error(out["ring"]),
            "wa_sim_vs_analytical_rel": _analytical_error(out["wa"]),
        }

    return Prepared(inputs, op, run_checks, notes)


#: Workload name -> setup; why each exists is in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Callable[[int], Prepared]] = {
    "train-ring": train_ring,
    "exchange-star": exchange_star,
    "fabric-contended": fabric_contended,
    "sweep-flow": sweep_flow,
}
