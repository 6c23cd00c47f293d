"""Wall-clock benchmark harness: ``repro bench``.

Runs a fixed suite — codec encode/decode throughput, packet-vs-flow
exchange wall-clock at several scales, and strategy smoke timings — and
writes a schema-versioned JSON artifact (``BENCH_9.json`` at the repo
root by default) so the performance trajectory is tracked PR over PR.
A comparator reports per-entry deltas against the most recent prior
``BENCH_*.json`` found next to the output file.

This module measures *host* wall-clock by design and is therefore the
R8 lint rule's second exempt module (alongside ``repro.obs.export``);
every simulated-time result it records still comes from the
deterministic event kernel.
"""

from __future__ import annotations

import re
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Artifact identity; bump ``BENCH_VERSION`` on schema changes.
BENCH_SCHEMA = "repro.bench"
BENCH_VERSION = 1
#: Stacked-PR sequence number, also the default artifact suffix.
BENCH_SEQUENCE = 10
DEFAULT_OUTPUT = f"BENCH_{BENCH_SEQUENCE}.json"

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


def _timed(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _entry(name: str, wall_s: float, **meta: Any) -> Dict[str, Any]:
    return {"name": name, "wall_s": wall_s, "meta": meta}


def _codec_entries(quick: bool) -> List[Dict[str, Any]]:
    """Codec + container kernel throughput on a shell-model sample."""
    from repro.core import ErrorBound, compress, decompress

    n = 1 << 17 if quick else 1 << 21
    rng = np.random.default_rng(0)
    values = (rng.standard_normal(n) * 0.004).astype(np.float32)
    bound = ErrorBound(10)
    compressed = compress(values, bound)
    data = compressed.to_bytes()
    mb = values.nbytes / 1e6

    entries = []
    for name, fn in (
        ("codec.compress", lambda: compress(values, bound)),
        ("codec.decompress", lambda: decompress(compressed)),
        ("container.to_bytes", compressed.to_bytes),
        (
            "container.from_bytes",
            lambda: type(compressed).from_bytes(data, n, bound),
        ),
    ):
        wall = _timed(fn)
        entries.append(
            _entry(name, wall, num_values=n, mbytes_per_s=mb / wall)
        )
    return entries


def _exchange_entries(quick: bool) -> List[Dict[str, Any]]:
    """Packet-vs-flow exchange wall-clock at several scales."""
    from repro.core import inceptionn_profile
    from repro.perfmodel import simulate_ring_exchange, simulate_wa_exchange

    nbytes = 2_000_000
    stream = inceptionn_profile()
    packet_scales = (4,) if quick else (4, 8)
    flow_scales = (4, 64, 256) if quick else (4, 64, 1024)
    entries = []
    for algo, simulate in (
        ("ring", simulate_ring_exchange),
        ("wa", simulate_wa_exchange),
    ):
        for fidelity, scales in (
            ("packet", packet_scales),
            ("flow", flow_scales),
        ):
            for workers in scales:
                result: Dict[str, float] = {}

                def run() -> None:
                    r = simulate(
                        workers,
                        nbytes,
                        stream=stream,
                        fidelity=fidelity,
                    )
                    result["total_s"] = r.total_s

                wall = _timed(run, repeats=1 if fidelity == "packet" else 2)
                entries.append(
                    _entry(
                        f"exchange.{algo}.{fidelity}.w{workers}",
                        wall,
                        workers=workers,
                        nbytes=nbytes,
                        simulated_s=result["total_s"],
                    )
                )
    return entries


def _contention_entries(quick: bool) -> List[Dict[str, Any]]:
    """Fig-15-style contention study on a shared k=4 fat-tree.

    Six foreground workers span two pods (so the ring shares pod-1
    edge/agg uplinks with the tenants); two background tenants — a
    training job and an inference service — compete for those links.
    Three conditions: dedicated fabric, FIFO sharing, and strict
    per-ToS priority queues protecting the exchange.  Small trains
    (128 packets) give the priority scheduler preemption points;
    ``simulated_s`` is the number the study is about, wall time is
    tracked like every other entry.
    """
    from repro.network import parse_tenants
    from repro.perfmodel import simulate_ring_exchange

    nbytes = 1_000_000 if quick else 2_000_000
    tenants = parse_tenants("train:4,infer:4")
    conditions = (
        ("idle", (), False),
        ("fifo", tenants, False),
        ("priority", tenants, True),
    )
    entries = []
    for label, active, prioritize in conditions:
        result: Dict[str, Any] = {}

        def run() -> None:
            r = simulate_ring_exchange(
                6,
                nbytes,
                topology="fat-tree:k=4",
                tenants=active,
                prioritize=prioritize,
                tenant_seed=3,
                train_packets=128,
            )
            result["simulated_s"] = r.total_s
            result["background_messages"] = r.background_messages

        wall = _timed(run, repeats=1)
        entries.append(
            _entry(
                f"contention.fat-tree.{label}",
                wall,
                workers=6,
                nbytes=nbytes,
                tenants=len(active),
                prioritize=prioritize,
                simulated_s=result["simulated_s"],
                background_messages=result["background_messages"],
            )
        )
    return entries


def _aggregation_entries(quick: bool) -> List[Dict[str, Any]]:
    """Endpoint-vs-switch aggregation sites on a k=4 fat-tree.

    The same worker-aggregator exchange runs once per site with the
    lossless homomorphic stream; ``link_payload_nbytes`` is the metric
    the study is about (in-network partial sums shed fan-in bytes from
    the fabric's links), with engine cycles and reduction counts along
    for the ride.
    """
    from repro.core import profile_for
    from repro.perfmodel import simulate_wa_exchange

    nbytes = 1_000_000 if quick else 2_000_000
    stream = profile_for("lossless_hc")
    entries = []
    for site in ("endpoint", "switch"):
        result: Dict[str, Any] = {}

        def run() -> None:
            r = simulate_wa_exchange(
                4,
                nbytes,
                stream=stream,
                topology="fat-tree:k=4",
                agg_site=site,
            )
            result["simulated_s"] = r.total_s
            result["link_payload_nbytes"] = r.link_payload_nbytes
            result["agg_engine_cycles"] = r.agg_engine_cycles
            result["switch_reductions"] = r.switch_reductions

        wall = _timed(run, repeats=1)
        entries.append(
            _entry(
                f"aggregation.{site}.fat-tree.w4",
                wall,
                workers=4,
                nbytes=nbytes,
                agg_site=site,
                simulated_s=result["simulated_s"],
                link_payload_nbytes=result["link_payload_nbytes"],
                agg_engine_cycles=result["agg_engine_cycles"],
                switch_reductions=result["switch_reductions"],
            )
        )
    return entries


def _strategy_entries(quick: bool) -> List[Dict[str, Any]]:
    """End-to-end strategy smoke timings on the tiny HDC model."""
    from repro.distributed import get_strategy, run_strategy
    from repro.dnn import SGD, LRSchedule, build_hdc, hdc_dataset
    from repro.transport import ClusterConfig

    iterations = 1 if quick else 3
    dataset = hdc_dataset(train_size=120, test_size=30, seed=0)
    entries = []
    for name in ("ring", "wa"):
        strategy = get_strategy(name)
        num_nodes = 2 + strategy.extra_nodes(2, {})
        final: Dict[str, float] = {}

        def run() -> None:
            result = run_strategy(
                strategy,
                build_net=lambda s: build_hdc(seed=s),
                make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
                dataset=dataset,
                num_workers=2,
                iterations=iterations,
                batch_size=10,
                cluster=ClusterConfig(num_nodes=num_nodes),
                seed=0,
            )
            final["virtual_time_s"] = result.virtual_time_s

        wall = _timed(run, repeats=1)
        entries.append(
            _entry(
                f"strategy.{name}.smoke",
                wall,
                iterations=iterations,
                simulated_s=final["virtual_time_s"],
            )
        )
    return entries


def run_bench(quick: bool = False) -> Dict[str, Any]:
    """Run the fixed suite and return the schema-versioned document."""
    results: List[Dict[str, Any]] = []
    results.extend(_codec_entries(quick))
    results.extend(_exchange_entries(quick))
    results.extend(_contention_entries(quick))
    results.extend(_aggregation_entries(quick))
    results.extend(_strategy_entries(quick))
    return {
        "schema": BENCH_SCHEMA,
        "version": BENCH_VERSION,
        "sequence": BENCH_SEQUENCE,
        "quick": quick,
        "results": results,
    }


def validate_bench(doc: Any) -> None:
    """Raise :class:`ValueError` unless ``doc`` is a valid bench artifact."""
    if not isinstance(doc, dict):
        raise ValueError("bench document must be a JSON object")
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"schema must be {BENCH_SCHEMA!r}")
    if doc.get("version") != BENCH_VERSION:
        raise ValueError(f"version must be {BENCH_VERSION}")
    if not isinstance(doc.get("sequence"), int) or doc["sequence"] < 0:
        raise ValueError("sequence must be a non-negative integer")
    if not isinstance(doc.get("quick"), bool):
        raise ValueError("quick must be a boolean")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        raise ValueError("results must be a non-empty list")
    seen = set()
    for i, entry in enumerate(results):
        if not isinstance(entry, dict):
            raise ValueError(f"results[{i}] must be an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"results[{i}].name must be a non-empty string")
        if name in seen:
            raise ValueError(f"duplicate result name {name!r}")
        seen.add(name)
        wall = entry.get("wall_s")
        if not isinstance(wall, (int, float)) or not wall >= 0.0:
            raise ValueError(f"results[{i}].wall_s must be >= 0")
        if not isinstance(entry.get("meta"), dict):
            raise ValueError(f"results[{i}].meta must be an object")


def find_prior(output: Path) -> Optional[Path]:
    """Most recent prior ``BENCH_*.json`` next to ``output``.

    "Prior" means a strictly smaller numeric suffix than the output's
    (or than the current sequence number when the output name doesn't
    follow the convention); the largest such suffix wins.
    """
    match = _BENCH_NAME.match(output.name)
    current = int(match.group(1)) if match else BENCH_SEQUENCE
    best: Optional[Tuple[int, Path]] = None
    for candidate in output.parent.glob("BENCH_*.json"):
        m = _BENCH_NAME.match(candidate.name)
        if m is None:
            continue
        seq = int(m.group(1))
        if seq < current and (best is None or seq > best[0]):
            best = (seq, candidate)
    return best[1] if best else None


def compare_bench(
    current: Dict[str, Any], prior: Dict[str, Any]
) -> List[Tuple[str, float, float]]:
    """Per-entry ``(name, prior_wall_s, current_wall_s)`` for shared names."""
    prior_walls = {
        e["name"]: float(e["wall_s"]) for e in prior.get("results", [])
    }
    out = []
    for entry in current["results"]:
        name = entry["name"]
        if name in prior_walls:
            out.append((name, prior_walls[name], float(entry["wall_s"])))
    return out


def render_comparison(
    rows: List[Tuple[str, float, float]], prior_name: str
) -> str:
    """Human-readable delta table against ``prior_name``."""
    if not rows:
        return f"no overlapping entries with {prior_name}"
    lines = [f"deltas vs {prior_name} (negative = faster now):"]
    for name, before, now in rows:
        delta = (now - before) / before * 100.0 if before > 0 else float("nan")
        lines.append(
            f"  {name:<32} {before * 1e3:10.2f} ms -> {now * 1e3:10.2f} ms "
            f"({delta:+7.1f}%)"
        )
    return "\n".join(lines)
