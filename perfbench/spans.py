"""Layer-boundary spans recorded from outside the program.

Each boundary is a public callable of one ``repro`` layer, patched where
its caller looks it up (a class attribute, or the module global a caller
imported by name) for the duration of one traced op and restored after.
A wrapped call records a span — name, start, end, parent span, op id —
and, where the boundary carries work counts in its arguments or result,
adds them to the op's counters.  Generator boundaries (simulation
processes) record one span per resumption, so their spans cover only
the host time they actually run.

Spans stay in memory until the run ends; :func:`layer_metrics` turns
them into per-layer self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

Counts = Callable[["SpanRecorder", tuple, dict, Any], None]


class SpanRecorder:
    """Spans and counters of the traced ops, held in columnar arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: List[int] = []
        self.op_id = -1
        self.counts: List[Counter] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float = 1) -> None:
        self.counts[self.op_id][key] += value

    def begin_op(self) -> int:
        """Open a new op: its id tags every span and count until the next."""
        self.op_id = len(self.counts)
        self.counts.append(Counter())
        return self.op_id

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int_),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int_),
            "op": np.frombuffer(self.op, dtype=np.int_),
        }

    def save(self, path: str) -> None:
        """Write every span (and the name table) as a compressed ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread and nest strictly, so a parent's children
    never overlap and the covered part is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - covered


# -- wrapping -----------------------------------------------------------------


def _wrap(fn: Callable, rec: SpanRecorder, name: str, counts: Optional[Counts]):
    name_id = rec.name_id(name)
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if counts is not None:
                counts(rec, args, kwargs, None)
            send, value = inner.send, None
            while True:
                idx = rec.enter(name_id)
                try:
                    yielded = send(value)
                except StopIteration as stop:
                    rec.exit(idx)
                    return stop.value
                except BaseException:
                    rec.exit(idx)
                    raise
                rec.exit(idx)
                try:
                    value, send = (yield yielded), inner.send
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # forwarded into the inner generator
                    value, send = exc, inner.throw

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.enter(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(idx)
        if counts is not None:
            counts(rec, args, kwargs, result)
        return result

    return wrapper


def _counter(key: str) -> Counts:
    return lambda rec, args, kwargs, result: rec.count(key)


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _codec_counts(rec, args, kwargs, result) -> None:
    rec.count("core.codec.calls")
    rec.count("core.codec.in_bytes", _arg(args, kwargs, 1, "values").nbytes)
    rec.count("core.codec.out_bytes", result.payload_nbytes)


def _endpoint_counts(rec, args, kwargs, result) -> None:
    msg = _arg(args, kwargs, 1, "msg")
    rec.count("transport.endpoint.sends")
    rec.count("transport.endpoint.sent_bytes", msg.nbytes)
    rec.count("transport.endpoint.wire_bytes", msg.wire_payload_nbytes)


def _nic_tx_counts(rec, args, kwargs, result) -> None:
    rec.count("hardware.nic.tx_packets", _arg(args, kwargs, 1, "packets"))
    rec.count("hardware.nic.engine_packets", _arg(args, kwargs, 2, "engine_packets"))


def _nic_rx_counts(rec, args, kwargs, result) -> None:
    rec.count("hardware.nic.engine_packets", _arg(args, kwargs, 2, "engine_packets"))


def _engine_counts(rec, args, kwargs, result) -> None:
    rec.count("hardware.agg_engine.cycles", result.cycles)


#: (module, attribute path, span name, counts) for every wrapped boundary.
#: A dotted attribute path is a method patched on the class that defines
#: it; a bare name is a module global, patched in the module of the
#: caller that imported it.
BOUNDARIES: Tuple[Tuple[str, str, str, Optional[Counts]], ...] = (
    ("repro.core.registry", "_inc_compress", "core.codec", None),
    ("repro.core.registry", "_inc_decompress", "core.codec", None),
    ("repro.dnn.network", "Sequential.forward", "dnn", _counter("dnn.calls")),
    ("repro.dnn.network", "Sequential.backward", "dnn", _counter("dnn.calls")),
    ("repro.dnn.optim", "SGD.step", "dnn", _counter("dnn.calls")),
    ("repro.dnn.optim", "SGD.step_with_vector", "dnn", _counter("dnn.calls")),
    ("repro.distributed.strategy", "run_strategy", "distributed.strategy", None),
    (
        "repro.transport.endpoint",
        "build_wire_message",
        "transport.wire",
        _counter("transport.wire.messages"),
    ),
    ("repro.transport.endpoint", "Endpoint.isend", "transport.endpoint", None),
    (
        "repro.transport.endpoint",
        "Endpoint.isend_message",
        "transport.endpoint",
        _endpoint_counts,
    ),
    ("repro.transport.endpoint", "Endpoint.recv", "transport.endpoint", None),
    ("repro.transport.aggregation", "SwitchGather.offer", "transport.aggregation", None),
    ("repro.transport.aggregation", "SwitchGather.collect", "transport.aggregation", None),
    (
        "repro.transport.aggregation",
        "combine_parts",
        "transport.aggregation",
        _counter("transport.aggregation.reductions"),
    ),
    (
        "repro.distributed.worker_aggregator",
        "aggregate_endpoint",
        "transport.aggregation",
        _counter("transport.aggregation.reductions"),
    ),
    ("repro.hardware.nic", "InceptionnNic.account_tx", "hardware.nic", _nic_tx_counts),
    ("repro.hardware.nic", "InceptionnNic.account_rx", "hardware.nic", _nic_rx_counts),
    (
        "repro.hardware.aggregation_engine",
        "AggregationEngine.reduce",
        "hardware.agg_engine",
        _engine_counts,
    ),
    ("repro.network.events", "Simulation.run", "network.events", None),
    (
        "repro.network.link",
        "Link.transmit",
        "network.link",
        _counter("network.link.transmits"),
    ),
    (
        "repro.network.link",
        "Link.transmit_cut_through",
        "network.link",
        _counter("network.link.transmits"),
    ),
    (
        "repro.network.priority",
        "PriorityLink.transmit",
        "network.priority",
        _counter("network.priority.transmits"),
    ),
    (
        "repro.network.priority",
        "PriorityLink.transmit_cut_through",
        "network.priority",
        _counter("network.priority.transmits"),
    ),
    ("repro.network.simulator", "Network.send", "network.simulator", _counter("network.simulator.sends")),
    ("repro.network.simulator", "Network.send_wire", "network.simulator", _counter("network.simulator.sends")),
    ("repro.network.simulator", "Network.send_route", "network.simulator", _counter("network.simulator.sends")),
    ("repro.transport.endpoint", "build_topology", "network.multitier", None),
    (
        "repro.network.multitier",
        "MultiTierFabric.route",
        "network.multitier",
        _counter("network.multitier.routes"),
    ),
    (
        "repro.network.multitier",
        "MultiTierFabric.segment_route",
        "network.multitier",
        _counter("network.multitier.routes"),
    ),
    ("repro.transport.aggregation", "build_reduction_plan", "network.multitier", None),
    ("repro.perfmodel.exchange", "simulate_ring_exchange", "perfmodel.exchange", None),
    ("repro.perfmodel.exchange", "simulate_wa_exchange", "perfmodel.exchange", None),
    (
        "repro.perfmodel.flowsim",
        "simulate_ring_exchange_flow",
        "perfmodel.flowsim",
        _counter("perfmodel.flowsim.calls"),
    ),
    (
        "repro.perfmodel.flowsim",
        "simulate_wa_exchange_flow",
        "perfmodel.flowsim",
        _counter("perfmodel.flowsim.calls"),
    ),
)


def _targets() -> Iterator[Tuple[object, str, str, Optional[Counts]]]:
    """(owner, attribute, span name, counts) for every boundary to patch."""
    for module_name, path, span, counts in BOUNDARIES:
        owner: object = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        if attr not in vars(owner):
            raise AttributeError(f"{module_name}.{path} is not defined there")
        yield owner, attr, f"{span}:{path}", counts
    # Every registered codec and strategy implements the boundary itself.
    from repro.core.registry import available_codecs, get_codec
    from repro.distributed.strategy import available_strategies, get_strategy

    for name in available_codecs():
        cls = type(get_codec(name))
        if "compress" in vars(cls):
            yield cls, "compress", f"core.codec:{cls.__name__}.compress", _codec_counts
    for name in available_strategies():
        cls = type(get_strategy(name))
        if "exchange" in vars(cls):
            yield cls, "exchange", f"distributed.exchange:{cls.__name__}.exchange", None


def _count_events(rec: SpanRecorder) -> Tuple[object, str, Any]:
    """A patch counting :class:`repro.network.events.Event` constructions.

    Events are too many and too cheap for a span each, so they are only
    counted.
    """
    from repro.network.events import Event

    original = Event.__init__

    @functools.wraps(original)
    def counting_init(self_, *args, **kwargs):
        rec.count("network.events.created")
        original(self_, *args, **kwargs)

    return Event, "__init__", counting_init


class Patches:
    """Installs every boundary wrapper on enter and restores on exit."""

    def __init__(self, rec: SpanRecorder) -> None:
        self._patches: List[Tuple[object, str, Any, Any]] = []
        for owner, attr, span, counts in _targets():
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original, _wrap(original, rec, span, counts)))
        owner, attr, wrapped = _count_events(rec)
        self._patches.append((owner, attr, vars(owner)[attr], wrapped))

    def __enter__(self) -> "Patches":
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


# -- per-layer metrics ----------------------------------------------------------

#: busy_s metric -> span-name prefixes whose self time it sums.
BUSY = {
    "core.codec.busy_s": ("core.codec",),
    "dnn.busy_s": ("dnn",),
    "distributed.strategy.busy_s": ("distributed.strategy",),
    "distributed.exchange.busy_s": ("distributed.exchange",),
    "transport.wire.busy_s": ("transport.wire",),
    "transport.endpoint.busy_s": ("transport.endpoint",),
    "transport.aggregation.busy_s": ("transport.aggregation",),
    "hardware.busy_s": ("hardware.nic", "hardware.agg_engine"),
    "network.events.busy_s": ("network.events",),
    "network.link.busy_s": ("network.link",),
    "network.priority.busy_s": ("network.priority",),
    "network.simulator.busy_s": ("network.simulator",),
    "network.multitier.busy_s": ("network.multitier",),
    "perfmodel.exchange.busy_s": ("perfmodel.exchange",),
    "perfmodel.flowsim.busy_s": ("perfmodel.flowsim",),
}

#: Counts reported per op, straight from the boundary counters.
COUNTS = (
    "core.codec.calls",
    "dnn.calls",
    "transport.wire.messages",
    "transport.endpoint.sends",
    "transport.endpoint.sent_bytes",
    "transport.endpoint.wire_bytes",
    "transport.aggregation.reductions",
    "hardware.nic.tx_packets",
    "hardware.nic.engine_packets",
    "hardware.agg_engine.cycles",
    "network.events.created",
    "network.link.transmits",
    "network.priority.transmits",
    "network.simulator.sends",
    "network.multitier.routes",
    "perfmodel.flowsim.calls",
)


def layer_metrics(rec: SpanRecorder, ops: Sequence[int], op_span: str) -> Dict[str, float]:
    """Per-op layer metrics over the given traced ops.

    ``busy_s`` is self time per op; ``share`` is busy time over the ops'
    own span time; counts are per-op means.
    """
    cols = rec.arrays()
    selected = np.isin(cols["op"], np.asarray(ops))
    own = self_times(cols["start"], cols["end"], cols["parent"])[selected]
    inclusive = (cols["end"] - cols["start"])[selected]
    layer_of_name = np.array([n.split(":", 1)[0] for n in rec.names], dtype=object)
    layer = layer_of_name[cols["name"][selected]]
    n_ops = len(ops)

    def busy(prefixes: Sequence[str]) -> float:
        return float(own[np.isin(layer, prefixes)].sum()) / n_ops

    op_time = float(inclusive[layer == op_span].sum()) / n_ops
    totals: Counter = Counter()
    for op in ops:
        totals.update(rec.counts[op])
    out = {key: totals[key] / n_ops for key in COUNTS}
    out.update({key: busy(prefixes) for key, prefixes in BUSY.items()})

    codec_s = out["core.codec.busy_s"]
    in_bytes = totals["core.codec.in_bytes"] / n_ops
    out_bytes = totals["core.codec.out_bytes"] / n_ops
    out["core.codec.share"] = codec_s / op_time
    out["core.codec.in_mb_per_s"] = in_bytes / 1e6 / codec_s if codec_s else 0.0
    out["core.codec.ratio"] = in_bytes / out_bytes if out_bytes else 0.0
    out["dnn.share"] = out["dnn.busy_s"] / op_time
    run_s = float(inclusive[layer == "network.events"].sum()) / n_ops
    out["network.events.per_s"] = out["network.events.created"] / run_s if run_s else 0.0
    return out
