"""Pin the ported strategy plugins against the pre-refactor behavior.

The pins below were recorded by ``tools/record_strategy_pins.py``
against the four hand-rolled spawn loops (``_spawn_ring_processes``,
``_spawn_wa_processes``, the hierarchy driver, and the async-PS server
loop) immediately before they were ported to the
:class:`~repro.distributed.strategy.GradientStrategy` registry.  The
registry plugins must reproduce them exactly:

* final weights — sha256 of the parameter vector, **bit-exact**;
* wire accounting — message count and byte totals, exact;
* virtual time and final loss — to 1e-6 relative (floats that round
  through Python-level sums).

Any drift here means the generic driver changed the schedule or the
math of a ported strategy, which is precisely what this refactor must
not do.
"""

import hashlib

import pytest

from repro.core import inceptionn_profile
from repro.distributed import (
    ComputeProfile,
    GroupLayout,
    available_strategies,
    run_strategy,
)
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
from repro.transport import ClusterConfig

REL = 1e-6

PROFILE = ComputeProfile(
    forward_s=1e-4,
    backward_s=3e-4,
    gpu_copy_s=5e-5,
    update_s=2e-4,
    sum_bandwidth_bps=10.4e9,
)
ITERATIONS = 8
WORKERS = 4

#: Recorded pre-refactor, see module docstring.  Keys: strategy_mode.
PINS = {
    "ring_raw": {
        "weights_sha256": "1501a55f69e055b79bda25a0250dbcb07cd94f3937ffa4ad036f16f35127111f",
        "weights_sum": -1491.3309326171875,
        "final_loss": 0.8216704726219177,
        "virtual_time_s": 0.053903606338462334,
        "messages": 192,
        "nbytes": 220609920,
        "wire_payload_nbytes": 220609920,
    },
    "wa_raw": {
        "weights_sha256": "4c11d10d1b8e06a3e2f3d513655d5b93d793051c22cf1c64fa616620aec68151",
        "weights_sum": -1491.3310546875,
        "final_loss": 0.8216705471277237,
        "virtual_time_s": 0.1736119620307764,
        "messages": 64,
        "nbytes": 294146560,
        "wire_payload_nbytes": 294146560,
    },
    "hierarchy_raw": {
        "weights_sha256": "e693c2b8c81f37f314510af58d670114ce22ed55f63ea1b1073e715f16f93653",
        "weights_sum": -1491.3309326171875,
        "final_loss": 0.8216704279184341,
        "virtual_time_s": 0.1004916777846152,
        "messages": 112,
        "nbytes": 294146560,
        "wire_payload_nbytes": 294146560,
    },
    "async_ps_raw": {
        "weights_sha256": "b9e2132c3fe187534f56876f1167005e8a789ff893ec1ed7858a3ad133655d88",
        "weights_sum": -9196.6044921875,
        "final_loss": 2.5914053916931152,
        "virtual_time_s": 0.13737569378999248,
        "messages": 64,
        "nbytes": 294146560,
        "wire_payload_nbytes": 294146560,
    },
    "ring_compressed": {
        "weights_sha256": "d4bc76cc9127cc7ca7e5c59a43ca4389d79ecd5ab336f2d861dc53cf5d455e27",
        "weights_sum": -1418.3507080078125,
        "final_loss": 0.8528502881526947,
        "virtual_time_s": 0.026107006738461662,
        "messages": 192,
        "nbytes": 220609920,
        "wire_payload_nbytes": 55155164,
    },
    "wa_compressed": {
        "weights_sha256": "e5d476462f36ecb34c0358325f7aac289907924ae9eb941e2ffae74e755019a4",
        "weights_sum": -1426.0521240234375,
        "final_loss": 0.8319570273160934,
        "virtual_time_s": 0.1481036878557699,
        "messages": 64,
        "nbytes": 294146560,
        "wire_payload_nbytes": 179340869,
    },
    "hierarchy_compressed": {
        "weights_sha256": "db9c7cf790a3bb7b3b67b60d567f7853c0e45ad8e9053ca1542e128dd92a9b48",
        "weights_sum": -1429.7930908203125,
        "final_loss": 0.8403845131397247,
        "virtual_time_s": 0.04479967638461622,
        "messages": 112,
        "nbytes": 294146560,
        "wire_payload_nbytes": 72354633,
    },
    "async_ps_compressed": {
        "weights_sha256": "880752dc49c3b7595a947d213ea97d68ad159499558fb7f954369387be34280f",
        "weights_sum": -8890.3623046875,
        "final_loss": 2.540337562561035,
        "virtual_time_s": 0.12808025970249073,
        "messages": 64,
        "nbytes": 294146560,
        "wire_payload_nbytes": 177244335,
    },
}


def _common(compressed):
    stream = inceptionn_profile() if compressed else None
    return dict(
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=hdc_dataset(train_size=400, test_size=100, seed=0),
        batch_size=16,
        stream=stream,
        seed=0,
    ), stream


#: Strategy -> its service nodes and ``run_strategy`` options.
SETUPS = {
    "ring": (0, {}),
    "wa": (1, {}),
    "hierarchy": (0, {"layout": GroupLayout.even(WORKERS, 2)}),
    "async_ps": (1, {"max_staleness": 2, "compute_jitter": 0.5}),
}


def _run(strategy, compressed):
    common, stream = _common(compressed)
    extra_nodes, options = SETUPS[strategy]
    return run_strategy(
        strategy,
        num_workers=WORKERS,
        iterations=ITERATIONS,
        cluster=ClusterConfig(num_nodes=WORKERS + extra_nodes, profile=stream),
        profile=PROFILE,
        options=options,
        **common,
    )


def final_loss(strategy, result):
    """The pinned loss: the last iteration's mean, or for the async
    server the last completed worker step (its per-iteration means
    average workers that drift apart)."""
    losses = result.loss_order if strategy == "async_ps" else result.losses
    return float(losses[-1])


@pytest.mark.parametrize("key", sorted(PINS))
def test_ported_strategy_matches_pre_refactor_pin(key):
    strategy, _, mode = key.rpartition("_")
    result = _run(strategy, compressed=(mode == "compressed"))
    pin = PINS[key]

    # Bit-exact model state: the refactor may not change the math.
    digest = hashlib.sha256(result.final_weights.tobytes()).hexdigest()
    assert digest == pin["weights_sha256"], key
    assert float(result.final_weights.sum()) == pin["weights_sum"]

    # Exact wire accounting (satellite: every strategy result must
    # carry the unified TransferSummary).
    summary = result.transfers
    assert summary is not None
    assert summary.messages == pin["messages"]
    assert summary.nbytes == pin["nbytes"]
    assert summary.wire_payload_nbytes == pin["wire_payload_nbytes"]

    # Timing and loss to float tolerance.
    assert result.virtual_time_s == pytest.approx(
        pin["virtual_time_s"], rel=REL
    )
    assert final_loss(strategy, result) == pytest.approx(
        pin["final_loss"], rel=REL
    )


def test_registry_lists_all_builtin_strategies():
    names = available_strategies()
    assert len(names) >= 6
    for expected in (
        "async_ps",
        "hierarchy",
        "local_sgd",
        "ring",
        "stale_async",
        "wa",
    ):
        assert expected in names
