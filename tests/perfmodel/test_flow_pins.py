"""Bit-exact pins for the flow-fidelity exchange model.

The values below were recorded with ``tools/record_flow_pins.py`` from
the flow model as it stood before its step loop was restructured
(train table built once per exchange, sender-indexed downlink state).
Every element still runs the same float operations in the same order,
so ``total_s`` and ``gradient_sum_s`` must reproduce these ``float.hex``
strings exactly; any drift means a rewrite changed the arithmetic.
"""

import pytest

from repro.core import inceptionn_profile
from repro.distributed import ComputeProfile
from repro.dnn.models import PAPER_MODELS
from repro.perfmodel import simulate_ring_exchange, simulate_wa_exchange

#: A compute profile with every term nonzero (forward, backward, copy,
#: update and the bandwidth-style gradient sum).
PROFILE = ComputeProfile(
    forward_s=1e-4,
    backward_s=3e-4,
    gpu_copy_s=5e-5,
    update_s=2e-4,
    sum_bandwidth_bps=10.4e9,
)

#: Case name -> (workers, nbytes, keyword arguments of the simulators).
CASES = {
    # 20 MB splits every message into several 4400-packet trains.
    "multi_train": (3, 20_000_000, dict(stream=inceptionn_profile())),
    # Ring blocks of 1464/1464/1460 B are 2/2/1 one-packet trains, so
    # the batch carries a zero-packet padding train.
    "padding_raw": (3, 4388, dict(train_packets=1)),
    "padding_compressed": (
        3,
        4388,
        dict(train_packets=1, stream=inceptionn_profile()),
    ),
    # Ring blocks of 166667/166667/166666 floats: unequal per-worker sums.
    "compute": (
        3,
        2_000_000,
        dict(
            profile=PROFILE,
            include_local_compute=True,
            iterations=3,
            stream=inceptionn_profile(),
        ),
    ),
    "alexnet_1024": (
        1024,
        PAPER_MODELS["AlexNet"].nbytes,
        dict(stream=inceptionn_profile(), gradient_ratio=3.7),
    ),
}

SIMULATORS = {"ring": simulate_ring_exchange, "wa": simulate_wa_exchange}

#: "<algo>_<case>" -> (total_s.hex(), gradient_sum_s.hex(), sent, wire).
PINS = {
    "ring_multi_train": (
        "0x1.1c36ac0969d36p-7", "0x0.0p+0", 80_000_000, 21_206_060
    ),
    "wa_multi_train": (
        "0x1.1b9427d0e59c7p-4", "0x0.0p+0", 120_000_000, 75_904_542
    ),
    "ring_padding_raw": ("0x1.f21bdc6c8c772p-16", "0x0.0p+0", 17_552, 17_552),
    "wa_padding_raw": ("0x1.1cb75020c540ap-15", "0x0.0p+0", 26_328, 26_328),
    "ring_padding_compressed": (
        "0x1.c3c44d67e0e6ap-16", "0x0.0p+0", 17_552, 4_652
    ),
    "wa_padding_compressed": (
        "0x1.c9a7914484960p-16", "0x0.0p+0", 26_328, 16_653
    ),
    "ring_compute": (
        "0x1.492dad67b9679p-8", "0x1.934c4d8b791a7p-12", 24_000_000, 6_361_800
    ),
    "wa_compute": (
        "0x1.53d953f7dde9ep-6", "0x1.2e794dfb461adp-10", 36_000_000, 22_771_359
    ),
    "ring_alexnet_1024": (
        "0x1.656ffa9c908dcp-3", "0x0.0p+0", 499_875_053_568, 135_100_686_336
    ),
    "wa_alexnet_1024": (
        "0x1.209f252e50a70p+8", "0x0.0p+0", 500_363_689_984, 317_798_559_744
    ),
}


def test_pins_cover_every_case():
    assert set(PINS) == {f"{a}_{c}" for a in SIMULATORS for c in CASES}


@pytest.mark.parametrize("key", sorted(PINS))
def test_flow_result_is_bit_exact(key):
    algo, case = key.split("_", 1)
    workers, nbytes, kwargs = CASES[case]
    result = SIMULATORS[algo](workers, nbytes, fidelity="flow", **kwargs)
    total_hex, sum_hex, sent, wire = PINS[key]
    assert result.total_s.hex() == total_hex
    assert result.gradient_sum_s.hex() == sum_hex
    assert result.sent_nbytes == sent
    assert result.wire_payload_nbytes == wire
