"""Record bit-exact flow-fidelity pins from the current tree.

Run this against the flow model *before* a change that must not move
its results, to capture the constants that
``tests/perfmodel/test_flow_pins.py`` asserts: ``total_s`` and
``gradient_sum_s`` as ``float.hex`` (bit-exact) plus the sent and
on-wire byte counts, for the ring and WA exchanges at every
configuration in that module's ``CASES``.

Usage: PYTHONPATH=src python tools/record_flow_pins.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tests.perfmodel.test_flow_pins import CASES, SIMULATORS  # noqa: E402


def record() -> dict:
    pins: dict = {}
    for name, (workers, nbytes, kwargs) in CASES.items():
        for algo, simulate in SIMULATORS.items():
            result = simulate(workers, nbytes, fidelity="flow", **kwargs)
            pins[f"{algo}_{name}"] = [
                result.total_s.hex(),
                result.gradient_sum_s.hex(),
                result.sent_nbytes,
                result.wire_payload_nbytes,
            ]
    return pins


if __name__ == "__main__":
    print(json.dumps(record(), indent=2))
