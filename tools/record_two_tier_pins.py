"""Record bit-exact two-tier fabric pins from the current tree.

Run this *before* a change to the two-tier fabric that must not move
its results, to capture the constants that
``tests/perfmodel/test_two_tier_pins.py`` asserts: ring and WA exchange
``total_s`` as ``float.hex`` plus sent, wire-payload and link-payload
bytes for every case in that module's ``CASES``, and the placement
ablation's ring times.

Usage: PYTHONPATH=src python tools/record_two_tier_pins.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tests.perfmodel.test_two_tier_pins import (  # noqa: E402
    CASES,
    PLACEMENT_OVERSUB,
    SIMULATORS,
    exchange_pin,
    placement_time,
)


def record() -> dict:
    exchange = {
        f"{algo}_{case}": list(exchange_pin(algo, case))
        for algo in SIMULATORS
        for case in CASES
    }
    placement = {
        f"{order}_{oversub:g}": placement_time(order, oversub)
        for order in ("aligned", "interleaved")
        for oversub in PLACEMENT_OVERSUB
    }
    return {"PINS": exchange, "PLACEMENT_PINS": placement}


if __name__ == "__main__":
    print(json.dumps(record(), indent=2))
