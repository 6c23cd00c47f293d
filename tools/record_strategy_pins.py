"""Record strategy-parity pins from the current tree.

Run this *before* a change that must not move training results, to
capture the constants that ``tests/distributed/test_strategy_parity.py``
asserts: final weights (sha256 of the final parameter vector,
bit-exact), wire bytes (exact), and virtual time and final loss (1e-6),
for every strategy in that module's ``SETUPS``, raw and compressed.

Usage: PYTHONPATH=src python tools/record_strategy_pins.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tests.distributed.test_strategy_parity import (  # noqa: E402
    SETUPS,
    _run,
    final_loss,
)


def _pin(strategy: str, result) -> dict:
    weights = result.final_weights
    summary = result.transfers
    return {
        "weights_sha256": hashlib.sha256(weights.tobytes()).hexdigest(),
        "weights_sum": float(weights.sum()),
        "final_loss": final_loss(strategy, result),
        "virtual_time_s": result.virtual_time_s,
        "messages": summary.messages,
        "nbytes": summary.nbytes,
        "wire_payload_nbytes": summary.wire_payload_nbytes,
    }


def record() -> dict:
    return {
        f"{strategy}_{mode}": _pin(strategy, _run(strategy, mode == "compressed"))
        for mode in ("raw", "compressed")
        for strategy in SETUPS
    }


if __name__ == "__main__":
    print(json.dumps(record(), indent=2))
