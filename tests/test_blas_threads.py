"""Results must not depend on the BLAS thread count of the host.

Multithreaded OpenBLAS changes the float reduction order of the DNN's
GEMMs, so a training run's weights would follow the host's core count
or ``OPENBLAS_NUM_THREADS``.  ``import repro`` pins numpy's OpenBLAS to
one thread; these checks run the same strategy in fresh interpreters
under different thread settings and require identical fingerprints.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

FINGERPRINT = """
import hashlib
from repro.distributed import run_strategy
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset

result = run_strategy(
    "ring",
    build_net=lambda s: build_hdc(seed=s),
    make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
    dataset=hdc_dataset(train_size=400, test_size=100, seed=0),
    num_workers=4,
    iterations=4,
    batch_size=16,
)
print(hashlib.sha256(result.final_weights.tobytes()).hexdigest())
"""


def _fingerprint(threads):
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", FINGERPRINT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.strip()


def test_strategy_fingerprint_ignores_blas_threads():
    prints = {threads: _fingerprint(threads) for threads in (None, "1", "2")}
    assert len(set(prints.values())) == 1, prints
