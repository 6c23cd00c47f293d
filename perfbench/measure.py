"""Arithmetic of the benchmark: order statistics, host fingerprint, comparability.

Kept free of any ``repro`` import so the tests of the harness itself run
without the program.
"""

from __future__ import annotations

import os
import platform
import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Environment variables that change BLAS arithmetic or threading.  They
#: are recorded as found and never set: setting them would hide the
#: thread-count dependence of the GEMM results.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE", "OMP_NUM_THREADS")


def tail_percentile(
    samples: Sequence[float], beyond: int = TAIL_BEYOND
) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile)`` where ``value`` is the sample of
    rank ``n - beyond`` (1-based) and ``percentile`` the share of
    samples at or below that rank, in percent; ``None`` when there are
    not more than ``beyond`` samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return None
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def blas_info() -> Dict[str, Optional[str]]:
    """Name and version of the BLAS numpy was built against."""
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):  # numpy < 1.26
        return {"name": None, "version": None}


def host_fingerprint() -> Dict[str, Any]:
    """What about the host can change host time or BLAS results."""
    import numpy

    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info(),
        "env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


class IncomparableResults(ValueError):
    """Two results that must not be compared with each other."""


def check_comparable(a: Dict[str, Any], b: Dict[str, Any]) -> None:
    """Raise unless two result records measure the same thing on the same host.

    Records must agree on the workload, its inputs (the seed aside, so
    runs over several seeds pool), the run length, tracing, and the
    host fingerprint.
    """
    for key in ("schema", "workload", "inputs", "seconds", "trace", "fingerprint"):
        if a.get(key) != b.get(key):
            raise IncomparableResults(
                f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}"
            )


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of one metric over several runs."""
    if len(values) < 2:
        v = values[0]
        return {"median": v, "q1": v, "q3": v}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def verdict(
    base: List[float], change: List[float], better: str, bound: float
) -> str:
    """Classify a change's runs against the parent's for one metric.

    ``regressed`` when the change's median is worse than the parent's by
    more than ``bound`` (a share of the parent median); ``unresolved``
    when the parent's own spread is wider than the bound and not every
    change run beats every parent run; ``ok`` otherwise.
    """
    b, c = statistics.median(base), statistics.median(change)
    worse = (c - b) / b if better == "lower" else (b - c) / b
    if worse > bound:
        return "regressed"
    if len(base) >= 2 and quartile_spread(base) > bound:
        beats = (
            max(change) < min(base) if better == "lower" else min(change) > max(base)
        )
        if not beats:
            return "unresolved"
    return "ok"
