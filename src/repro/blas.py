"""Pin numpy's OpenBLAS to one thread so results are a property of the code.

Multithreaded OpenBLAS splits a GEMM's reduction across threads, and the
split follows the thread count — so the float sums of the ``@`` products
in :mod:`repro.dnn.layers`, and every weight digest pinned downstream,
would change with the host's core count or ``OPENBLAS_NUM_THREADS``.
Importing this module (``import repro`` does, first) calls
:func:`pin_blas_threads` once, through ctypes on the OpenBLAS numpy
already loaded, so nothing extra is needed.

Invariants: only libraries already mapped into this process (or vendored
next to numpy, where numpy loaded them from) are touched; a numpy built
on another BLAS, or an OpenBLAS without a known setter symbol, is left
alone; pinning is idempotent.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import List, Set

import numpy as np

#: Thread-count setters across OpenBLAS builds: plain, 64-bit-integer
#: suffixed, and the ``scipy_openblas`` prefix numpy's wheels use.
_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _openblas_paths() -> List[str]:
    """Paths of the OpenBLAS shared objects numpy loaded, sorted."""
    paths: Set[str] = set()
    maps = Path("/proc/self/maps")
    if maps.exists():
        for line in maps.read_text().splitlines():
            path = line.split(maxsplit=5)[-1]
            if "openblas" in Path(path).name.lower():
                paths.add(path)
    # Wheels vendor the library next to numpy (Linux: numpy.libs,
    # macOS: numpy/.dylibs); there is no /proc on macOS.
    root = Path(np.__file__).parent
    for vendored in (root.parent / "numpy.libs", root / ".dylibs"):
        if vendored.is_dir():
            paths.update(str(p.resolve()) for p in vendored.glob("*openblas*"))
    return sorted(paths)


def pin_blas_threads() -> int:
    """Set every loaded OpenBLAS to one thread; returns how many were set."""
    pinned = 0
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _SETTERS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter(ctypes.c_int(1))
                pinned += 1
                break
    return pinned


pin_blas_threads()
