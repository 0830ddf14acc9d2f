"""Scoped single-threaded BLAS.

The scoring pass's dense products are skinny (``n × hidden`` by
``hidden × f``): a second OpenBLAS thread buys them a few percent, while
the worker threads it wakes busy-wait between calls. On a machine where
another process holds a core, those spinning workers take CPU from the
thread doing the scoring, and a pass runs up to twice as long; how much
longer depends on the neighbour's load, so timings stop being
repeatable. :func:`single_threaded_blas` runs a block with every loaded
OpenBLAS limited to one thread and restores the previous count after.

The limit is process-wide (OpenBLAS has no per-thread setting), so
nested and concurrent blocks share it: the first block in sets it, the
last one out restores it. Where no OpenBLAS with a thread-count entry
point is loaded (another BLAS, or a platform without
``/proc/self/maps``), the block runs unchanged.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

#: (setter, getter) symbol pairs, in the spellings OpenBLAS builds export
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_lock = threading.Lock()
_controls: Optional[List[Tuple[object, object]]] = None
_depth = 0
_saved: List[int] = []


def _loaded_openblas() -> List[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        return []
    return sorted(p for p in paths if os.path.isfile(p))


def _find_controls() -> List[Tuple[object, object]]:
    controls = []
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


@contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Run the block with OpenBLAS limited to one thread (see module doc)."""
    global _controls, _depth, _saved
    with _lock:
        if _controls is None:
            _controls = _find_controls()
        if _depth == 0:
            _saved = [getter() for _, getter in _controls]
            for setter, _ in _controls:
                setter(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (setter, _), count in zip(_controls, _saved):
                    setter(count)
