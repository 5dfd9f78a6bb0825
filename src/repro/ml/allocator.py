"""Process native-library policy: malloc thresholds and BLAS threads.

Every training step allocates the same multi-megabyte temporaries
(activations, BPTT buffers, optimizer update terms).  glibc serves a
block at or above its mmap threshold (128 KiB at start-up) with a fresh
``mmap`` and unmaps it again on ``free``, so each step faults all of
those pages back in: about 1,060 minor faults per ``lstm-2-64`` step at
the bench batch shape (16 x 48 x 51) on a 2-CPU x86 host, and 12.8-18.5
ms per step against 9.3-11.2 ms with the pages reused.  glibc raises the
threshold by itself after freeing a large mapped block, so whether a run
faulted depended on which large arrays happened to be freed before
training.  :func:`pin_malloc_thresholds` sets the state that glibc's own
adjustment ends in — the 64-bit cap of 32 MiB for ``M_MMAP_THRESHOLD``
and twice that for ``M_TRIM_THRESHOLD`` — once per process, on
:mod:`repro.ml` import, before any large array exists.  Blocks under
32 MiB then come from the heap and are reused from step to step.

:func:`set_blas_threads` sets the thread count of the OpenBLAS that NumPy
loaded.  Process pools call it in each worker when they run two or more
at once: each OpenBLAS otherwise starts a thread per CPU and spins them
for CPUs the neighbouring workers hold.  A cold bench ``repro run-all
--jobs 2`` took 314 s that way, against 59 s with one thread per process
(2-CPU x86 host).  The pools fork after NumPy has loaded OpenBLAS, so
thread environment variables would come too late.
"""

from __future__ import annotations

import ctypes

#: ``mallopt`` parameter numbers from glibc's ``<malloc.h>``.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

#: glibc's largest dynamic mmap threshold on 64-bit hosts
#: (``DEFAULT_MMAP_THRESHOLD_MAX``) and the trim threshold it pairs with.
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def pin_malloc_thresholds() -> bool:
    """Pin the malloc thresholds; True when glibc's ``mallopt`` took both.

    A no-op returning False where the C library has no ``mallopt``
    (macOS, Windows) or rejects the values (musl's stub).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    )


#: Thread-count setters of the OpenBLAS builds NumPy ships with: the plain
#: name, the 64-bit-integer build's and the scipy-openblas wheels'.
BLAS_THREAD_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
)


def openblas_symbol(names: tuple[str, ...]):
    """The first of ``names`` that a BLAS library mapped into this process
    exports, or None (no OpenBLAS, or no ``/proc/self/maps`` to find it)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "blas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            symbol = getattr(lib, name, None)
            if symbol is not None:
                return symbol
    return None


def set_blas_threads(threads: int) -> bool:
    """Run the loaded OpenBLAS on ``threads`` threads; True when it took."""
    setter = openblas_symbol(BLAS_THREAD_SETTERS)
    if setter is None:
        return False
    setter.argtypes = (ctypes.c_int,)
    setter.restype = None
    setter(threads)
    return True
