"""Process allocator policy: pin glibc malloc's mmap and trim thresholds.

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
