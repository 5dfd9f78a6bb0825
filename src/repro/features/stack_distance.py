"""Reuse (stack) distance computation.

The stack distance of an access is "the number of unique memory accesses
between the current and last accesses to the same address" (paper Sec.
III-C, citing Ding & Zhong).  Accesses with longer stack distances are more
likely to miss in caches of any size — which is exactly why the feature is
microarchitecture-independent.

Each access's distance counts the keys whose latest access falls after
the key's previous one: a sorted list of those latest positions, one per
key, answers that with one ``bisect`` per access.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

#: Distance reported for cold (first) accesses.
COLD = -1


class StackDistanceStream:
    """Resumable stack-distance computation over appended key chunks.

    Feeding one long key sequence through successive :meth:`push` calls
    yields exactly the distances of a single whole-sequence pass — the
    sorted latest-access positions and the key -> position map carry
    across chunks.  This is what lets :mod:`repro.features.encoder`
    stream long traces through bounded memory.
    """

    __slots__ = ("_latest", "_last", "_pos")

    def __init__(self):
        self._latest: list[int] = []  # each key's latest position, sorted
        self._last: dict[int, int] = {}
        self._pos = 0

    def push(self, keys) -> np.ndarray:
        """Distances for the next chunk of accesses (``COLD`` = first)."""
        latest = self._latest
        last = self._last
        out = []
        i = self._pos
        for k in np.asarray(keys).tolist():
            j = last.get(k)
            if j is None:
                out.append(COLD)
            else:
                # j is still k's latest position, so it is in the list;
                # the distinct keys accessed since are the entries after it
                at = bisect_left(latest, j)
                out.append(len(latest) - at - 1)
                del latest[at]
            latest.append(i)  # positions only grow: the list stays sorted
            last[k] = i
            i += 1
        self._pos = i
        return np.array(out, dtype=np.int64)


class MaskedStackDistanceStream:
    """Stack distances over a masked subsequence, streamed in chunks.

    Selected positions get ``COLD`` semantics, unselected ones ``-2``
    ("not applicable") — the load-only and store-only distance columns of
    Table I, resumable across trace chunks.
    """

    __slots__ = ("_inner",)

    def __init__(self):
        self._inner = StackDistanceStream()

    def push(self, keys, mask) -> np.ndarray:
        keys = np.asarray(keys)
        mask = np.asarray(mask, dtype=bool)
        if keys.shape != mask.shape:
            raise ValueError("keys and mask must have equal length")
        out = np.full(len(keys), -2, dtype=np.int64)
        idx = np.flatnonzero(mask)
        if len(idx):
            out[idx] = self._inner.push(keys[idx])
        return out


def stack_distances(keys) -> np.ndarray:
    """Per-access stack distance of ``keys`` (any hashable ints).

    Returns an int64 array: ``COLD`` (-1) for first accesses, otherwise the
    number of distinct keys touched strictly between this access and the
    previous access to the same key (0 for back-to-back reuse).
    """
    return StackDistanceStream().push(keys)


def stack_distances_where(keys, mask) -> np.ndarray:
    """Stack distances over the subsequence selected by ``mask``.

    Returns a full-length int64 array with ``COLD`` semantics on selected
    positions and ``-2`` ("not applicable") elsewhere.
    """
    return MaskedStackDistanceStream().push(keys, mask)
