"""The multi-sequence batcher underneath the no-grad inference engine.

:func:`iter_chunk_batches` slices any number of feature streams into
fixed-length chunks and groups them — across requests — into dense
``(b, L, F)`` batches, so one engine pass serves every queued request at
once.  :meth:`repro.core.perfvec.PerfVec.program_representations` and the
serving layer run each batch through the foundation's ``infer``: the
generic :meth:`repro.ml.layers.Module.infer` runs ``forward`` under
:func:`repro.ml.autograd.no_grad`, so a recurrent foundation executes the
same fused LSTM/GRU step loop as training (:mod:`repro.ml.recurrent`)
with no autograd node recorded and no gradient history kept.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

__all__ = ["iter_chunk_batches"]


#: One batched engine work item: rows ``start : start + length`` of stream
#: ``stream`` occupy one row of the batch.
Placement = tuple[int, int, int]


def iter_chunk_batches(
    streams: Sequence[np.ndarray],
    chunk_len: int,
    batch_size: int,
) -> Iterator[tuple[list[Placement], np.ndarray]]:
    """Slice feature streams into dense ``(b, L, F)`` inference batches.

    Every stream is cut into contiguous ``chunk_len``-row chunks (fresh
    recurrent state per chunk, mirroring training).  Full chunks from *all*
    streams batch together, ``batch_size`` at a time; ragged tails batch
    with tails of equal length.  Yields ``(placements, batch)`` where
    ``placements[i] = (stream index, start row, length)`` locates batch row
    ``i`` in its source stream.  Together the yielded placements cover every
    row of every stream exactly once.
    """
    if chunk_len < 1:
        raise ValueError("chunk_len must be positive")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if not streams:
        return
    feat = streams[0].shape[1]
    full: list[tuple[int, int]] = []
    tails: dict[int, list[tuple[int, int]]] = {}
    for s, stream in enumerate(streams):
        n = len(stream)
        if n == 0:
            raise ValueError(f"empty feature stream (index {s})")
        n_full = n // chunk_len
        full.extend((s, i * chunk_len) for i in range(n_full))
        rem = n - n_full * chunk_len
        if rem:
            tails.setdefault(rem, []).append((s, n_full * chunk_len))
    groups = [(chunk_len, full)] + sorted(tails.items())
    for length, places in groups:
        for i in range(0, len(places), batch_size):
            group = places[i : i + batch_size]
            batch = np.empty((len(group), length, feat), dtype=np.float32)
            for row, (s, start) in enumerate(group):
                batch[row] = streams[s][start : start + length]
            yield [(s, start, length) for s, start in group], batch
