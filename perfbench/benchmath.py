"""The benchmark's own arithmetic: percentiles, open-loop latency, failure
fractions and the per-layer ledger sums.

Kept free of numpy and of ``repro`` imports so the math the benchmark's
verdicts rest on can be read and tested on its own
(``python3 -m pytest perfbench``).
"""

from __future__ import annotations

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; fewer make the value one or two unlucky requests.
MIN_BEYOND = 10

#: Reply outcomes that count against ``failed_frac``.
OK = "ok"
FAILED_OUTCOMES = ("timeout", "http_503", "http_error", "mismatch", "error")


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def samples_beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return round(n * (100.0 - q) / 100.0, 9)  # 100 - 99.9 is not 0.1


def supported(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """True when ``n`` samples leave ``min_beyond`` beyond percentile ``q``."""
    return samples_beyond(n, q) >= min_beyond


def due_latencies(due, done) -> list[float]:
    """Open-loop latency of each request, timed from when it was due.

    A stalled request delays the sends behind it; timing from the due time
    (not the send time) charges that wait to the requests that suffered
    it, so a stall shows in the tail instead of vanishing.
    """
    if len(due) != len(done):
        raise ValueError("due and done must pair up")
    return [end - start for start, end in zip(due, done)]


def lateness(due, sent) -> list[float]:
    """How late the generator sent each request (0 when on time)."""
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def failed_fraction(outcomes) -> tuple[int, int, float]:
    """``(attempted, failed, failed/attempted)`` over reply outcomes.

    Every outcome other than :data:`OK` fails: timeouts, 503 load-shedding,
    other HTTP errors and answers that failed their output check.
    """
    outcomes = list(outcomes)
    unknown = set(outcomes) - {OK, *FAILED_OUTCOMES}
    if unknown:
        raise ValueError(f"unknown outcomes: {sorted(unknown)}")
    attempted = len(outcomes)
    failed = sum(o != OK for o in outcomes)
    return attempted, failed, (failed / attempted if attempted else 0.0)


def unattributed(wall_s: float, self_times: dict[str, float]) -> tuple[float, float]:
    """``(seconds, fraction of wall)`` not covered by any layer's self time."""
    rest = wall_s - sum(self_times.values())
    return rest, (rest / wall_s if wall_s > 0 else 0.0)

