"""Set-associative caches and the three-level hierarchy.

Each set is an insertion-ordered dict used as an LRU list: a hit re-inserts
the tag (moving it to the MRU end), a miss evicts the first (LRU) key.  This
keeps every operation O(1) in pure Python, which matters — cache simulation
is the hot path of the whole reproduction.  Sets are created on first
touch (a large L2 has tens of thousands, most never used by a short
trace), and the hierarchy takes the L1 hit path inline, so a hit costs
one call.

The hierarchy supports the paper's "exclusivity" cache knob: with an
exclusive L2, an L2 hit *moves* the line into L1 and L1 victims are demoted
into L2 (AMD-style victim cache); otherwise lines are installed in both
levels (mostly-inclusive, gem5's default behaviour).
"""

from __future__ import annotations

from collections import defaultdict

from repro.sim.memory import DRAMModel
from repro.uarch.config import CacheConfig, MicroarchConfig

#: Hit-level codes returned by the hierarchy (index into latency stats).
L1_HIT, L2_HIT, MEM_HIT = 1, 2, 3


class Cache:
    """One set-associative LRU cache level."""

    __slots__ = ("config", "ways", "set_mask", "_sets", "hits", "misses")

    def __init__(self, config: CacheConfig):
        self.config = config
        self.ways = config.assoc
        num_sets = config.num_sets
        if num_sets & (num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self.set_mask = num_sets - 1
        #: set index -> LRU dict, created on first touch
        self._sets: defaultdict[int, dict[int, None]] = defaultdict(dict)
        self.hits = 0
        self.misses = 0

    def lookup(self, line: int) -> bool:
        """Probe (and on hit, touch) ``line``.  Returns hit/miss."""
        s = self._sets[line & self.set_mask]
        if line in s:
            del s[line]
            s[line] = None  # move to MRU position
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, line: int) -> int | None:
        """Install ``line``; returns the evicted line, if any."""
        s = self._sets[line & self.set_mask]
        if line in s:
            del s[line]
            s[line] = None
            return None
        victim = None
        if len(s) >= self.ways:
            victim = next(iter(s))
            del s[victim]
        s[line] = None
        return victim

    def remove(self, line: int) -> None:
        """Invalidate ``line`` if present (exclusive-mode promotion)."""
        s = self._sets[line & self.set_mask]
        s.pop(line, None)

    def contains(self, line: int) -> bool:
        """Non-touching presence probe (no LRU update, no stats)."""
        return line in self._sets[line & self.set_mask]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class CacheHierarchy:
    """L1I + L1D + unified L2 backed by DRAM."""

    __slots__ = (
        "l1i", "l1d", "l2", "exclusive", "dram",
        "_l1i_lat", "_l1d_lat", "_l2_lat", "_shift",
    )

    def __init__(self, config: MicroarchConfig):
        self.l1i = Cache(config.l1i)
        self.l1d = Cache(config.l1d)
        self.l2 = Cache(config.l2)
        self.exclusive = config.l2_exclusive
        self.dram = DRAMModel(
            config.memory, config.core.freq_ghz, config.l1d.line_bytes
        )
        self._l1i_lat = config.l1i.latency
        self._l1d_lat = config.l1d.latency
        self._l2_lat = config.l2.latency
        line = config.l1d.line_bytes
        self._shift = line.bit_length() - 1

    # ------------------------------------------------------------------
    def probe_data(self, addr: int) -> int:
        """Data-side state update: probe/fill caches, return the hit level.

        Timing is intentionally separate (see :meth:`data_latency`): the
        core model must settle structural constraints (MSHR availability)
        *before* asking the DRAM for queueing-aware latency, otherwise
        queueing delay measured from a stale timestamp double-counts.
        """
        line = addr >> self._shift
        l1d = self.l1d
        s = l1d._sets[line & l1d.set_mask]
        if line in s:  # Cache.lookup's hit path, inline
            del s[line]
            s[line] = None
            l1d.hits += 1
            return L1_HIT
        l1d.misses += 1
        if self.l2.lookup(line):
            if self.exclusive:
                self.l2.remove(line)
            victim = self.l1d.insert(line)
            if self.exclusive and victim is not None:
                self.l2.insert(victim)
            return L2_HIT
        victim = self.l1d.insert(line)
        if self.exclusive:
            if victim is not None:
                self.l2.insert(victim)
        else:
            self.l2.insert(line)
        return MEM_HIT

    def data_latency(self, level: int, now: int) -> int:
        """Latency (cycles) of a data access that hit at ``level``,
        issued around cycle ``now`` (DRAM bandwidth queueing applies)."""
        if level == L1_HIT:
            return self._l1d_lat
        if level == L2_HIT:
            return self._l1d_lat + self._l2_lat
        return self._l1d_lat + self._l2_lat + self.dram.access(now)

    def access_data(self, addr: int, now: int) -> tuple[int, int]:
        """Probe + latency in one call (for callers without MSHR settling)."""
        level = self.probe_data(addr)
        return self.data_latency(level, now), level

    # ------------------------------------------------------------------
    def access_ifetch(self, addr: int, now: int) -> tuple[int, int]:
        """Instruction-side access; L1I is never exclusive with L2."""
        line = addr >> self._shift
        l1i = self.l1i
        s = l1i._sets[line & l1i.set_mask]
        if line in s:  # Cache.lookup's hit path, inline
            del s[line]
            s[line] = None
            l1i.hits += 1
            return self._l1i_lat, L1_HIT
        l1i.misses += 1
        if self.l2.lookup(line):
            self.l1i.insert(line)
            return self._l1i_lat + self._l2_lat, L2_HIT
        latency = self._l1i_lat + self._l2_lat + self.dram.access(now)
        self.l1i.insert(line)
        self.l2.insert(line)
        return latency, MEM_HIT

    def stats(self) -> dict[str, int]:
        return {
            "l1i_hits": self.l1i.hits,
            "l1i_misses": self.l1i.misses,
            "l1d_hits": self.l1d.hits,
            "l1d_misses": self.l1d.misses,
            "l2_hits": self.l2.hits,
            "l2_misses": self.l2.misses,
            "mem_accesses": self.dram.accesses,
        }
