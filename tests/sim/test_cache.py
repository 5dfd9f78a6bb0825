"""Unit + property tests for the cache model."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim.cache import Cache, CacheHierarchy, L1_HIT, L2_HIT, MEM_HIT
from repro.uarch.config import CacheConfig
from repro.uarch.presets import cortex_a7_like, zen_like


def small_cache(size_kb=1, assoc=2, latency=1):
    return Cache(CacheConfig(size_kb=size_kb, assoc=assoc, latency=latency))


def test_cold_miss_then_hit():
    c = small_cache()
    assert not c.lookup(5)
    c.insert(5)
    assert c.lookup(5)
    assert c.hits == 1 and c.misses == 1


def test_lru_eviction_order():
    c = small_cache(size_kb=1, assoc=2)  # 16 lines, 8 sets, 2 ways
    sets = c.set_mask + 1
    a, b, d = 0, sets, 2 * sets  # three lines in the same set
    c.insert(a)
    c.insert(b)
    assert c.lookup(a)  # a becomes MRU, b is LRU
    victim = c.insert(d)
    assert victim == b


def test_remove_for_exclusive_mode():
    c = small_cache()
    c.insert(9)
    c.remove(9)
    assert not c.contains(9)
    c.remove(9)  # idempotent


def test_hierarchy_levels_and_latency():
    cfg = cortex_a7_like()
    h = CacheHierarchy(cfg)
    lat1, lvl1 = h.access_data(0x1000, 0)
    assert lvl1 == MEM_HIT
    assert lat1 >= cfg.l1d.latency + cfg.l2.latency
    lat2, lvl2 = h.access_data(0x1000, 100)
    assert lvl2 == L1_HIT and lat2 == cfg.l1d.latency


def test_hierarchy_l2_hit_after_l1_eviction():
    cfg = cortex_a7_like()
    h = CacheHierarchy(cfg)
    # fill one L1D set (4 ways) with 5 conflicting lines
    sets = cfg.l1d.num_sets
    lines = [(k * sets) << 6 for k in range(5)]
    for addr in lines:
        h.access_data(addr, 0)
    # first line was evicted from L1 but (inclusive mode) still in L2
    lat, lvl = h.access_data(lines[0], 0)
    assert lvl == L2_HIT


def test_exclusive_l2_promotes_and_demotes():
    cfg = zen_like()
    assert cfg.l2_exclusive
    h = CacheHierarchy(cfg)
    h.access_data(0x40, 0)  # miss -> L1 only (exclusive: not in L2)
    assert h.l1d.contains(1)
    assert not h.l2.contains(1)
    # evict it from L1 by conflicting fills; it must be demoted to L2
    sets = cfg.l1d.num_sets
    for k in range(1, cfg.l1d.assoc + 1):
        h.access_data((1 + k * sets) << 6, 0)
    assert not h.l1d.contains(1)
    assert h.l2.contains(1)
    # and the next access promotes it back out of L2
    _, lvl = h.access_data(0x40, 0)
    assert lvl == L2_HIT
    assert h.l1d.contains(1)
    assert not h.l2.contains(1)


def test_ifetch_uses_l1i():
    cfg = cortex_a7_like()
    h = CacheHierarchy(cfg)
    h.access_ifetch(0x1000, 0)
    lat, lvl = h.access_ifetch(0x1000, 1)
    assert lvl == L1_HIT and lat == cfg.l1i.latency
    assert h.l1d.accesses == 0


def test_stats_accumulate():
    cfg = cortex_a7_like()
    h = CacheHierarchy(cfg)
    for i in range(10):
        h.access_data(i * 64, 0)
    s = h.stats()
    assert s["l1d_misses"] == 10
    assert s["mem_accesses"] == 10


# ---------------------------------------------------------------------------
# LRU stack property: with the same set-indexing, a larger-associativity
# cache of the same set count never misses where the smaller one hits.
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=400)
)
def test_lru_inclusion_property(lines):
    small = Cache(CacheConfig(size_kb=2, assoc=2, latency=1))  # 16 sets
    big = Cache(CacheConfig(size_kb=4, assoc=4, latency=1))  # same 16 sets
    assert small.set_mask == big.set_mask
    for line in lines:
        hit_small = small.lookup(line)
        hit_big = big.lookup(line)
        if not hit_small:
            small.insert(line)
        if not hit_big:
            big.insert(line)
        if hit_small:
            assert hit_big, "LRU inclusion violated"


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=300))
def test_cache_never_exceeds_capacity(lines):
    c = Cache(CacheConfig(size_kb=1, assoc=2, latency=1))
    for line in lines:
        if not c.lookup(line):
            c.insert(line)
    resident = sum(len(s) for s in c._sets.values())
    assert resident <= c.config.num_lines


def test_dram_transfers_move_one_cache_line():
    """The channel is busy for one line per fill: on cortex-a7-like
    (12 GB/s at 1.4 GHz), 64-byte lines take 7 cycles and 128-byte lines
    take 15."""
    import dataclasses

    base = cortex_a7_like()
    wide = dataclasses.replace(
        base,
        name="a7-128B-lines",
        l1i=dataclasses.replace(base.l1i, line_bytes=128),
        l1d=dataclasses.replace(base.l1d, line_bytes=128),
        l2=dataclasses.replace(base.l2, line_bytes=128),
    )
    assert CacheHierarchy(base).dram.transfer_cycles == 7
    assert CacheHierarchy(wide).dram.transfer_cycles == 15


def test_dram_bandwidth_queueing():
    from repro.sim.memory import DRAMModel
    from repro.uarch.config import MemoryConfig, MemoryKind

    slow = DRAMModel(MemoryConfig(MemoryKind.DDR4, 70.0, 2.0), freq_ghz=2.0)
    fast = DRAMModel(MemoryConfig(MemoryKind.HBM, 70.0, 500.0), freq_ghz=2.0)
    # burst of back-to-back accesses at the same cycle: the slow channel
    # must queue, the fast one barely
    slow_lat = [slow.access(0) for _ in range(8)]
    fast_lat = [fast.access(0) for _ in range(8)]
    assert slow_lat[-1] > fast_lat[-1]
    assert slow_lat == sorted(slow_lat)  # monotone queueing
