"""Microarchitecture configuration dataclasses.

A :class:`MicroarchConfig` fully determines the timing simulator's behaviour:
core kind and widths, functional units, branch predictor, the three-level
cache hierarchy (L1I, L1D, unified L2 with optional exclusivity) and the
memory system.  ``to_feature_vector`` produces the normalized parameter
vector the microarchitecture representation model consumes during design
space exploration (paper Sec. VI-A trains an MLP from such parameters).
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, replace

import numpy as np


class CoreKind(str, enum.Enum):
    IN_ORDER = "inorder"
    OUT_OF_ORDER = "ooo"


class PredictorKind(str, enum.Enum):
    STATIC = "static"  # backward taken / forward not-taken
    BIMODAL = "bimodal"
    GSHARE = "gshare"
    TOURNAMENT = "tournament"


class MemoryKind(str, enum.Enum):
    DDR4 = "DDR4"
    LPDDR5 = "LPDDR5"
    GDDR5 = "GDDR5"
    HBM = "HBM"


#: Typical (latency_ns, bandwidth_GBps) per memory technology, used as the
#: sampler's anchor points; samples jitter around these.
MEMORY_BASELINES: dict[MemoryKind, tuple[float, float]] = {
    MemoryKind.DDR4: (70.0, 25.0),
    MemoryKind.LPDDR5: (90.0, 40.0),
    MemoryKind.GDDR5: (60.0, 80.0),
    MemoryKind.HBM: (50.0, 250.0),
}


@dataclass(frozen=True)
class FUConfig:
    """A pool of functional units of one kind."""

    count: int
    latency: int
    pipelined: bool = True

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("functional unit count must be >= 1")
        if self.latency < 1:
            raise ValueError("functional unit latency must be >= 1")


@dataclass(frozen=True)
class CoreConfig:
    """Pipeline shape and execution resources."""

    kind: CoreKind
    freq_ghz: float
    fetch_width: int
    frontend_depth: int  # cycles between fetch and earliest issue
    issue_width: int
    commit_width: int
    rob_size: int  # instruction window (ignored for in-order cores)
    int_alu: FUConfig
    int_mul: FUConfig
    int_div: FUConfig
    fp_add: FUConfig
    fp_mul: FUConfig
    fp_div: FUConfig
    mem_ports: int
    mshrs: int  # outstanding cache misses (memory-level parallelism)

    def __post_init__(self) -> None:
        if not 0.5 <= self.freq_ghz <= 6.0:
            raise ValueError(f"unrealistic frequency {self.freq_ghz} GHz")
        for name in ("fetch_width", "issue_width", "commit_width"):
            width = getattr(self, name)
            if not 1 <= width <= 16:
                raise ValueError(f"{name} must be in [1, 16], got {width}")
        if self.kind is CoreKind.OUT_OF_ORDER and not 8 <= self.rob_size <= 1024:
            raise ValueError("rob_size must be in [8, 1024] for OoO cores")
        if not 1 <= self.frontend_depth <= 20:
            raise ValueError("frontend_depth must be in [1, 20]")
        if not 1 <= self.mem_ports <= 8:
            raise ValueError("mem_ports must be in [1, 8]")
        if not 1 <= self.mshrs <= 64:
            raise ValueError("mshrs must be in [1, 64]")


@dataclass(frozen=True)
class BranchPredictorConfig:
    kind: PredictorKind
    table_bits: int  # log2 of counter-table entries
    history_bits: int  # global-history length (gshare/tournament)
    btb_bits: int  # log2 of BTB entries
    ras_entries: int  # return-address-stack depth
    mispredict_penalty: int  # redirect cycles after resolution

    def __post_init__(self) -> None:
        if not 4 <= self.table_bits <= 20:
            raise ValueError("table_bits must be in [4, 20]")
        if not 0 <= self.history_bits <= 20:
            raise ValueError("history_bits must be in [0, 20]")
        if not 4 <= self.btb_bits <= 16:
            raise ValueError("btb_bits must be in [4, 16]")
        if not 0 <= self.ras_entries <= 64:
            raise ValueError("ras_entries must be in [0, 64]")
        if not 1 <= self.mispredict_penalty <= 40:
            raise ValueError("mispredict_penalty must be in [1, 40]")


@dataclass(frozen=True)
class CacheConfig:
    size_kb: int
    assoc: int
    latency: int  # access cycles
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_kb < 1 or self.size_kb & (self.size_kb - 1):
            raise ValueError("cache size (kB) must be a positive power of two")
        if self.assoc < 1 or self.assoc & (self.assoc - 1):
            raise ValueError("associativity must be a positive power of two")
        if self.line_bytes not in (32, 64, 128):
            raise ValueError("line size must be 32, 64 or 128 bytes")
        if not 1 <= self.latency <= 100:
            raise ValueError("cache latency must be in [1, 100] cycles")
        if self.num_sets < 1:
            raise ValueError("associativity exceeds cache capacity")

    @property
    def num_lines(self) -> int:
        return self.size_kb * 1024 // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.assoc


@dataclass(frozen=True)
class MemoryConfig:
    kind: MemoryKind
    latency_ns: float
    bandwidth_gbps: float

    def __post_init__(self) -> None:
        if not 10.0 <= self.latency_ns <= 500.0:
            raise ValueError("memory latency must be in [10, 500] ns")
        if not 1.0 <= self.bandwidth_gbps <= 2000.0:
            raise ValueError("memory bandwidth must be in [1, 2000] GB/s")


@dataclass(frozen=True)
class MicroarchConfig:
    """A complete microarchitecture."""

    name: str
    core: CoreConfig
    branch: BranchPredictorConfig
    l1i: CacheConfig
    l1d: CacheConfig
    l2: CacheConfig
    memory: MemoryConfig
    l2_exclusive: bool = False

    def __post_init__(self) -> None:
        if self.l2.size_kb < max(self.l1i.size_kb, self.l1d.size_kb):
            raise ValueError("L2 must be at least as large as each L1")
        if not (self.l1i.line_bytes == self.l1d.line_bytes == self.l2.line_bytes):
            raise ValueError("all cache levels must share a line size")

    def with_cache_sizes(
        self, l1d_kb: int | None = None, l2_kb: int | None = None,
        name: str | None = None,
    ) -> "MicroarchConfig":
        """Clone with different L1D/L2 capacities (the Fig. 7 DSE knobs)."""
        l1d = replace(self.l1d, size_kb=l1d_kb) if l1d_kb else self.l1d
        l2 = replace(self.l2, size_kb=l2_kb) if l2_kb else self.l2
        new_name = name or f"{self.name}_l1d{l1d.size_kb}k_l2{l2.size_kb}k"
        return replace(self, name=new_name, l1d=l1d, l2=l2)

    # ------------------------------------------------------------------
    # JSON round-trip (model artifacts store the configs they were
    # trained against; see repro.models.store)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable description; inverse of :func:`config_from_dict`."""
        data = asdict(self)
        data["core"]["kind"] = self.core.kind.value
        data["branch"]["kind"] = self.branch.kind.value
        data["memory"]["kind"] = self.memory.kind.value
        return data

    # ------------------------------------------------------------------
    # parameter-vector encoding for the microarchitecture representation
    # model (log scales for capacities, one-hots for categoricals)
    # ------------------------------------------------------------------
    @staticmethod
    def feature_names() -> list[str]:
        names = [
            "is_ooo",
            "freq_ghz",
            "fetch_width",
            "frontend_depth",
            "issue_width",
            "commit_width",
            "log2_rob",
            "int_alu_count", "int_alu_lat",
            "int_mul_count", "int_mul_lat",
            "int_div_count", "int_div_lat",
            "fp_add_count", "fp_add_lat",
            "fp_mul_count", "fp_mul_lat",
            "fp_div_count", "fp_div_lat",
            "mem_ports",
            "log2_mshrs",
        ]
        names += [f"bp_{k.value}" for k in PredictorKind]
        names += [
            "bp_table_bits",
            "bp_history_bits",
            "bp_btb_bits",
            "bp_ras",
            "bp_penalty",
            "log2_l1i_kb", "log2_l1i_assoc", "l1i_lat",
            "log2_l1d_kb", "log2_l1d_assoc", "l1d_lat",
            "log2_l2_kb", "log2_l2_assoc", "l2_lat",
            "l2_exclusive",
        ]
        names += [f"mem_{k.value}" for k in MemoryKind]
        names += ["mem_latency_ns", "log2_mem_bw"]
        return names

    def to_feature_vector(self) -> np.ndarray:
        """Normalized parameter vector (float32) for the uarch model."""
        c, b = self.core, self.branch
        values = [
            1.0 if c.kind is CoreKind.OUT_OF_ORDER else 0.0,
            c.freq_ghz / 6.0,
            c.fetch_width / 16.0,
            c.frontend_depth / 20.0,
            c.issue_width / 16.0,
            c.commit_width / 16.0,
            (np.log2(c.rob_size) / 10.0
             if c.kind is CoreKind.OUT_OF_ORDER else 0.0),
        ]
        for fu in (c.int_alu, c.int_mul, c.int_div, c.fp_add, c.fp_mul, c.fp_div):
            values += [fu.count / 8.0, fu.latency / 40.0]
        values += [c.mem_ports / 8.0, np.log2(c.mshrs) / 6.0]
        values += [1.0 if b.kind is k else 0.0 for k in PredictorKind]
        values += [
            b.table_bits / 20.0,
            b.history_bits / 20.0,
            b.btb_bits / 16.0,
            b.ras_entries / 64.0,
            b.mispredict_penalty / 40.0,
        ]
        for cache in (self.l1i, self.l1d, self.l2):
            values += [
                np.log2(cache.size_kb) / 14.0,
                np.log2(cache.assoc) / 5.0,
                cache.latency / 100.0,
            ]
        values.append(1.0 if self.l2_exclusive else 0.0)
        values += [1.0 if self.memory.kind is k else 0.0 for k in MemoryKind]
        values += [
            self.memory.latency_ns / 500.0,
            np.log2(self.memory.bandwidth_gbps) / 11.0,
        ]
        vec = np.asarray(values, dtype=np.float32)
        assert len(vec) == len(self.feature_names())
        return vec


def config_from_dict(data: dict) -> MicroarchConfig:
    """Rebuild a :class:`MicroarchConfig` from :meth:`MicroarchConfig.to_dict`."""
    core = dict(data["core"])
    core["kind"] = CoreKind(core["kind"])
    for fu_name in ("int_alu", "int_mul", "int_div", "fp_add", "fp_mul", "fp_div"):
        core[fu_name] = FUConfig(**core[fu_name])
    branch = dict(data["branch"])
    branch["kind"] = PredictorKind(branch["kind"])
    memory = dict(data["memory"])
    memory["kind"] = MemoryKind(memory["kind"])
    return MicroarchConfig(
        name=data["name"],
        core=CoreConfig(**core),
        branch=BranchPredictorConfig(**branch),
        l1i=CacheConfig(**data["l1i"]),
        l1d=CacheConfig(**data["l1d"]),
        l2=CacheConfig(**data["l2"]),
        memory=MemoryConfig(**memory),
        l2_exclusive=data["l2_exclusive"],
    )
