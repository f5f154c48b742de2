"""System configuration matching Table 1 of the paper.

The paper simulates a 1 GHz, 8-wide out-of-order processor with a 64K
direct-mapped L1 i-cache (1-cycle), a 64K 2-way L1 d-cache (1-cycle), a 1M
4-way unified L2 (12-cycle), and an 80-cycle (+4 cycles per 8 bytes) main
memory.  :class:`SystemConfig` captures those parameters and provides the
derived quantities (cache geometries, miss penalties) the rest of the
library consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of a single cache array.

    Attributes
    ----------
    size_bytes:
        Total capacity of the data array in bytes.
    block_size:
        Block (line) size in bytes.
    associativity:
        Number of ways; 1 means direct-mapped.
    latency:
        Access latency in processor cycles.
    """

    size_bytes: int
    block_size: int = 32
    associativity: int = 1
    latency: int = 1

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.size_bytes):
            raise ValueError(f"cache size must be a power of two, got {self.size_bytes}")
        if not _is_power_of_two(self.block_size):
            raise ValueError(f"block size must be a power of two, got {self.block_size}")
        if not _is_power_of_two(self.associativity):
            raise ValueError(
                f"associativity must be a power of two, got {self.associativity}"
            )
        if self.block_size > self.size_bytes:
            raise ValueError("block size cannot exceed cache size")
        if self.associativity > self.num_blocks:
            raise ValueError("associativity cannot exceed the number of blocks")
        if self.latency < 1:
            raise ValueError("latency must be at least one cycle")

    @property
    def num_blocks(self) -> int:
        """Total number of block frames in the cache."""
        return self.size_bytes // self.block_size

    @property
    def num_sets(self) -> int:
        """Number of sets (rows) in the cache."""
        return self.num_blocks // self.associativity

    @property
    def offset_bits(self) -> int:
        """Number of block-offset bits in an address."""
        return self.block_size.bit_length() - 1

    @property
    def index_bits(self) -> int:
        """Number of set-index bits for the full-size cache."""
        return self.num_sets.bit_length() - 1

    @property
    def data_bits(self) -> int:
        """Number of SRAM data bits in the array (excluding tags)."""
        return self.size_bytes * 8

    def tag_bits(self, address_bits: int = 32) -> int:
        """Number of tag bits per block frame for ``address_bits``-wide addresses."""
        return address_bits - self.index_bits - self.offset_bits

    def scaled(self, factor: int) -> "CacheGeometry":
        """Return a geometry scaled in capacity by an integer ``factor``."""
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        return replace(self, size_bytes=self.size_bytes * factor)


@dataclass(frozen=True)
class MemoryTiming:
    """Main-memory access timing (Table 1: 80 cycles + 4 cycles per 8 bytes)."""

    base_latency: int = 80
    cycles_per_chunk: int = 4
    chunk_bytes: int = 8

    def access_latency(self, size_bytes: int) -> int:
        """Latency in cycles to transfer ``size_bytes`` from main memory."""
        if size_bytes <= 0:
            raise ValueError("transfer size must be positive")
        chunks = (size_bytes + self.chunk_bytes - 1) // self.chunk_bytes
        return self.base_latency + self.cycles_per_chunk * chunks


@dataclass(frozen=True)
class PipelineConfig:
    """Out-of-order core parameters from Table 1."""

    issue_width: int = 8
    decode_width: int = 8
    commit_width: int = 8
    reorder_buffer_size: int = 128
    lsq_size: int = 128
    frequency_hz: float = 1e9
    base_ipc: float = 2.0

    def __post_init__(self) -> None:
        if self.issue_width < 1 or self.decode_width < 1 or self.commit_width < 1:
            raise ValueError("pipeline widths must be at least 1")
        if self.reorder_buffer_size < 1 or self.lsq_size < 1:
            raise ValueError("ROB/LSQ sizes must be at least 1")
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if not 0.0 < self.base_ipc <= self.issue_width:
            raise ValueError("base IPC must be positive and not exceed issue width")

    @property
    def cycle_time_ns(self) -> float:
        """Processor cycle time in nanoseconds."""
        return 1e9 / self.frequency_hz


@dataclass(frozen=True)
class SystemConfig:
    """Full simulated-system configuration (Table 1).

    The defaults reproduce the base configuration used throughout the
    paper's evaluation.  ``l1_icache`` describes the conventional i-cache;
    the DRI i-cache built on top of it shares the same geometry.
    """

    l1_icache: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(size_bytes=64 * 1024, associativity=1, latency=1)
    )
    l1_dcache: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(size_bytes=64 * 1024, associativity=2, latency=1)
    )
    l2_cache: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(size_bytes=1024 * 1024, associativity=4, latency=12)
    )
    memory: MemoryTiming = field(default_factory=MemoryTiming)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    address_bits: int = 32

    def __post_init__(self) -> None:
        if self.address_bits < 16 or self.address_bits > 64:
            raise ValueError("address_bits must be between 16 and 64")

    @property
    def l1_miss_penalty(self) -> int:
        """Cycles added by an L1 miss that hits in L2."""
        return self.l2_cache.latency

    @property
    def l2_miss_penalty(self) -> int:
        """Cycles added by an L2 miss (one block from main memory)."""
        return self.memory.access_latency(self.l2_cache.block_size)

    def describe(self) -> Dict[str, str]:
        """Human-readable summary mirroring the rows of Table 1."""
        icache = self.l1_icache
        dcache = self.l1_dcache
        l2 = self.l2_cache
        return {
            "Instruction issue & decode bandwidth": f"{self.pipeline.issue_width} issues per cycle",
            "L1 i-cache / L1 DRI i-cache": (
                f"{icache.size_bytes // 1024}K, "
                f"{'direct-mapped' if icache.associativity == 1 else f'{icache.associativity}-way'}, "
                f"{icache.latency} cycle latency"
            ),
            "L1 d-cache": (
                f"{dcache.size_bytes // 1024}K, {dcache.associativity}-way (LRU), "
                f"{dcache.latency} cycle latency"
            ),
            "L2 cache": (
                f"{l2.size_bytes // 1024 // 1024}M, {l2.associativity}-way, unified, "
                f"{l2.latency} cycle latency"
            ),
            "Memory access latency": (
                f"{self.memory.base_latency} cycles + {self.memory.cycles_per_chunk} cycles "
                f"per {self.memory.chunk_bytes} bytes"
            ),
            "Reorder buffer size": str(self.pipeline.reorder_buffer_size),
            "LSQ size": str(self.pipeline.lsq_size),
            "Branch predictor": "2-level hybrid",
        }

    def with_icache(self, size_bytes: int, associativity: int = 1) -> "SystemConfig":
        """Return a copy with a different L1 i-cache geometry (Figure 6 sweeps)."""
        new_icache = replace(
            self.l1_icache, size_bytes=size_bytes, associativity=associativity
        )
        return replace(self, l1_icache=new_icache)


DEFAULT_SYSTEM = SystemConfig()
"""The base Table 1 configuration used by the paper's evaluation."""
