"""The memory hierarchy below the L1 i-cache.

The paper's system (Table 1) has a 64K 2-way L1 d-cache, a 1M 4-way
unified L2, and main memory at 80 cycles + 4 cycles per 8 bytes.  The DRI
evaluation cares about the hierarchy for two reasons:

* every extra L1 i-cache miss becomes an **extra L2 access**, which costs
  3.6 nJ of dynamic energy and adds latency, and
* L2 misses go to main memory with a large latency that the out-of-order
  core only partially hides.

:class:`MemoryHierarchy` wires the pieces together and returns, per
instruction-fetch or data access, the latency the requesting core observes
and which level serviced the request.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from repro.config.system import MemoryTiming, SystemConfig
from repro.memory.cache import Cache


class ServiceLevel(Enum):
    """Which level of the hierarchy serviced an access."""

    L1 = "l1"
    L2 = "l2"
    MEMORY = "memory"


@dataclass(frozen=True)
class HierarchyResponse:
    """Outcome of one access below the L1: latency and servicing level."""

    latency: int
    level: ServiceLevel


class MainMemory:
    """Main memory: always hits, with the Table 1 latency formula."""

    def __init__(self, timing: MemoryTiming) -> None:
        self.timing = timing
        self.accesses = 0

    def access(self, size_bytes: int) -> int:
        """Access ``size_bytes``; returns the latency in cycles."""
        self.accesses += 1
        return self.timing.access_latency(size_bytes)


class MemoryHierarchy:
    """The L2 + main-memory portion of the hierarchy shared by both caches.

    The L1 i-cache (conventional or DRI) and the L1 d-cache sit above this
    object; they call :meth:`access_from_l1_miss` whenever they miss.
    """

    def __init__(self, system: SystemConfig, name: str = "hierarchy") -> None:
        self.system = system
        self.name = name
        self.l2 = Cache(system.l2_cache, name="L2", replacement="lru")
        self.memory = MainMemory(system.memory)
        self.l2_accesses = 0
        self.l2_misses = 0

    def access_from_l1_miss(self, address: int) -> HierarchyResponse:
        """Service an L1 miss: probe the L2, then main memory on an L2 miss.

        The returned latency is the additional delay beyond the L1 hit
        latency: the L2 latency on an L2 hit, plus the memory transfer
        latency for one L2 block on an L2 miss.
        """
        self.l2_accesses += 1
        result = self.l2.access(address)
        latency = self.system.l2_cache.latency
        if result.hit:
            return HierarchyResponse(latency=latency, level=ServiceLevel.L2)
        self.l2_misses += 1
        latency += self.memory.access(self.system.l2_cache.block_size)
        return HierarchyResponse(latency=latency, level=ServiceLevel.MEMORY)

    def access_batch_from_l1_misses(
        self, addresses: np.ndarray, kernel: bool = False
    ) -> Tuple[int, int]:
        """Service a chunk of L1 misses; returns ``(l2_hits, l2_misses)``.

        Bit-identical to calling :meth:`access_from_l1_miss` on each
        address in order — the L2 is classified through its own vectorised
        :meth:`~repro.memory.cache.Cache.access_batch` (the 4-way unified
        L2 takes the wavefront path, or the compiled kernel when
        ``kernel=True``), and each L2 miss costs one main memory access
        of one L2 block, so only the counts are needed to reproduce the
        scalar latency accounting.
        """
        count = int(addresses.shape[0])
        if count == 0:
            return 0, 0
        hits = self.l2.access_batch(addresses, kernel=kernel)
        l2_hits = int(np.count_nonzero(hits))
        l2_misses = count - l2_hits
        self.l2_accesses += count
        self.l2_misses += l2_misses
        self.memory.accesses += l2_misses
        return l2_hits, l2_misses

    @property
    def l2_miss_rate(self) -> float:
        """L2 misses per L2 access."""
        if self.l2_accesses == 0:
            return 0.0
        return self.l2_misses / self.l2_accesses

    def reset_statistics(self) -> None:
        """Zero the hierarchy's counters without dropping cache contents."""
        self.l2.stats.reset()
        self.l2_accesses = 0
        self.l2_misses = 0
        self.memory.accesses = 0
