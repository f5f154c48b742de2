"""Cache and memory-hierarchy substrate."""

from repro.memory.cache import AccessResult, Cache, CacheStatistics
from repro.memory.hierarchy import (
    HierarchyResponse,
    MainMemory,
    MemoryHierarchy,
    ServiceLevel,
)
from repro.memory.replacement import (
    DEFAULT_RANDOM_SEED,
    FIFOState,
    LRUState,
    RandomState,
    ReplacementState,
    make_replacement,
)

__all__ = [
    "AccessResult",
    "Cache",
    "CacheStatistics",
    "HierarchyResponse",
    "MainMemory",
    "MemoryHierarchy",
    "ServiceLevel",
    "DEFAULT_RANDOM_SEED",
    "FIFOState",
    "LRUState",
    "RandomState",
    "ReplacementState",
    "make_replacement",
]
