"""Replacement strategies over the dense tag-plane substrate.

The paper's caches use LRU (Table 1 lists the L1 d-cache as "2-way
(LRU)"); FIFO and random strategies are provided for ablation studies.

Unlike the classic one-policy-object-per-set design, a strategy here is a
single object per *cache* that keeps the victim-selection state for every
set in dense numpy arrays parallel to the cache's ``(num_sets,
associativity)`` tag plane:

* **LRU** — a ``(num_sets, associativity)`` array of recency ranks
  (0 = most recently used, ``associativity - 1`` = victim);
* **FIFO** — a ``(num_sets,)`` array of next-victim way pointers;
* **random** — a ``(num_sets,)`` array of per-set linear-congruential
  generator states (deterministic for a given seed, so simulations stay
  reproducible without touching Python's global random state).

The per-access methods (``touch_one`` / ``fill_one`` / ``victim_one``)
drive the scalar reference path, :meth:`repro.memory.cache.Cache.access`.
The batched classifier of :meth:`repro.memory.cache.Cache.access_batch`
uses two others:

* its wavefronts work on *work arrays*: it calls ``gather`` once per
  chunk to pull the state of every touched set into a compact array
  (ordered so each wavefront is a contiguous prefix), drives the
  wavefronts through ``victims_block`` / ``update_block``, and calls
  ``scatter`` once at the end to write the state back.  Rows of a work
  array always correspond to *distinct* sets, which the classifier
  guarantees by construction;
* its tail (the few hot sets left when the wavefronts grow narrow) calls
  ``finish_set`` once per set: the set's tag row and policy state are
  loaded once as plain Python values (an LRU recency list, a FIFO
  next-way int, an LCG int), its remaining probes run in order in a
  plain-list loop, and both are stored back once.

``reset_range`` restores a span of sets to the exact state of a freshly
constructed strategy (used when the DRI i-cache gates sets off).  The
random strategy resets to its *configured* seed, not the default — the
legacy per-set policy objects reset via ``self.__init__(associativity)``
and silently dropped a custom seed.
"""

from __future__ import annotations

import abc
from typing import List, Tuple

import numpy as np

DEFAULT_RANDOM_SEED = 12345
"""Seed of the per-set LCGs when the cache does not configure one."""

_LCG_MULTIPLIER = 1103515245
_LCG_INCREMENT = 12345
_LCG_MASK = 0x7FFFFFFF


class ReplacementState(abc.ABC):
    """Victim-selection state for every set of one cache.

    The work-array methods must be bit-identical to applying the
    corresponding ``*_one`` methods per access: a round trip of ``gather``
    → per-wavefront ``victims_block`` (full sets only) + ``update_block``
    → ``scatter`` leaves exactly the state the scalar path would.  So must
    ``finish_set``: it equals one ``Cache._probe_set`` per tag, in the
    hit outcomes, the eviction count, the tag row and the policy state.
    """

    name: str = "abstract"

    def __init__(self, num_sets: int, associativity: int) -> None:
        if num_sets < 1:
            raise ValueError("num_sets must be at least 1")
        if associativity < 1:
            raise ValueError("associativity must be at least 1")
        self.num_sets = num_sets
        self.associativity = associativity

    # ------------------------------------------------------------------
    # Scalar path (one access)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def touch_one(self, set_index: int, way: int) -> None:
        """Record a hit on ``way`` of ``set_index``."""

    @abc.abstractmethod
    def fill_one(self, set_index: int, way: int) -> None:
        """Record that ``way`` of ``set_index`` was filled with a new block."""

    @abc.abstractmethod
    def victim_one(self, set_index: int) -> int:
        """The way ``set_index`` would evict next (advances any PRNG state)."""

    # ------------------------------------------------------------------
    # Batched path (work arrays over distinct sets)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def gather(self, sets: np.ndarray) -> np.ndarray:
        """Copy the state of the distinct ``sets`` into a work array
        (row i holds ``sets[i]``'s state)."""

    @abc.abstractmethod
    def scatter(self, sets: np.ndarray, work: np.ndarray) -> None:
        """Write a work array from :meth:`gather` back to the same ``sets``."""

    @abc.abstractmethod
    def victims_block(self, work: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Victim ways for the work rows ``indices`` (all of them full
        sets); advances any PRNG state in the work array."""

    @abc.abstractmethod
    def update_block(
        self, work: np.ndarray, active: int, ways: np.ndarray, hit_mask: np.ndarray
    ) -> None:
        """Close one wavefront: work rows ``0..active`` each serviced one
        access on ``ways[i]``, a hit where ``hit_mask[i]`` and a fill
        elsewhere."""

    @abc.abstractmethod
    def finish_set(
        self, set_index: int, row: np.ndarray, tags: List[int]
    ) -> Tuple[List[bool], int]:
        """Run ``tags`` in order against ``set_index``, whose tag-plane row
        is ``row`` (a writable view): look up, fill on a miss (an empty
        frame first, else the policy's victim) and update the policy.
        Returns the per-probe hit flags and the number of evictions."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def reset_range(self, start: int, stop: int) -> None:
        """Restore sets ``start..stop`` to the freshly-constructed state."""

    def reset_one(self, set_index: int) -> None:
        """Restore one set to the freshly-constructed state."""
        self.reset_range(set_index, set_index + 1)

    def reset_all(self) -> None:
        """Restore every set to the freshly-constructed state."""
        self.reset_range(0, self.num_sets)


class LRUState(ReplacementState):
    """Least-recently-used replacement.

    ``ranks[s, w]`` is way ``w``'s position in set ``s``'s recency order
    (0 = most recent); each row is always a permutation of
    ``0..associativity-1``, and the victim is the way with the maximum
    rank.  A fresh set ranks way 0 most recent, matching the historical
    per-set order ``[0, 1, ..., associativity - 1]``.
    """

    name = "lru"

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        self.ranks = np.tile(np.arange(associativity, dtype=np.int64), (num_sets, 1))

    def touch_one(self, set_index: int, way: int) -> None:
        row = self.ranks[set_index]
        rank = row[way]
        if rank == 0:  # already most recent (always, when direct-mapped)
            return
        row[row < rank] += 1
        row[way] = 0

    fill_one = touch_one

    def victim_one(self, set_index: int) -> int:
        return int(self.ranks[set_index].argmax())

    def gather(self, sets: np.ndarray) -> np.ndarray:
        return self.ranks[sets]

    def scatter(self, sets: np.ndarray, work: np.ndarray) -> None:
        self.ranks[sets] = work

    def victims_block(self, work: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return work[indices].argmax(axis=1)

    def update_block(
        self, work: np.ndarray, active: int, ways: np.ndarray, hit_mask: np.ndarray
    ) -> None:
        # Hits and fills both promote the used way to most-recent.
        rows = work[:active]
        positions = np.arange(active)
        ranks = rows[positions, ways]
        rows += rows < ranks[:, None]
        rows[positions, ways] = 0

    def finish_set(
        self, set_index: int, row: np.ndarray, tags: List[int]
    ) -> Tuple[List[bool], int]:
        ways = row.tolist()
        ranks = self.ranks[set_index]
        rank_of = ranks.tolist()
        # The set's ways from most to least recent: a touch or fill moves
        # a way to the front, and the victim is the last one.
        recency = rank_of[:]
        for way, rank in enumerate(rank_of):
            recency[rank] = way
        hits = []
        evictions = 0
        for tag in tags:
            if tag in ways:
                hits.append(True)
                way = ways.index(tag)
            else:
                hits.append(False)
                if -1 in ways:
                    way = ways.index(-1)
                else:
                    way = recency[-1]
                    evictions += 1
                ways[way] = tag
            if recency[0] != way:
                recency.remove(way)
                recency.insert(0, way)
        for rank, way in enumerate(recency):
            rank_of[way] = rank
        row[:] = ways
        ranks[:] = rank_of
        return hits, evictions

    def reset_range(self, start: int, stop: int) -> None:
        self.ranks[start:stop] = np.arange(self.associativity, dtype=np.int64)


class FIFOState(ReplacementState):
    """First-in-first-out replacement: hits do not update the order."""

    name = "fifo"

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        self.next_way = np.zeros(num_sets, dtype=np.int64)

    def touch_one(self, set_index: int, way: int) -> None:
        """Hits do not affect FIFO order."""

    def fill_one(self, set_index: int, way: int) -> None:
        self.next_way[set_index] = (way + 1) % self.associativity

    def victim_one(self, set_index: int) -> int:
        return int(self.next_way[set_index])

    def gather(self, sets: np.ndarray) -> np.ndarray:
        return self.next_way[sets]

    def scatter(self, sets: np.ndarray, work: np.ndarray) -> None:
        self.next_way[sets] = work

    def victims_block(self, work: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return work[indices]

    def update_block(
        self, work: np.ndarray, active: int, ways: np.ndarray, hit_mask: np.ndarray
    ) -> None:
        # Only fills rotate the pointer; hits leave FIFO order alone.
        fills = np.nonzero(~hit_mask)[0]
        if fills.size:
            work[fills] = (ways[fills] + 1) % self.associativity

    def finish_set(
        self, set_index: int, row: np.ndarray, tags: List[int]
    ) -> Tuple[List[bool], int]:
        ways = row.tolist()
        next_way = int(self.next_way[set_index])
        hits = []
        evictions = 0
        for tag in tags:
            if tag in ways:
                hits.append(True)
                continue
            hits.append(False)
            if -1 in ways:
                way = ways.index(-1)
            else:
                way = next_way
                evictions += 1
            ways[way] = tag
            next_way = (way + 1) % self.associativity
        row[:] = ways
        self.next_way[set_index] = next_way
        return hits, evictions

    def reset_range(self, start: int, stop: int) -> None:
        self.next_way[start:stop] = 0


class RandomState(ReplacementState):
    """Pseudo-random replacement using per-set linear-congruential generators.

    Each set owns an LCG state; picking a victim advances only that set's
    state, so the victim stream of one set is independent of how other
    sets are exercised — exactly the behaviour of the historical
    one-policy-object-per-set design.
    """

    name = "random"

    def __init__(
        self, num_sets: int, associativity: int, seed: int = DEFAULT_RANDOM_SEED
    ) -> None:
        super().__init__(num_sets, associativity)
        self.seed = (seed & _LCG_MASK) or 1
        self.states = np.full(num_sets, self.seed, dtype=np.int64)

    def touch_one(self, set_index: int, way: int) -> None:
        """Hits do not affect random replacement."""

    def fill_one(self, set_index: int, way: int) -> None:
        """Fills do not affect random replacement."""

    def victim_one(self, set_index: int) -> int:
        state = (_LCG_MULTIPLIER * int(self.states[set_index]) + _LCG_INCREMENT) & _LCG_MASK
        self.states[set_index] = state
        return state % self.associativity

    def gather(self, sets: np.ndarray) -> np.ndarray:
        return self.states[sets]

    def scatter(self, sets: np.ndarray, work: np.ndarray) -> None:
        self.states[sets] = work

    def victims_block(self, work: np.ndarray, indices: np.ndarray) -> np.ndarray:
        # States stay below 2**31, so the multiply fits comfortably in int64.
        states = (_LCG_MULTIPLIER * work[indices] + _LCG_INCREMENT) & _LCG_MASK
        work[indices] = states
        return states % self.associativity

    def update_block(
        self, work: np.ndarray, active: int, ways: np.ndarray, hit_mask: np.ndarray
    ) -> None:
        """Neither hits nor fills affect random replacement."""

    def finish_set(
        self, set_index: int, row: np.ndarray, tags: List[int]
    ) -> Tuple[List[bool], int]:
        ways = row.tolist()
        state = int(self.states[set_index])
        hits = []
        evictions = 0
        for tag in tags:
            if tag in ways:
                hits.append(True)
                continue
            hits.append(False)
            if -1 in ways:
                way = ways.index(-1)
            else:
                state = (_LCG_MULTIPLIER * state + _LCG_INCREMENT) & _LCG_MASK
                way = state % self.associativity
                evictions += 1
            ways[way] = tag
        row[:] = ways
        self.states[set_index] = state
        return hits, evictions

    def reset_range(self, start: int, stop: int) -> None:
        self.states[start:stop] = self.seed


STRATEGY_FACTORIES = {
    "lru": LRUState,
    "fifo": FIFOState,
    "random": RandomState,
}


def make_replacement(
    name: str,
    num_sets: int,
    associativity: int,
    seed: int = DEFAULT_RANDOM_SEED,
) -> ReplacementState:
    """Create a cache-wide replacement strategy by name ("lru", "fifo", "random")."""
    try:
        factory = STRATEGY_FACTORIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; expected one of {sorted(STRATEGY_FACTORIES)}"
        ) from None
    if factory is RandomState:
        return RandomState(num_sets, associativity, seed=seed)
    return factory(num_sets, associativity)
