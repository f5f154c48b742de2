"""The Dynamically ResIzable instruction cache (the paper's core contribution).

A :class:`DRIICache` behaves exactly like a conventional i-cache of its
full size until it decides, at a sense-interval boundary, to change the
number of active sets:

* **downsizing** disables the highest-numbered sets in powers of two; the
  gated-Vdd transistors of those sets are turned off, so their contents
  are lost (modelled as invalidation) and they stop dissipating leakage;
* **upsizing** re-enables sets; they come back empty, and blocks that now
  map to a different set simply miss once and get refetched (the i-cache
  tolerates the resulting aliases because instructions are read-only,
  Section 2.2).

Lookups always compare the tag of the *smallest allowed size* (regular
tag + resizing tag bits), so the surviving blocks remain valid across
downsizing without any flush or block migration.

The cache counts its accesses and misses per sense interval and consults a
:class:`~repro.dri.controller.ResizeController` at every boundary; all
statistics needed by the Section 5.2 energy formulas are accumulated in a
:class:`~repro.dri.stats.DRIStatistics`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config.parameters import DRIParameters
from repro.config.system import CacheGeometry
from repro.dri.controller import ResizeController, ResizeOutcome
from repro.dri.mask import SizeMask
from repro.dri.stats import DRIStatistics
from repro.dri.throttle import ResizeDecision
from repro.memory.cache import AccessResult, Cache
from repro.memory.kernels.dri_fused import (
    C_INVALIDATIONS,
    C_L1_EVICTIONS,
    C_L1_MISSES,
    C_L2_EVICTIONS,
    C_L2_HITS,
    C_L2_MISSES,
    COUNTER_SIZE,
    DECISION_NAMES,
    REC_ACCESSES,
    REC_COLUMNS,
    REC_DECISION,
    REC_MISSES,
    REC_SIZE_AT_END,
    REC_SIZE_DURING,
    REC_THROTTLED,
    RUN_FILL,
    RUN_MISSES,
    RUN_SIZE,
    RUN_STATE_SIZE,
    fused_dri_chunk,
)


class DRIICache(Cache):
    """A dynamically resizable, gated-Vdd instruction cache.

    Parameters
    ----------
    geometry:
        Full-size geometry (the conventional cache it replaces).
    parameters:
        Adaptivity parameters (miss-bound, size-bound, interval, divisibility).
    name:
        Label for statistics reports.
    auto_interval:
        If true (default) the cache evaluates the resize decision by itself
        whenever the interval's accesses cover ``parameters.sense_interval``
        *instructions* (each access stands for ``instructions_per_access``
        instructions); if false the driver must call :meth:`end_interval`
        explicitly.
    instructions_per_access:
        Dynamic instructions each cache access represents.  The paper
        approximates one access per instruction (the default); trace-driven
        simulation at fetch-line granularity passes the trace's
        instructions-per-line so the sense interval means *instructions* in
        both drive modes.
    policy:
        Optional :class:`~repro.dri.policies.base.ResizePolicy` instance
        overriding the one ``parameters.policy`` names in the registry.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        parameters: DRIParameters,
        name: str = "DRI-L1I",
        address_bits: int = 32,
        auto_interval: bool = True,
        instructions_per_access: int = 1,
        policy=None,
    ) -> None:
        super().__init__(geometry, name=name, replacement="lru")
        if instructions_per_access < 1:
            raise ValueError("instructions_per_access must be at least 1")
        self.parameters = parameters
        self.mask = SizeMask(geometry, parameters.size_bound, address_bits=address_bits)
        self.controller = ResizeController(parameters, self.mask, policy=policy)
        self.dri_stats = DRIStatistics(full_size_bytes=geometry.size_bytes)
        self.auto_interval = auto_interval
        self.instructions_per_access = instructions_per_access
        self._interval_length_accesses = max(
            1, parameters.sense_interval // instructions_per_access
        )
        self._interval_accesses = 0
        self._interval_misses = 0
        self._min_index_bits = self.mask.min_index_bits

    # ------------------------------------------------------------------
    # Size queries
    # ------------------------------------------------------------------
    @property
    def current_size_bytes(self) -> int:
        """The cache capacity currently powered on, in bytes."""
        return self.controller.current_size

    @property
    def current_sets(self) -> int:
        """The number of sets currently enabled."""
        return self.controller.current_sets

    @property
    def active_fraction(self) -> float:
        """Enabled capacity as a fraction of the full capacity (right now)."""
        return self.current_size_bytes / self.geometry.size_bytes

    @property
    def resizing_tag_bits(self) -> int:
        """Extra tag bits stored to support downsizing to the size-bound."""
        return self.mask.resizing_tag_bits

    @property
    def interval_length_accesses(self) -> int:
        """Sense-interval length in accesses (the one conversion from the
        instruction-denominated ``sense_interval``; drivers align on this)."""
        return self._interval_length_accesses

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def access(self, address: int) -> AccessResult:
        """Fetch lookup with the current size mask and min-size tags."""
        block = self.block_address(address)
        set_index = block & (self.controller.current_sets - 1)
        tag = block >> self._min_index_bits
        result = self._access_set(set_index, tag)
        self.dri_stats.record_access(result.hit)
        self._interval_accesses += 1
        if not result.hit:
            self._interval_misses += 1
        if self.auto_interval and self._interval_accesses >= self._interval_length_accesses:
            self.end_interval()
        return result

    def _access_batch_chunks(self, addresses: np.ndarray, kernel: bool = False) -> np.ndarray:
        """Vectorised lookup under the current size mask and min-size tags.

        Chunks are split internally at sense-interval boundaries (in auto
        mode) so batched and scalar driving see identical interval counts
        and resize points; the active set count is re-read after every
        boundary because a resize may have changed it.  The classification
        itself is the base cache's (direct-mapped or wavefront
        set-associative, or the compiled kernel when ``kernel=True``)
        over the masked indices.
        """
        total = addresses.shape[0]
        hits = np.empty(total, dtype=bool)
        position = 0
        while position < total:
            if self.auto_interval and self._interval_accesses >= self._interval_length_accesses:
                self.end_interval()
            take = total - position
            if self.auto_interval:
                take = min(take, self._interval_length_accesses - self._interval_accesses)
            chunk = addresses[position : position + take]
            block = (chunk >> np.uint64(self._offset_bits)).astype(np.int64)
            set_indices = block & (self.controller.current_sets - 1)
            tags = block >> self._min_index_bits
            chunk_hits = self._classify_chunk(set_indices, tags, kernel=kernel)
            misses = take - int(np.count_nonzero(chunk_hits))
            self.dri_stats.record_accesses(take, misses)
            self._interval_accesses += take
            self._interval_misses += misses
            hits[position : position + take] = chunk_hits
            position += take
            if self.auto_interval and self._interval_accesses >= self._interval_length_accesses:
                self.end_interval()
        return hits

    def fused_chunk(self, addresses: np.ndarray, hierarchy, instructions_per_line: Optional[int] = None):
        """Replay one trace chunk through the fused DRI kernel.

        One compiled call (:func:`repro.memory.kernels.dri_fused.fused_dri_chunk`)
        covers classification, the L2 drain, every interval boundary the
        chunk crosses — decision, throttle, set gating — and the interval
        bookkeeping; this method only merges the kernel's counter and
        record arrays into the Python-side statistics afterwards, once
        per chunk.  The open interval carries across calls through the
        cache's interval counters, so chunk cuts need not align with
        sense intervals.  Returns ``(l2_hits, l2_misses)`` exactly as
        :meth:`~repro.memory.hierarchy.MemoryHierarchy.access_batch_from_l1_misses`
        would for the chunk's miss stream.

        The caller is responsible for eligibility, which
        :func:`~repro.simulation.engine.engine_for_run` decides: an L2
        block at least as large as the L1's and a policy whose
        ``compiled_step`` matches the in-kernel rule.
        """
        if self.auto_interval:
            raise ValueError("the fused path requires auto_interval=False")
        if instructions_per_line is None:
            instructions_per_line = self.instructions_per_access
        count = int(addresses.shape[0])
        if count == 0:
            return 0, 0
        l2 = hierarchy.l2
        run_state = np.empty(RUN_STATE_SIZE, dtype=np.int64)
        run_state[RUN_SIZE] = self.controller.current_size
        run_state[RUN_FILL] = self._interval_accesses
        run_state[RUN_MISSES] = self._interval_misses
        max_records = count // self._interval_length_accesses + 2
        records = np.empty((max_records, REC_COLUMNS), dtype=np.int64)
        counters = np.zeros(COUNTER_SIZE, dtype=np.int64)
        blocks = (addresses >> np.uint64(self._offset_bits)).astype(np.int64)
        bytes_per_set = self.geometry.block_size * self.geometry.associativity
        n_records = fused_dri_chunk(
            blocks,
            self._tag_plane,
            self._policy.ranks,
            self._min_index_bits,
            bytes_per_set,
            l2._tag_plane,
            l2._policy.ranks,
            l2.geometry.offset_bits - self.geometry.offset_bits,
            l2.num_sets - 1,
            l2.num_sets.bit_length() - 1,
            self.controller.ladder,
            self.controller.throttle.state,
            run_state,
            self._interval_length_accesses,
            self.controller.policy.compiled_step().miss_bound,
            self.parameters.throttle.saturation_value,
            self.parameters.throttle.hold_intervals,
            records,
            counters,
        )
        n_records = int(n_records)
        l1_misses = int(counters[C_L1_MISSES])
        l2_hits = int(counters[C_L2_HITS])
        l2_misses = int(counters[C_L2_MISSES])

        # L1 statistics: one bulk update, exactly what the chunked
        # engines accumulate access by access.
        self.stats.accesses += count
        self.stats.hits += count - l1_misses
        self.stats.misses += l1_misses
        self.stats.evictions += int(counters[C_L1_EVICTIONS])
        self.stats.invalidations += int(counters[C_INVALIDATIONS])
        self.dri_stats.record_accesses(count, l1_misses)

        # L2/memory statistics, as access_batch_from_l1_misses records them.
        l2.stats.accesses += l1_misses
        l2.stats.hits += l2_hits
        l2.stats.misses += l2_misses
        l2.stats.evictions += int(counters[C_L2_EVICTIONS])
        hierarchy.l2_accesses += l1_misses
        hierarchy.l2_misses += l2_misses
        hierarchy.memory.accesses += l2_misses

        # Interval records: bit-identical to what end_interval would have
        # recorded at each boundary.
        if n_records:
            closed = records[:n_records]
            rec_accesses = [int(value) for value in closed[:, REC_ACCESSES]]
            self.dri_stats.record_intervals_batch(
                instructions=[a * instructions_per_line for a in rec_accesses],
                accesses=rec_accesses,
                misses=[int(value) for value in closed[:, REC_MISSES]],
                sizes_during=[int(value) for value in closed[:, REC_SIZE_DURING]],
                sizes_at_end=[int(value) for value in closed[:, REC_SIZE_AT_END]],
                resized=[
                    DECISION_NAMES[int(code)] if during != at_end else "none"
                    for code, during, at_end in zip(
                        closed[:, REC_DECISION],
                        closed[:, REC_SIZE_DURING],
                        closed[:, REC_SIZE_AT_END],
                    )
                ],
                throttled=[bool(value) for value in closed[:, REC_THROTTLED]],
            )
            self.controller.adopt_fused(int(run_state[RUN_SIZE]), n_records)
        self._interval_accesses = int(run_state[RUN_FILL])
        self._interval_misses = int(run_state[RUN_MISSES])
        return l2_hits, l2_misses

    def contains(self, address: int) -> bool:
        """True if the block is resident under the *current* mapping."""
        block = self.block_address(address)
        set_index = block & (self.controller.current_sets - 1)
        tag = block >> self._min_index_bits
        return bool((self._tag_plane[set_index] == tag).any())

    # ------------------------------------------------------------------
    # Interval handling
    # ------------------------------------------------------------------
    def end_interval(self, instructions: Optional[int] = None) -> ResizeOutcome:
        """Close the current sense interval and apply the resize decision.

        ``instructions`` defaults to the interval's access count times
        ``instructions_per_access`` (with the default of one access per
        instruction this is the paper's approximation).
        """
        accesses = self._interval_accesses
        misses = self._interval_misses
        if instructions is None:
            instructions = accesses * self.instructions_per_access
        size_during = self.controller.current_size
        outcome = self.controller.end_of_interval(
            misses, accesses=accesses, instructions=instructions
        )
        if outcome.decision is ResizeDecision.DOWNSIZE and outcome.changed:
            self._disable_sets(outcome.new_size)
        self.dri_stats.record_interval(
            instructions=instructions,
            accesses=accesses,
            misses=misses,
            size_bytes_during=size_during,
            size_bytes_at_end=outcome.new_size,
            resized=outcome.decision.value if outcome.changed else "none",
            throttled=outcome.throttled,
        )
        self._interval_accesses = 0
        self._interval_misses = 0
        return outcome

    def _disable_sets(self, new_size: int) -> None:
        """Invalidate the sets being gated off by a downsize to ``new_size``."""
        self.invalidate_range(self.mask.sets_for_size(new_size), self.num_sets)

    # ------------------------------------------------------------------
    # Run finalisation
    # ------------------------------------------------------------------
    def finalize(self, instructions: Optional[int] = None) -> None:
        """Flush a partial final interval into the statistics (no resize)."""
        if self._interval_accesses == 0:
            return
        accesses = self._interval_accesses
        misses = self._interval_misses
        if instructions is None:
            instructions = accesses * self.instructions_per_access
        self.dri_stats.record_interval(
            instructions=instructions,
            accesses=accesses,
            misses=misses,
            size_bytes_during=self.controller.current_size,
            size_bytes_at_end=self.controller.current_size,
            resized="none",
        )
        self._interval_accesses = 0
        self._interval_misses = 0

    def reset(self) -> None:
        """Return to full size, drop all contents, and zero all statistics."""
        self.flush()
        self.stats.reset()
        self.controller.reset()
        self.dri_stats = DRIStatistics(full_size_bytes=self.geometry.size_bytes)
        self._interval_accesses = 0
        self._interval_misses = 0
