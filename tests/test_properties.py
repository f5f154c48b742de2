"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.parameters import DRIParameters
from repro.config.system import CacheGeometry
from repro.dri.dri_cache import DRIICache
from repro.dri.mask import SizeMask
from repro.energy.model import EnergyModel, RunStatistics
from repro.memory.cache import Cache
from repro.memory.replacement import LRUState

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
cache_size_exponents = st.integers(min_value=9, max_value=14)  # 512B .. 16K
addresses = st.integers(min_value=0, max_value=2**32 - 1)
address_lists = st.lists(addresses, min_size=1, max_size=300)


def geometry_from(exponent: int, associativity: int = 1) -> CacheGeometry:
    return CacheGeometry(size_bytes=1 << exponent, block_size=32, associativity=associativity)


# ----------------------------------------------------------------------
# Generic cache invariants
# ----------------------------------------------------------------------
class TestCacheProperties:
    @given(exponent=cache_size_exponents, assoc_log=st.integers(0, 2), trace=address_lists)
    @settings(max_examples=50, deadline=None)
    def test_capacity_and_counter_invariants(self, exponent, assoc_log, trace):
        cache = Cache(geometry_from(exponent, 1 << assoc_log))
        for address in trace:
            cache.access(address)
        assert cache.resident_blocks() <= cache.geometry.num_blocks
        assert cache.stats.hits + cache.stats.misses == cache.stats.accesses
        assert 0.0 <= cache.stats.miss_rate <= 1.0

    @given(trace=address_lists)
    @settings(max_examples=30, deadline=None)
    def test_immediate_reaccess_always_hits(self, trace):
        cache = Cache(geometry_from(12))
        for address in trace:
            cache.access(address)
            assert cache.access(address).hit

    @given(exponent=cache_size_exponents, trace=address_lists)
    @settings(max_examples=30, deadline=None)
    def test_direct_mapped_matches_reference_model(self, exponent, trace):
        """The direct-mapped cache agrees with a dictionary reference model."""
        cache = Cache(geometry_from(exponent, 1))
        reference = {}
        for address in trace:
            block = address >> 5
            index = block % cache.num_sets
            hit = reference.get(index) == block
            assert cache.access(address).hit == hit
            reference[index] = block


class TestLRUProperties:
    @given(
        associativity_log=st.integers(0, 3),
        touches=st.lists(st.integers(0, 7), min_size=1, max_size=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_victim_is_always_least_recent(self, associativity_log, touches):
        associativity = 1 << associativity_log
        state = LRUState(num_sets=1, associativity=associativity)
        recency = list(range(associativity))  # reference: most recent first
        for touch in touches:
            way = touch % associativity
            state.touch_one(0, way)
            recency.remove(way)
            recency.insert(0, way)
            assert state.victim_one(0) == recency[-1]


# ----------------------------------------------------------------------
# Size mask invariants
# ----------------------------------------------------------------------
class TestSizeMaskProperties:
    @given(
        full_exp=st.integers(min_value=12, max_value=17),
        bound_exp=st.integers(min_value=10, max_value=17),
        block=st.integers(min_value=0, max_value=2**27 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_tag_plus_min_index_reconstructs_block(self, full_exp, bound_exp, block):
        bound_exp = min(bound_exp, full_exp)
        mask = SizeMask(CacheGeometry(size_bytes=1 << full_exp, block_size=32), 1 << bound_exp)
        tag = mask.tag(block)
        min_index = block & (mask.min_sets - 1)
        assert (tag << mask.min_index_bits) | min_index == block

    @given(
        full_exp=st.integers(min_value=12, max_value=17),
        bound_exp=st.integers(min_value=10, max_value=17),
    )
    @settings(max_examples=50, deadline=None)
    def test_resizing_bits_consistent_with_sizes(self, full_exp, bound_exp):
        bound_exp = min(bound_exp, full_exp)
        mask = SizeMask(CacheGeometry(size_bytes=1 << full_exp, block_size=32), 1 << bound_exp)
        assert mask.resizing_tag_bits == full_exp - bound_exp
        sizes = mask.allowed_sizes(2)
        assert sizes[0] == 1 << bound_exp and sizes[-1] == 1 << full_exp
        assert all(b % a == 0 for a, b in zip(sizes, sizes[1:]))


# ----------------------------------------------------------------------
# DRI cache invariants
# ----------------------------------------------------------------------
class TestDRICacheProperties:
    @given(
        trace=st.lists(st.integers(min_value=0, max_value=2**20 - 1), min_size=20, max_size=400),
        miss_bound=st.integers(min_value=0, max_value=50),
        bound_exp=st.integers(min_value=10, max_value=13),
    )
    @settings(max_examples=40, deadline=None)
    def test_size_always_within_bounds_and_power_of_two(self, trace, miss_bound, bound_exp):
        geometry = CacheGeometry(size_bytes=8 * 1024, block_size=32)
        size_bound = 1 << min(bound_exp, 13)
        parameters = DRIParameters(miss_bound=miss_bound, size_bound=size_bound, sense_interval=64)
        cache = DRIICache(geometry, parameters, auto_interval=True)
        for address in trace:
            cache.access(address)
            size = cache.current_size_bytes
            assert size_bound <= size <= geometry.size_bytes
            assert size & (size - 1) == 0
        cache.finalize()
        assert 0.0 < cache.dri_stats.average_size_fraction <= 1.0
        assert cache.dri_stats.accesses == len(trace)

    @given(trace=st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_resident_blocks_never_exceed_active_capacity(self, trace):
        geometry = CacheGeometry(size_bytes=4 * 1024, block_size=32)
        parameters = DRIParameters(miss_bound=5, size_bound=1024, sense_interval=32)
        cache = DRIICache(geometry, parameters, auto_interval=True)
        for address in trace:
            cache.access(address)
            active_blocks = cache.current_sets * geometry.associativity
            assert cache.resident_blocks() <= max(
                active_blocks, cache.geometry.num_blocks // 1
            )
            # Blocks never live in gated-off sets.
            for set_index in range(cache.current_sets, cache.num_sets):
                assert cache.set_tags(set_index) == ()


# ----------------------------------------------------------------------
# Energy model invariants
# ----------------------------------------------------------------------
class TestEnergyProperties:
    @given(
        cycles=st.integers(min_value=1, max_value=10**8),
        active_fraction=st.floats(min_value=0.0, max_value=1.0),
        bits=st.integers(min_value=0, max_value=8),
        extra_l2=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_breakdown_components_non_negative_and_consistent(
        self, cycles, active_fraction, bits, extra_l2
    ):
        model = EnergyModel()
        stats = RunStatistics(
            cycles=cycles,
            l1_accesses=cycles,
            active_fraction=active_fraction,
            resizing_tag_bits=bits,
            extra_l2_accesses=extra_l2,
        )
        breakdown = model.breakdown(stats)
        assert breakdown.l1_leakage_nj >= 0.0
        assert breakdown.extra_l1_dynamic_nj >= 0.0
        assert breakdown.extra_l2_dynamic_nj >= 0.0
        upper_bound = breakdown.conventional_leakage_nj + (
            breakdown.extra_l1_dynamic_nj + breakdown.extra_l2_dynamic_nj
        )
        assert breakdown.effective_leakage_nj <= upper_bound * (1.0 + 1e-12) + 1e-9
        assert breakdown.savings_fraction <= 1.0
        assert 0.0 <= breakdown.dynamic_fraction <= 1.0

    @given(
        active_small=st.floats(min_value=0.01, max_value=0.5),
        active_large=st.floats(min_value=0.5, max_value=1.0),
        cycles=st.integers(min_value=1000, max_value=10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_smaller_active_fraction_never_costs_more_leakage(
        self, active_small, active_large, cycles
    ):
        model = EnergyModel()

        def leakage(fraction: float) -> float:
            return model.l1_leakage_nj(
                RunStatistics(
                    cycles=cycles,
                    l1_accesses=cycles,
                    active_fraction=fraction,
                    resizing_tag_bits=0,
                    extra_l2_accesses=0,
                )
            )

        assert leakage(active_small) <= leakage(active_large) + 1e-9
