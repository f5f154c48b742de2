"""Tests for the compiled classification kernel layer.

The kernel layer's contract is the same bit-identity the batched engine
carries, plus two extras of its own:

* **replacement-state parity** — after a kernel chunk, the LRU ranks,
  FIFO pointers, and per-set LCG states equal the scalar oracle's, frame
  for frame (so engines can be switched mid-campaign);
* **graceful degradation** — importing :mod:`repro` never requires
  Numba, ``engine="auto"`` silently falls back to the batched engine,
  and an *explicit* ``engine="kernel"`` without Numba raises a clear
  error naming the ``[kernel]`` install extra.

``Cache.access_batch(..., kernel=True)`` bypasses the engine selector
and runs the kernel functions directly (compiled when Numba is present,
the bit-identical pure-Python fallback otherwise), which is how this
suite pins the kernel semantics in Numba-free environments too.
"""

from __future__ import annotations

import importlib
import multiprocessing
import pickle
import sys

import numpy as np
import pytest

import repro.memory.kernels.runtime as kernel_runtime
from repro.config.parameters import DRIParameters
from repro.config.system import CacheGeometry, SystemConfig
from repro.dri.dri_cache import DRIICache
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.kernels import (
    KernelUnavailableError,
    classify_chunk,
    numba_version,
)
from repro.simulation.engine import replay, resolve_engine
from repro.simulation.simulator import Simulator
from repro.simulation.sweep import ParameterSweep
from repro.workloads.generator import generate_trace
from repro.workloads.spec95 import get_benchmark

INSTRUCTIONS = 80_000
SEED = 7


def _cache_stats_tuple(stats):
    return (stats.accesses, stats.hits, stats.misses, stats.evictions, stats.invalidations)


def _interval_tuples(dri_stats):
    return [
        (
            record.index,
            record.instructions,
            record.accesses,
            record.misses,
            record.size_bytes_during,
            record.size_bytes_at_end,
            record.resized,
        )
        for record in dri_stats.intervals
    ]


def _policy_state_arrays(cache: Cache):
    """The replacement-state arrays whose parity the kernels guarantee."""
    policy = cache._policy
    arrays = {}
    for name in ("ranks", "next_way", "states"):
        value = getattr(policy, name, None)
        if value is not None:
            arrays[name] = value
    return arrays


def _assert_state_parity(kernel_cache: Cache, reference: Cache):
    a = _policy_state_arrays(kernel_cache)
    b = _policy_state_arrays(reference)
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), f"{name} diverged"


def _mixed_trace(rng, loop_lines=64, loop_repeats=40, scatter=2_000, span=2**20):
    """Scattered accesses around a hot loop: empty-way fills, policy
    victims, in-chunk reuse, and single-set pressure alike."""
    loop = np.tile(
        (rng.integers(0, span // 16, size=loop_lines, dtype=np.uint64) // 32) * 32,
        loop_repeats,
    )
    noise = (rng.integers(0, span, size=scatter, dtype=np.uint64) // 32) * 32
    return np.concatenate([noise, loop, noise])


class TestKernelClassifyEquivalence:
    """access_batch(kernel=True) against the scalar oracle, per policy."""

    @pytest.mark.parametrize("associativity", [1, 2, 4, 8])
    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_kernel_matches_scalar(self, associativity, policy):
        rng = np.random.default_rng(200 + associativity)
        addresses = _mixed_trace(rng)
        geometry = CacheGeometry(
            size_bytes=8 * 1024, block_size=32, associativity=associativity
        )
        reference = Cache(geometry, replacement=policy)
        reference_hits = np.array(
            [reference.access(address).hit for address in addresses.tolist()]
        )
        kernelled = Cache(geometry, replacement=policy)
        hits = np.concatenate(
            [
                kernelled.access_batch(chunk, kernel=True)
                for chunk in np.array_split(addresses, 5)
            ]
        )
        assert np.array_equal(hits, reference_hits)
        assert _cache_stats_tuple(kernelled.stats) == _cache_stats_tuple(reference.stats)
        assert np.array_equal(kernelled._tag_plane, reference._tag_plane)
        _assert_state_parity(kernelled, reference)

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_single_hot_set(self, policy):
        """A chunk dominated by one set (the batched engine's scalar-tail
        case) is just another in-order stretch for the kernel."""
        rng = np.random.default_rng(23)
        geometry = CacheGeometry(size_bytes=2 * 1024, block_size=32, associativity=4)
        tags = rng.integers(0, 9, size=4_000, dtype=np.uint64)
        addresses = (tags << np.uint64(9)) | np.uint64(3 << 5)
        reference = Cache(geometry, replacement=policy)
        reference_hits = np.array(
            [reference.access(address).hit for address in addresses.tolist()]
        )
        kernelled = Cache(geometry, replacement=policy)
        hits = kernelled.access_batch(addresses, kernel=True)
        assert np.array_equal(hits, reference_hits)
        assert _cache_stats_tuple(kernelled.stats) == _cache_stats_tuple(reference.stats)
        assert np.array_equal(kernelled._tag_plane, reference._tag_plane)
        _assert_state_parity(kernelled, reference)

    def test_kernel_chunking_is_invariant(self):
        rng = np.random.default_rng(13)
        addresses = _mixed_trace(rng)
        geometry = CacheGeometry(size_bytes=4 * 1024, block_size=32, associativity=4)
        whole = Cache(geometry)
        hits_whole = whole.access_batch(addresses, kernel=True)
        pieces = Cache(geometry)
        collected = [
            pieces.access_batch(chunk, kernel=True)
            for chunk in np.array_split(addresses, 7)
        ]
        assert np.array_equal(hits_whole, np.concatenate(collected))
        assert _cache_stats_tuple(whole.stats) == _cache_stats_tuple(pieces.stats)
        _assert_state_parity(whole, pieces)

    def test_kernel_and_batched_interoperate(self):
        """Chunks can alternate between the kernel and the numpy
        classifiers mid-stream: the shared state arrays stay coherent."""
        rng = np.random.default_rng(17)
        addresses = _mixed_trace(rng)
        geometry = CacheGeometry(size_bytes=4 * 1024, block_size=32, associativity=4)
        reference = Cache(geometry)
        reference.access_batch(addresses)
        mixed = Cache(geometry)
        for index, chunk in enumerate(np.array_split(addresses, 6)):
            mixed.access_batch(chunk, kernel=bool(index % 2))
        assert _cache_stats_tuple(mixed.stats) == _cache_stats_tuple(reference.stats)
        assert np.array_equal(mixed._tag_plane, reference._tag_plane)
        _assert_state_parity(mixed, reference)

    def test_classify_chunk_rejects_unknown_policy(self):
        plane = np.full((4, 2), -1, dtype=np.int64)
        with pytest.raises(TypeError):
            classify_chunk(
                np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), plane, object()
            )

    def test_dri_masked_index_path(self):
        """The DRI cache's masked indices and min-size tags flow through
        the kernel with intervals split exactly as the scalar path's."""
        rng = np.random.default_rng(19)
        addresses = _mixed_trace(rng, span=2**18)
        geometry = CacheGeometry(size_bytes=8 * 1024, block_size=32, associativity=1)
        parameters = DRIParameters(miss_bound=20, size_bound=1024, sense_interval=300)
        reference = DRIICache(geometry, parameters, auto_interval=True)
        for address in addresses.tolist():
            reference.access(address)
        kernelled = DRIICache(geometry, parameters, auto_interval=True)
        kernelled.access_batch(addresses, kernel=True)
        assert _cache_stats_tuple(kernelled.stats) == _cache_stats_tuple(reference.stats)
        assert (
            kernelled.dri_stats.size_trajectory() == reference.dri_stats.size_trajectory()
        )
        assert _interval_tuples(kernelled.dri_stats) == _interval_tuples(
            reference.dri_stats
        )
        assert kernelled.current_size_bytes == reference.current_size_bytes


class TestKernelReplayEquivalence:
    """Full replays (L1 + batched L2 drain) through replay_kernel."""

    def _kernel_vs_scalar(self, system, trace, parameters=None):
        outcomes = {}
        for kernel in (False, True):
            if parameters is None:
                icache = Cache(system.l1_icache, name="L1I")
            else:
                icache = DRIICache(
                    system.l1_icache,
                    parameters,
                    address_bits=system.address_bits,
                    auto_interval=False,
                    instructions_per_access=trace.instructions_per_line,
                )
            hierarchy = MemoryHierarchy(system)
            from repro.simulation.engine import replay_kernel, replay_scalar

            run = replay_kernel if kernel else replay_scalar
            cycles = run(trace, icache, hierarchy, 0.75, system, dri=parameters)
            if parameters is not None:
                icache.finalize()
            outcomes[kernel] = (
                cycles,
                _cache_stats_tuple(icache.stats),
                hierarchy.l2_accesses,
                hierarchy.l2_misses,
                hierarchy.memory.accesses,
                _interval_tuples(icache.dri_stats) if parameters is not None else None,
            )
        assert outcomes[True] == outcomes[False]

    @pytest.mark.parametrize("associativity", [1, 2, 4, 8])
    def test_conventional_replay(self, associativity):
        trace = generate_trace(
            get_benchmark("compress"), total_instructions=40_000, seed=SEED
        )
        system = SystemConfig().with_icache(16 * 1024, associativity=associativity)
        self._kernel_vs_scalar(system, trace)

    @pytest.mark.parametrize("associativity", [1, 4])
    def test_dri_replay(self, associativity):
        trace = generate_trace(
            get_benchmark("li"), total_instructions=INSTRUCTIONS, seed=SEED
        )
        system = SystemConfig().with_icache(64 * 1024, associativity=associativity)
        parameters = DRIParameters(miss_bound=30, size_bound=2048, sense_interval=5_000)
        self._kernel_vs_scalar(system, trace, parameters)

    def test_trailing_partial_interval(self):
        """82_400 instructions = 16 full 5_000-instruction intervals plus a
        300-access tail; the kernel engine leaves the tail open for
        ``finalize`` exactly as the scalar loop does."""
        trace = generate_trace(
            get_benchmark("hydro2d"), total_instructions=82_400, seed=SEED
        )
        system = SystemConfig()
        parameters = DRIParameters(miss_bound=30, size_bound=1024, sense_interval=5_000)
        self._kernel_vs_scalar(system, trace, parameters)

    def test_replay_kernel_engine_string(self):
        """replay(engine="kernel") needs Numba; replay(..., kernel replays
        forced through replay_kernel) work everywhere.  When Numba is
        present, the selector path must agree with the scalar loop too."""
        trace = generate_trace(
            get_benchmark("swim"), total_instructions=40_000, seed=SEED
        )
        system = SystemConfig()
        if not kernel_runtime.NUMBA_AVAILABLE:
            with pytest.raises(KernelUnavailableError):
                replay(
                    trace,
                    Cache(system.l1_icache),
                    MemoryHierarchy(system),
                    0.75,
                    system,
                    engine="kernel",
                )
            return
        outcomes = {}
        for engine in ("scalar", "kernel"):
            icache = Cache(system.l1_icache)
            hierarchy = MemoryHierarchy(system)
            cycles = replay(trace, icache, hierarchy, 0.75, system, engine=engine)
            outcomes[engine] = (cycles, _cache_stats_tuple(icache.stats))
        assert outcomes["kernel"] == outcomes["scalar"]


_MISSING = object()


@pytest.fixture
def forced_absent_numba():
    """Reload the kernel runtime with ``import numba`` guaranteed to fail.

    ``sys.modules["numba"] = None`` makes the import raise ImportError
    even when Numba is installed, so this pins the degradation contract
    in every environment.  The runtime module object is shared (engine.py
    holds a reference to the module, not to its attributes), so the
    reload flips what ``resolve_engine`` sees; a second reload restores
    the real state afterwards.
    """
    saved = sys.modules.get("numba", _MISSING)
    sys.modules["numba"] = None
    try:
        importlib.reload(kernel_runtime)
        assert not kernel_runtime.NUMBA_AVAILABLE
        yield kernel_runtime
    finally:
        if saved is _MISSING:
            sys.modules.pop("numba", None)
        else:
            sys.modules["numba"] = saved
        importlib.reload(kernel_runtime)


class TestGracefulDegradation:
    def test_numba_version_reports_reality(self):
        version = numba_version()
        if kernel_runtime.NUMBA_AVAILABLE:
            assert isinstance(version, str) and version
        else:
            assert version is None

    def test_explicit_kernel_without_numba_raises_named_extra(
        self, forced_absent_numba
    ):
        # The reloaded module defines a fresh exception class, so the
        # expected class is looked up on the module, not via the import.
        with pytest.raises(forced_absent_numba.KernelUnavailableError) as excinfo:
            resolve_engine("kernel")
        message = str(excinfo.value)
        assert "numba" in message.lower()
        assert "[kernel]" in message  # names the install extra verbatim
        assert "pip install" in message

    def test_auto_without_numba_falls_back_to_batched(self, forced_absent_numba):
        assert resolve_engine("auto") == "batched"
        assert Simulator(engine="auto").engine == "batched"

    def test_simulator_explicit_kernel_raises_at_construction(
        self, forced_absent_numba
    ):
        with pytest.raises(forced_absent_numba.KernelUnavailableError):
            Simulator(engine="kernel")

    def test_auto_fallback_stats_identical_to_batched(self, forced_absent_numba):
        auto = Simulator(trace_instructions=40_000, seed=SEED, engine="auto")
        batched = Simulator(trace_instructions=40_000, seed=SEED, engine="batched")
        parameters = DRIParameters(miss_bound=30, size_bound=2048, sense_interval=5_000)
        a = auto.run_dri("compress", parameters)
        b = batched.run_dri("compress", parameters)
        assert (a.l1_accesses, a.l1_misses, a.cycles) == (
            b.l1_accesses,
            b.l1_misses,
            b.cycles,
        )
        assert _interval_tuples(a.dri_stats) == _interval_tuples(b.dri_stats)

    def test_auto_with_numba_present_prefers_fused_kernel(self, monkeypatch):
        monkeypatch.setattr(kernel_runtime, "NUMBA_AVAILABLE", True)
        assert resolve_engine("auto") == "kernel-fused"

    def test_importing_repro_does_not_import_numba(self):
        """The tier-1 environment is numpy-only: nothing in the package
        import graph may pull Numba in eagerly (the runtime module's
        guarded import is the single sanctioned touch point)."""
        import subprocess

        code = (
            "import sys; sys.modules['numba'] = None; "
            "import repro, repro.simulation.engine, repro.memory.kernels; "
            "print('ok')"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"


class TestKernelSweepPlumbing:
    """The kernel engine through the warm worker pool and the memo."""

    def test_memo_key_separates_engines(self):
        """Each sweep's memo entry records the engine that produced it."""
        parameters = DRIParameters(miss_bound=30, size_bound=2048, sense_interval=5_000)
        batched = ParameterSweep(
            Simulator(trace_instructions=40_000, seed=SEED, engine="batched")
        )
        scalar = ParameterSweep(
            Simulator(trace_instructions=40_000, seed=SEED, engine="scalar")
        )
        batched.evaluate("compress", parameters)
        scalar.evaluate("compress", parameters)
        key = ("compress", parameters)
        assert batched._memo[key].engine == "batched"
        assert scalar._memo[key].engine == "scalar"

    def test_kernel_task_pickles_through_warm_pool(self, monkeypatch):
        """A kernel-engine sweep round-trips through the persistent pool.

        Without Numba the kernel engine cannot be *selected*, so the
        selector is widened for the test (fork workers inherit the
        patch); the kernel functions themselves run the bit-identical
        fallback.  With Numba present this runs the real compiled path.
        """
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("monkeypatched selector needs fork workers")
        if not kernel_runtime.NUMBA_AVAILABLE:
            monkeypatch.setattr(kernel_runtime, "NUMBA_AVAILABLE", True)
            monkeypatch.setattr(
                kernel_runtime, "require_numba", lambda engine="kernel": None
            )
        parameters = DRIParameters(
            miss_bound=30, size_bound=2048, sense_interval=5_000
        ).with_policy("phase-detect")
        # The task (with its kernel-enabled PolicySpec) must survive the
        # pickle boundary the pool ships it across.
        task = ("compress", parameters)
        assert pickle.loads(pickle.dumps(task)) == task

        kernel_sweep = ParameterSweep(
            Simulator(trace_instructions=40_000, seed=SEED, engine="kernel")
        )
        serial = ParameterSweep(
            Simulator(trace_instructions=40_000, seed=SEED, engine="batched")
        )
        try:
            pooled = kernel_sweep.evaluate_many(
                [("compress", parameters), ("swim", parameters)], jobs=2
            )
        finally:
            kernel_sweep.close()
        reference = [
            serial.evaluate(name, params)
            for name, params in (("compress", parameters), ("swim", parameters))
        ]
        for a, b in zip(pooled, reference):
            assert a.parameters == b.parameters
            assert a.simulation.l1_misses == b.simulation.l1_misses
            assert a.simulation.cycles == b.simulation.cycles
            assert (
                a.simulation.dri_stats.size_trajectory()
                == b.simulation.dri_stats.size_trajectory()
            )
