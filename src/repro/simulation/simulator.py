"""Trace-driven simulation of conventional and DRI i-caches.

:class:`Simulator` runs one benchmark's instruction-fetch trace through an
L1 i-cache (conventional :class:`~repro.memory.cache.Cache` or
:class:`~repro.dri.dri_cache.DRIICache`) backed by the Table 1 L2/memory
hierarchy, accounts execution time with the out-of-order timing model, and
returns a :class:`~repro.simulation.results.SimulationResult`.

The simulator caches generated traces so a parameter sweep replays exactly
the same reference stream for every configuration of a benchmark — the
same methodology as the paper's (one SimpleScalar binary/input per
benchmark, many cache configurations).

The replay itself lives in :mod:`repro.simulation.engine`; the simulator
is a thin wrapper that builds the caches and selects the scalar, batched,
compiled-kernel, or fused engine (``engine="auto"`` resolves to the
fused ``"kernel-fused"`` engine when Numba is importable and to batched
otherwise; all engines are bit-identical — the dense tag-plane substrate
vectorises direct-mapped and set-associative classification alike, the
kernel layer compiles the per-chunk loop outright, and the fused engine
compiles the whole DRI sense-interval cycle, see DESIGN.md §6/§10/§12).
Every :class:`SimulationResult` records the *concrete* engine that
executed it (:meth:`Simulator.engine_for`), including the fused engine's
per-run fallback to the chunked kernel.

Workloads resolve to a :class:`~repro.workloads.source.TraceSource`:
benchmark names and specs become (cached) in-memory traces, while any
pre-built source — a streamed :func:`~repro.workloads.generator.stream_trace`,
an mmapped :class:`~repro.workloads.source.TraceStore`, an external
:class:`~repro.workloads.source.DinTraceSource` — replays as-is, chunk by
chunk, at flat memory.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple, Union

from repro.config.parameters import DRIParameters
from repro.config.system import DEFAULT_SYSTEM, SystemConfig
from repro.dri.dri_cache import DRIICache
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.simulation.engine import TraceLike, engine_for_run
from repro.simulation.engine import replay as engine_replay
from repro.simulation.engine import resolve_engine
from repro.simulation.results import SimulationResult
from repro.workloads.generator import generate_trace
from repro.workloads.phases import WorkloadSpec
from repro.workloads.source import TraceSource
from repro.workloads.spec95 import get_benchmark
from repro.workloads.trace import InstructionTrace

WorkloadLike = Union[str, WorkloadSpec, InstructionTrace, TraceSource]


class Simulator:
    """Runs benchmarks against i-cache configurations.

    Parameters
    ----------
    system:
        The simulated system (Table 1 defaults).
    trace_instructions:
        Dynamic instruction count of generated traces.
    seed:
        Trace-generation seed (all configurations of one benchmark share
        the same trace).
    engine:
        Replay engine: ``"auto"`` (default; resolves to the fused
        ``"kernel-fused"`` engine when Numba is importable, else to
        ``"batched"``), ``"kernel-fused"``, ``"kernel"``, ``"batched"``,
        or ``"scalar"``.  The engines are bit-identical; ``"scalar"``
        exists as the semantic reference and for the throughput
        benchmarks, ``"kernel-fused"`` transparently runs ineligible
        runs (non-compilable policies, conventional replays) on the
        chunked kernel engine, and an explicit ``"kernel"`` or
        ``"kernel-fused"`` without Numba raises a clear error naming the
        ``[kernel]`` install extra.
    """

    def __init__(
        self,
        system: SystemConfig = DEFAULT_SYSTEM,
        trace_instructions: int = 600_000,
        seed: int = 2001,
        engine: str = "auto",
    ) -> None:
        if trace_instructions < 1:
            raise ValueError("trace_instructions must be positive")
        self.system = system
        self.trace_instructions = trace_instructions
        self.seed = seed
        self.engine = resolve_engine(engine)
        self._trace_cache: Dict[Tuple[str, int, int], InstructionTrace] = {}

    def engine_for(self, parameters: Optional[DRIParameters] = None) -> str:
        """The concrete engine a run with these parameters executes on.

        Identical to :attr:`engine` except under ``"kernel-fused"``,
        where ineligible runs (no DRI parameters, non-compilable policy,
        L2 block smaller than the L1's) fall back to ``"kernel"`` — the
        name results must record.
        """
        return engine_for_run(self.engine, self.system, parameters)

    # ------------------------------------------------------------------
    # Workload handling
    # ------------------------------------------------------------------
    def resolve_workload(self, workload: WorkloadLike) -> Tuple[TraceLike, float]:
        """Return the (trace, base CPI) pair for a workload argument.

        ``workload`` may be a benchmark name, a :class:`WorkloadSpec`, a
        pre-generated :class:`InstructionTrace`, or any
        :class:`TraceSource` (streamed, mmapped store, external reader).
        For traces and sources the base CPI defaults to the registry value
        if the benchmark identity (``base_name``, which :meth:`split`
        pieces keep) matches a benchmark, else a generic 0.75.
        """
        if isinstance(workload, (InstructionTrace, TraceSource)):
            benchmark = (
                workload.benchmark_name
                if isinstance(workload, InstructionTrace)
                else workload.base_name
            )
            base_cpi = 0.75
            try:
                base_cpi = get_benchmark(benchmark).base_cpi
            except KeyError:
                pass
            return workload, base_cpi
        spec = get_benchmark(workload) if isinstance(workload, str) else workload
        key = (spec.name, self.trace_instructions, self.seed)
        trace = self._trace_cache.get(key)
        if trace is None:
            trace = generate_trace(
                spec, total_instructions=self.trace_instructions, seed=self.seed
            )
            self._trace_cache[key] = trace
        return trace, spec.base_cpi

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def run_conventional(self, workload: WorkloadLike) -> SimulationResult:
        """Simulate the conventional (fixed-size) i-cache baseline."""
        trace, base_cpi = self.resolve_workload(workload)
        return self._simulate(trace, base_cpi, Cache(self.system.l1_icache, name="L1I"))

    def run_fixed_size(
        self,
        workload: WorkloadLike,
        size_bytes: int,
        associativity: int | None = None,
    ) -> SimulationResult:
        """Simulate a statically resized i-cache of ``size_bytes``.

        This is the "design-time" alternative to the DRI i-cache: a cache
        permanently built (or permanently gated) at a smaller size, with no
        adaptation.  It is used by the static-versus-dynamic ablation
        (DESIGN.md): for phased applications no single static size can
        match the DRI i-cache, which is the paper's core motivation for
        resizing *dynamically*.
        """
        trace, base_cpi = self.resolve_workload(workload)
        geometry = self.system.l1_icache
        fixed_geometry = replace(
            geometry,
            size_bytes=size_bytes,
            associativity=associativity if associativity is not None else geometry.associativity,
        )
        icache = Cache(fixed_geometry, name=f"L1I-{size_bytes // 1024}K")
        return self._simulate(trace, base_cpi, icache)

    def run_dri(self, workload: WorkloadLike, parameters: DRIParameters) -> SimulationResult:
        """Simulate the DRI i-cache with the given adaptivity parameters."""
        trace, base_cpi = self.resolve_workload(workload)
        return self.run_dri_trace(trace, base_cpi, parameters)

    def run_dri_trace(
        self, trace: TraceLike, base_cpi: float, parameters: DRIParameters
    ) -> SimulationResult:
        """Simulate the DRI i-cache on an already-resolved (trace, CPI) pair.

        This is the work unit the parallel sweep ships to worker processes:
        the trace is resolved once per benchmark — as an mmap-backed store
        path, not a pickled array — and each worker replays it under
        different adaptivity parameters.
        """
        icache = DRIICache(
            self.system.l1_icache,
            parameters,
            address_bits=self.system.address_bits,
            auto_interval=False,
            instructions_per_access=trace.instructions_per_line,
        )
        return self._simulate(trace, base_cpi, icache, parameters)

    # ------------------------------------------------------------------
    # Replay and result
    # ------------------------------------------------------------------
    def _simulate(
        self,
        trace: TraceLike,
        base_cpi: float,
        icache: Cache,
        parameters: Optional[DRIParameters] = None,
    ) -> SimulationResult:
        """Replay ``trace`` through ``icache`` and the L2/memory hierarchy.

        ``parameters`` is ``None`` for a conventional (or fixed-size)
        cache; otherwise ``icache`` is the :class:`DRIICache` built from
        them, whose open interval is finalized after the replay.
        """
        hierarchy = MemoryHierarchy(self.system)
        cycles = engine_replay(
            trace,
            icache,
            hierarchy,
            base_cpi,
            self.system,
            dri=parameters,
            engine=self.engine,
        )
        dri_stats, resizing_tag_bits = None, 0
        if parameters is not None:
            icache.finalize()
            dri_stats, resizing_tag_bits = icache.dri_stats, icache.resizing_tag_bits
        return SimulationResult(
            benchmark=trace.name,
            cache_kind="conventional" if parameters is None else "dri",
            instructions=trace.num_instructions,
            cycles=cycles,
            l1_accesses=icache.stats.accesses,
            l1_misses=icache.stats.misses,
            l2_accesses=hierarchy.l2_accesses,
            l2_misses=hierarchy.l2_misses,
            dri_stats=dri_stats,
            resizing_tag_bits=resizing_tag_bits,
            engine=self.engine_for(parameters),
        )
