"""The batched trace-replay engine.

Conventional, fixed-size, and DRI runs all replay an instruction-fetch
stream through an L1 i-cache in front of the Table 1 L2/memory hierarchy.
This module provides that replay loop in four interchangeable forms:

* :func:`replay_scalar` — the original per-address Python loop (one dict
  probe per access), kept as the semantic reference;
* :func:`replay_batched` — sense-interval-aligned numpy chunks: each chunk
  is classified hit/miss vectorised through
  :meth:`~repro.memory.cache.Cache.access_batch`, DRI resize decisions are
  applied at chunk boundaries only — exactly where the scalar loop applies
  them — and the buffered misses of every :data:`DEFAULT_CHUNK_ACCESSES`
  L1 accesses are drained through the hierarchy in one vectorised L2
  classification
  (:meth:`~repro.memory.hierarchy.MemoryHierarchy.access_batch_from_l1_misses`);
* :func:`replay_kernel` — the same chunked loop, but every chunk (L1
  classification and L2 drain alike) goes through the compiled kernel
  layer (:mod:`repro.memory.kernels`, DESIGN.md §10): one in-order
  Numba-compiled loop over the tag-plane and replacement-state arrays,
  with no argsort, wavefronts, or scalar tail;
* :func:`replay_fused` — the fused DRI engine (DESIGN.md §12): for DRI
  runs whose resize policy compiles
  (:meth:`~repro.dri.policies.base.ResizePolicy.compiled_step`), the
  *entire* sense-interval cycle — classification, interval-boundary
  detection, the resize decision, ladder stepping, throttling, set
  gating, and the L2 drain — runs inside one compiled call per
  :data:`DEFAULT_CHUNK_ACCESSES`-sized chunk
  (:func:`~repro.memory.kernels.dri_fused.fused_dri_chunk`), with zero
  Python per interval.

Engine selection: ``"auto"`` resolves to ``"kernel-fused"`` when Numba is
importable and silently to ``"batched"`` otherwise; asking for
``engine="kernel"`` or ``"kernel-fused"`` explicitly without Numba raises
a :class:`~repro.memory.kernels.KernelUnavailableError` naming the
install extra (the pure-Python kernel fallback is bit-identical but far
slower than batched, so it is never selected as an *engine* implicitly —
``Cache.access_batch(..., kernel=True)`` reaches it directly for the
equivalence tests).  :func:`engine_for_run` concretises a resolved
engine for one specific run and is the only place the fused engine's
eligibility rule is written: runs the fused loop cannot take
(conventional replays, non-compilable policies, an L2 block smaller than
the L1's) are dispatched by :func:`replay` to the chunked kernel engine,
and :class:`~repro.simulation.results.SimulationResult` records the
engine that actually executed.

Every engine consumes any
:class:`~repro.workloads.source.TraceSource` — an in-memory
:class:`~repro.workloads.trace.InstructionTrace` is coerced to one — and
never ask for more than one chunk at a time, so a streamed or mmapped
source replays a 100M-access trace at flat memory.  All produce
bit-identical hit/miss/eviction counts, DRI statistics, resize
trajectories, and cycle totals (one accounting, :func:`_cycles`, turns
each replay's counts into cycles); the batched form is an order of
magnitude faster than scalar because the hot per-access work — at every
associativity, L1 and L2 alike — never enters the Python interpreter.

Chunking policy
---------------
DRI runs use one L1 chunk per sense interval (the decision points *are*
the chunk boundaries).  Runs without resize decisions (conventional and
fixed-size caches) have no boundaries to respect and use a fixed large
chunk, :data:`DEFAULT_CHUNK_ACCESSES`, which bounds the working memory of
the classification scratch arrays.

The L2 drain does not follow the L1 chunking: in every mode the chunked
engines buffer L1 misses and drain them once per
:data:`DEFAULT_CHUNK_ACCESSES` L1 accesses, plus once at the end.  This
is exact because the L2's state and counts depend only on the in-order
L1 miss stream, and nothing reads them before the replay ends — resize
policies see only L1 misses.  A conventional run keeps one drain per
chunk; a DRI run drains about once per 64K accesses instead of once per
interval, which removes most of numpy's fixed per-call cost.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.config.parameters import DRIParameters
from repro.config.system import SystemConfig
from repro.cpu.pipeline import TimingModel
from repro.dri.dri_cache import DRIICache
from repro.dri.policies import build_policy
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.kernels import runtime as kernel_runtime
from repro.workloads.source import TraceSource, as_trace_source
from repro.workloads.trace import InstructionTrace

TraceLike = Union[InstructionTrace, TraceSource]
"""What the replay functions accept as the reference stream."""

DEFAULT_CHUNK_ACCESSES = 1 << 16
"""Chunk length (in accesses) for runs without sense-interval boundaries."""

ENGINE_KINDS = ("auto", "kernel-fused", "kernel", "batched", "scalar")
"""Accepted engine selectors: "auto" prefers the fused kernel engine when
Numba is importable and falls back to the batched engine otherwise."""


def resolve_engine(kind: str) -> str:
    """Validate an engine selector and resolve ``"auto"``.

    ``"auto"`` resolves to ``"kernel-fused"`` when Numba is importable,
    else silently to ``"batched"`` (the graceful-degradation contract: a
    numpy-only install never errors and never silently runs the slow
    pure-Python kernel loop).  An *explicit* ``"kernel"`` or
    ``"kernel-fused"`` without Numba raises
    :class:`~repro.memory.kernels.KernelUnavailableError` naming the
    missing install extra.
    """
    if kind not in ENGINE_KINDS:
        raise ValueError(f"engine must be one of {ENGINE_KINDS}, got {kind!r}")
    if kind == "auto":
        return "kernel-fused" if kernel_runtime.NUMBA_AVAILABLE else "batched"
    if kind in ("kernel", "kernel-fused"):
        kernel_runtime.require_numba(kind)
    return kind


def engine_for_run(
    resolved: str,
    system: SystemConfig,
    parameters: Optional[DRIParameters] = None,
) -> str:
    """The engine a specific run executes under a resolved selector.

    Only the fused engine has per-run fallback: a run it cannot take —
    no DRI parameters (conventional/fixed-size replay), a resize policy
    without a compiled form, or an L2 block smaller than the L1's (the
    in-kernel drain needs a non-negative block-address shift) — executes
    on the chunked kernel engine instead.
    :class:`~repro.simulation.results.SimulationResult` records *this*
    name, never the ambiguous selector.  :func:`replay` dispatches on it,
    so this is the only statement of the fused engine's eligibility.
    """
    if resolved != "kernel-fused":
        return resolved
    if parameters is None:
        return "kernel"
    step = build_policy(parameters.policy, parameters).compiled_step()
    if step is None or step.kind != "miss-bound":
        return "kernel"
    if system.l2_cache.offset_bits < system.l1_icache.offset_bits:
        return "kernel"
    return "kernel-fused"


def _cycles(
    system: SystemConfig,
    base_cpi: float,
    instructions: int,
    miss_l2: int,
    miss_memory: int,
) -> int:
    """Execution time of a replay from its fetch-miss counts.

    ``miss_l2`` L1 misses were serviced by the L2 and ``miss_memory`` by
    main memory; each is charged its exposed latency on top of the base
    CPI (:class:`~repro.cpu.pipeline.TimingModel`).
    """
    timing = TimingModel(pipeline=system.pipeline, base_cpi=base_cpi)
    l2_latency = system.l1_miss_penalty
    timing.account_instructions(instructions)
    timing.account_fetch_misses(l2_latency, miss_l2)
    timing.account_fetch_misses(l2_latency + system.l2_miss_penalty, miss_memory)
    return timing.cycles


def replay_scalar(
    trace: TraceLike,
    icache: Cache,
    hierarchy: MemoryHierarchy,
    base_cpi: float,
    system: SystemConfig,
    dri: Optional[DRIParameters] = None,
) -> int:
    """Replay ``trace`` one address at a time; returns the cycle count.

    The stream is pulled chunk by chunk from its source (flat memory even
    for streamed sources); within a chunk the loop is the per-address
    reference semantics.
    """
    source = as_trace_source(trace)
    l2_latency = system.l1_miss_penalty
    instructions_per_line = source.instructions_per_line

    # Interval driving is enabled only when the caller asks for it (dri
    # parameters passed and the cache is a DRI cache); the interval length
    # is the cache's own conversion of the instruction-denominated
    # sense_interval, so manual and auto driving can never disagree.
    dri_cache = icache if dri is not None and isinstance(icache, DRIICache) else None
    per_interval = dri_cache.interval_length_accesses if dri_cache is not None else 0

    access = icache.access
    miss_l2 = 0
    miss_memory = 0
    since_interval = 0
    accesses = 0

    for chunk in source.chunks(DEFAULT_CHUNK_ACCESSES):
        accesses += chunk.shape[0]
        for address in chunk.tolist():
            if not access(address).hit:
                response = hierarchy.access_from_l1_miss(address)
                if response.latency > l2_latency:
                    miss_memory += 1
                else:
                    miss_l2 += 1
            if dri_cache is not None:
                since_interval += 1
                if since_interval >= per_interval:
                    dri_cache.end_interval(
                        instructions=since_interval * instructions_per_line
                    )
                    since_interval = 0

    return _cycles(system, base_cpi, accesses * instructions_per_line, miss_l2, miss_memory)


def replay_batched(
    trace: TraceLike,
    icache: Cache,
    hierarchy: MemoryHierarchy,
    base_cpi: float,
    system: SystemConfig,
    dri: Optional[DRIParameters] = None,
    kernel: bool = False,
) -> int:
    """Replay ``trace`` in interval-aligned chunks; returns the cycle count.

    Bit-identical to :func:`replay_scalar`: the L1 hit/miss outcome of an
    access depends only on L1 state, so classifying a chunk up front and
    then draining its misses through the L2 in order preserves both the L1
    and L2 reference streams; DRI decisions fire after every *complete*
    interval, and a trailing partial interval is left open for
    ``finalize`` exactly as the scalar loop leaves it.  The source is
    asked for chunks of exactly the interval length, so the chunk
    boundaries *are* the decision points even when the stream is being
    generated or read from disk on the fly.

    The drain is deferred: each chunk's misses are buffered, and the
    buffer goes through the L2 once every :data:`DEFAULT_CHUNK_ACCESSES`
    L1 accesses and once after the last chunk.  Nothing reads the L2
    mid-replay (resize decisions depend only on L1 misses), and the
    buffer keeps the misses in order, so the L2's final state and counts
    are the per-chunk drain's.  The trigger counts L1 accesses rather than
    misses, so a conventional run drains once per chunk and buffers at
    most one chunk's misses.

    ``kernel=True`` routes every chunk classification — the L1 lookup
    and the L2 miss drain alike — through the compiled kernel layer
    instead of the numpy classifiers (this is :func:`replay_kernel`).
    """
    source = as_trace_source(trace)
    instructions_per_line = source.instructions_per_line

    dri_cache = icache if dri is not None and isinstance(icache, DRIICache) else None
    if dri_cache is not None:
        chunk_accesses = dri_cache.interval_length_accesses
    else:
        chunk_accesses = DEFAULT_CHUNK_ACCESSES

    miss_l2 = 0
    miss_memory = 0
    accesses = 0
    interval_fill = 0
    pending = []  # L1 miss arrays not yet drained through the L2, in order
    pending_accesses = 0  # L1 accesses those misses came from

    def drain() -> None:
        nonlocal miss_l2, miss_memory, pending_accesses
        if pending:
            misses = np.concatenate(pending)
            l2_hits, l2_misses = hierarchy.access_batch_from_l1_misses(misses, kernel=kernel)
            miss_l2 += l2_hits
            miss_memory += l2_misses
            pending.clear()
        pending_accesses = 0

    for chunk in source.chunks(chunk_accesses):
        accesses += chunk.shape[0]
        hits = icache.access_batch(chunk, kernel=kernel)
        if not hits.all():
            pending.append(chunk[~hits])
        pending_accesses += chunk.shape[0]
        if pending_accesses >= DEFAULT_CHUNK_ACCESSES:
            drain()
        if dri_cache is not None:
            # Count accesses into the open interval rather than trusting
            # each chunk to be exactly interval-sized: a source that cuts
            # a short chunk mid-stream still closes intervals at the same
            # points as the scalar loop.  A trailing partial interval is
            # left open for ``finalize`` exactly as the scalar loop
            # leaves it.
            interval_fill += chunk.shape[0]
            if interval_fill > chunk_accesses:
                raise ValueError(
                    "trace source yielded more than the requested chunk length "
                    f"({interval_fill} accesses into a {chunk_accesses}-access interval)"
                )
            if interval_fill == chunk_accesses:
                dri_cache.end_interval(instructions=interval_fill * instructions_per_line)
                interval_fill = 0

    drain()

    return _cycles(system, base_cpi, accesses * instructions_per_line, miss_l2, miss_memory)


def replay_kernel(
    trace: TraceLike,
    icache: Cache,
    hierarchy: MemoryHierarchy,
    base_cpi: float,
    system: SystemConfig,
    dri: Optional[DRIParameters] = None,
) -> int:
    """Replay ``trace`` through the compiled kernel engine.

    The chunking, interval alignment, and L2 drain are exactly
    :func:`replay_batched`'s; only the per-chunk classification differs
    (one in-order compiled loop instead of the numpy classifiers), so
    the bit-identity contract is inherited chunk for chunk.  Runs the
    bit-identical pure-Python fallback when Numba is absent — callers
    wanting the absence to be an error go through :func:`resolve_engine`.
    """
    return replay_batched(trace, icache, hierarchy, base_cpi, system, dri, kernel=True)


def replay_fused(
    trace: TraceLike,
    icache: Cache,
    hierarchy: MemoryHierarchy,
    base_cpi: float,
    system: SystemConfig,
    dri: Optional[DRIParameters] = None,
) -> int:
    """Replay ``trace`` through the fused DRI engine.

    :data:`DEFAULT_CHUNK_ACCESSES`-sized chunks stream straight into
    :meth:`DRIICache.fused_chunk`; interval boundaries fall wherever
    they fall inside a chunk and are handled entirely in compiled code,
    so the chunking no longer needs to align with sense intervals at
    all.  The caller is responsible for eligibility — :func:`replay`
    sends only runs :func:`engine_for_run` names ``"kernel-fused"``
    here; everything else goes to :func:`replay_kernel`.
    """
    if not isinstance(icache, DRIICache):
        raise ValueError("the fused engine replays only a DRIICache")
    source = as_trace_source(trace)
    instructions_per_line = source.instructions_per_line

    miss_l2 = 0
    miss_memory = 0
    accesses = 0
    for chunk in source.chunks(DEFAULT_CHUNK_ACCESSES):
        accesses += chunk.shape[0]
        l2_hits, l2_misses = icache.fused_chunk(chunk, hierarchy, instructions_per_line)
        miss_l2 += l2_hits
        miss_memory += l2_misses

    return _cycles(system, base_cpi, accesses * instructions_per_line, miss_l2, miss_memory)


def replay(
    trace: TraceLike,
    icache: Cache,
    hierarchy: MemoryHierarchy,
    base_cpi: float,
    system: SystemConfig,
    dri: Optional[DRIParameters] = None,
    engine: str = "auto",
) -> int:
    """Replay a trace with the selected engine; returns the cycle count."""
    resolved = engine_for_run(resolve_engine(engine), system, dri)
    if resolved == "kernel-fused":
        return replay_fused(trace, icache, hierarchy, base_cpi, system, dri)
    if resolved == "kernel":
        return replay_kernel(trace, icache, hierarchy, base_cpi, system, dri)
    if resolved == "batched":
        return replay_batched(trace, icache, hierarchy, base_cpi, system, dri)
    return replay_scalar(trace, icache, hierarchy, base_cpi, system, dri)
