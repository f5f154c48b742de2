"""The benchmark's workloads: set-up, the timed campaign, and correctness checks.

Each workload is a closed loop with one client: it runs one campaign,
waits for it to finish, checks it, and only then starts the next.  Why
each workload exists is in its ``why`` line (and in README.md).

Correctness is checked on every campaign.  A run fails when it raised,
came back as a ``TaskError``, or failed a check:

* its digest (cycles, L1/L2 accesses and misses, the DRI per-interval
  sizes) must match the reference.  At the pinned seed (2001) the
  reference is ``pinned.json``; at any other seed it is the run's first
  campaign, except on ``fig3-dm-jobs2``, whose reference is a ``jobs=1``
  campaign of the same inputs, so the two are bit-identical;
* its ``engine`` must name the engine the simulator resolved for it;
* ``stream-li-10m`` must replay exactly 10M accesses, and at the pinned
  seed its misses and Figure 3's mean constrained energy-delay reduction
  must match the pins.

:func:`held_out_check` adds a check on a seed no campaign uses: a small
grid at the workload's geometry must be bit-identical at ``jobs=1`` and
``jobs=2``, and sampled points must match the ``scalar`` reference
engine.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import resource
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, ContextManager, Dict, List, Optional, Tuple

from repro.config.parameters import DRIParameters
from repro.config.system import DEFAULT_SYSTEM, SystemConfig
from repro.energy.model import EnergyModel
from repro.simulation.executor import CampaignHealth
from repro.simulation.experiments import DEFAULT_SCALE, QUICK_SCALE, figure3_experiment
from repro.simulation.results import SimulationResult
from repro.simulation.simulator import Simulator
from repro.simulation.sweep import ParameterSweep, SweepResult
from repro.workloads.generator import GeneratedTraceSource, stream_trace
from repro.workloads.spec95 import benchmark_names, get_benchmark
from repro.workloads.trace import DEFAULT_INSTRUCTIONS_PER_LINE

PINS_PATH = Path(__file__).with_name("pinned.json")

STREAM_ACCESSES = 10_000_000

PAPER_MEAN_ED_REDUCTION = 0.62
"""The paper's mean constrained energy-delay reduction.  The model is not
validated against hardware, so this is printed beside the simulated mean,
never used as an error bound."""

HELD_OUT_OFFSET = 7919
"""The held-out check uses trace seed ``seed + HELD_OUT_OFFSET``."""

SCALAR_SAMPLES = 2

# A run's result with the DRI parameters it ran under (None: conventional).
RunRecord = Tuple[Optional[DRIParameters], SimulationResult]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    system: SystemConfig
    jobs: int = 1
    stream: bool = False
    pins: str = ""
    """Key of this workload's digests in ``pinned.json``."""


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "fig3-dm",
            "Figure 3 on the 64K direct-mapped i-cache at jobs=1: the headline campaign; "
            "time goes to the per-interval L2 drain, DM L1 classification and end_interval",
            DEFAULT_SYSTEM,
            pins="fig3-dm",
        ),
        Workload(
            "fig3-dm-jobs2",
            "the same campaign at jobs=2: identical simulated work, so a difference "
            "isolates the executor (pool spawn, store spill, dispatch)",
            DEFAULT_SYSTEM,
            jobs=2,
            pins="fig3-dm",
        ),
        Workload(
            "fig3-4way",
            "Figure 3 grid on the Figure 6 64K 4-way i-cache: the set-associative "
            "wavefront classifier dominates, so DM-only gains or 4-way losses show",
            DEFAULT_SYSTEM.with_icache(64 * 1024, associativity=4),
            pins="fig3-4way",
        ),
        Workload(
            "stream-li-10m",
            "one conventional replay of a lazily streamed 10M-access li trace: big chunks, "
            "no resize control, so it bypasses drain and controller changes",
            DEFAULT_SYSTEM,
            stream=True,
            pins="stream-li-10m",
        ),
    )
}


def load_pins(path: Path = PINS_PATH) -> dict:
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """Everything set-up builds; the timed campaign starts from here."""

    workload: Workload
    seed: int
    simulator: Simulator
    source: Optional[GeneratedTraceSource] = None


def set_up(workload: Workload, seed: int) -> Inputs:
    """Build the simulator and the inputs: the 15 Figure 3 traces, or the
    lazy stream (whose generation happens inside the timed replay)."""
    if workload.stream:
        source = stream_trace(
            get_benchmark("li"),
            total_instructions=STREAM_ACCESSES * DEFAULT_INSTRUCTIONS_PER_LINE,
            seed=seed,
        )
        return Inputs(workload, seed, Simulator(system=workload.system, seed=seed), source)
    simulator = Simulator(
        system=workload.system,
        trace_instructions=DEFAULT_SCALE.trace_instructions,
        seed=seed,
    )
    for name in benchmark_names():
        simulator.resolve_workload(name)
    return Inputs(workload, seed, simulator)


# ----------------------------------------------------------------------
# The timed campaign
# ----------------------------------------------------------------------
@dataclass
class Campaign:
    wall_s: float
    cpu_s: float
    runs: Dict[str, RunRecord]
    latencies_s: List[float]
    """Host time per simulation run (see :func:`run_latencies`)."""
    health: Optional[CampaignHealth] = None
    mean_ed_reduction: Optional[float] = None
    l1_accesses: int = field(init=False)

    def __post_init__(self) -> None:
        self.l1_accesses = sum(result.l1_accesses for _, result in self.runs.values())


def expected_runs(workload: Workload) -> int:
    if workload.stream:
        return 1
    grid = len(DEFAULT_SCALE.miss_bounds) * len(DEFAULT_SCALE.size_bounds)
    return len(benchmark_names()) * (1 + grid)


def _cpu_s() -> float:
    """User+system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_campaign(
    inputs: Inputs,
    jobs: Optional[int] = None,
    timed: Callable[[], ContextManager] = contextlib.nullcontext,
) -> Campaign:
    """Run one campaign; only the part inside ``timed()`` is the campaign.

    Trace generation is excluded (set-up did it), the worker pool's spawn
    and shutdown are included: a user pays them on every command.
    """
    jobs = inputs.workload.jobs if jobs is None else jobs
    if inputs.workload.stream:
        cpu = _cpu_s()
        started = time.perf_counter()
        with timed():
            result = inputs.simulator.run_conventional(inputs.source)
        wall = time.perf_counter() - started
        return Campaign(wall, _cpu_s() - cpu, {"li/conventional": (None, result)}, [wall])
    scale = replace(DEFAULT_SCALE, seed=inputs.seed)
    sweep = ParameterSweep(
        simulator=inputs.simulator,
        energy_model=EnergyModel(),
        base_parameters=scale.base_parameters(),
        jobs=jobs,
    )
    cpu = _cpu_s()
    started = time.perf_counter()
    with timed():
        with sweep:
            figure = figure3_experiment(benchmark_names(), scale=scale, sweep=sweep)
    wall = time.perf_counter() - started
    cpu = _cpu_s() - cpu
    health = sweep.health
    # Memo lookups only: a task that failed in the pool is re-run here,
    # untimed, and its TaskError fails the run in check_campaign.
    with sweep:
        grids = sweep.grid_many(
            benchmark_names(), miss_bounds=scale.miss_bounds, size_bounds=scale.size_bounds
        )
    return Campaign(
        wall,
        cpu,
        flatten(grids),
        run_latencies(health),
        health,
        figure.mean_energy_delay_reduction(constrained=True),
    )


def flatten(grids: Dict[str, SweepResult]) -> Dict[str, RunRecord]:
    runs: Dict[str, RunRecord] = {}
    for name, grid in grids.items():
        runs[f"{name}/conventional"] = (None, grid.conventional)
        for point in grid.points:
            parameters = point.parameters
            runs[f"{name}/mb{parameters.miss_bound}/sb{parameters.size_bound}"] = (
                parameters,
                point.simulation,
            )
    return runs


def run_latencies(health: CampaignHealth) -> List[float]:
    """Host time per run, from the sweep's own ``chunk_wall_times``.

    At ``jobs=1`` every chunk is one run, so this is each
    ``run_conventional``/``run_dri_trace`` call's latency.  With a pool a
    chunk holds several runs; its wall time (submit to result) is split
    evenly over the mean chunk size, one sample per chunk.
    """
    chunks = health.chunk_wall_times
    if not chunks:
        return []
    per_chunk = health.tasks_run / len(chunks)
    return [wall / per_chunk for wall in chunks]


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def digest(result: SimulationResult) -> str:
    """A short hash of what a run simulated (not of which engine ran it)."""
    sizes = result.dri_stats.size_trajectory() if result.dri_stats is not None else []
    record = [
        result.benchmark,
        result.cache_kind,
        result.instructions,
        result.cycles,
        result.l1_accesses,
        result.l1_misses,
        result.l2_accesses,
        result.l2_misses,
        sizes,
    ]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]


def digests(runs: Dict[str, RunRecord]) -> Dict[str, str]:
    return {key: digest(result) for key, (_, result) in runs.items()}


def reference_digests(inputs: Inputs, pins: dict) -> Optional[Dict[str, str]]:
    """What every campaign of this run must reproduce, or None when the
    run's first campaign is the reference."""
    if inputs.seed == pins["seed"]:
        return pins["digests"][inputs.workload.pins]
    if inputs.workload.jobs > 1:
        return digests(run_campaign(inputs, jobs=1).runs)
    return None


@dataclass
class CheckLedger:
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, attempted: int, failures: List[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.failures.extend(failures)

    def fail_all(self, runs: int, message: str) -> None:
        self.attempted += runs
        self.failed += runs
        self.failures.append(f"{message} ({runs} runs)")

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def check_campaign(
    inputs: Inputs, campaign: Campaign, reference: Dict[str, str], pins: dict
) -> List[str]:
    """One failure message per failed run of the campaign."""
    failures: Dict[str, str] = {}
    workload = inputs.workload
    for key in reference.keys() - campaign.runs.keys():
        failures[key] = f"{key}: missing from the campaign"
    for key, (parameters, result) in campaign.runs.items():
        expected = inputs.simulator.engine_for(parameters)
        if result.engine != expected:
            failures[key] = f"{key}: engine {result.engine!r}, but {expected!r} ran"
        elif digest(result) != reference.get(key):
            failures[key] = f"{key}: digest {digest(result)} != reference {reference.get(key)}"
        elif workload.stream and result.l1_accesses != STREAM_ACCESSES:
            failures[key] = f"{key}: replayed {result.l1_accesses} accesses, not {STREAM_ACCESSES}"
    if inputs.seed == pins["seed"]:
        if workload.stream:
            (_, result), = campaign.runs.values()
            pinned = pins["stream-li-10m"]
            if (result.l1_misses, result.l2_misses) != (pinned["l1_misses"], pinned["l2_misses"]):
                failures["li/conventional"] = "li/conventional: misses differ from the pins"
        elif workload.pins == "fig3-dm":
            pinned = pins["fig3-dm"]["mean_ed_reduction"]
            if round(campaign.mean_ed_reduction, 4) != pinned:
                failures["mean"] = (
                    f"mean energy-delay reduction {campaign.mean_ed_reduction:.4f} != {pinned}"
                )
    return list(failures.values()) + _task_errors(campaign)


def _task_errors(campaign: Campaign) -> List[str]:
    if campaign.health is None:
        return []
    return [
        f"task error {error.benchmark}: {error.kind} {error.message}"
        for error in campaign.health.task_errors
    ]


def held_out_check(workload: Workload, seed: int) -> Tuple[int, List[str]]:
    """jobs=1 vs jobs=2 identity and scalar-engine samples on a held-out seed.

    A small grid (two benchmarks chosen by ``seed``, the quick scale) at
    the workload's geometry.  Returns (runs attempted, failure messages).
    """
    held = seed + HELD_OUT_OFFSET
    scale = replace(QUICK_SCALE, seed=held)
    rng = random.Random(seed)
    names = rng.sample(benchmark_names(), 2)
    by_jobs: List[Dict[str, RunRecord]] = []
    for jobs in (1, 2):
        simulator = Simulator(
            system=workload.system, trace_instructions=scale.trace_instructions, seed=held
        )
        with ParameterSweep(
            simulator=simulator,
            energy_model=EnergyModel(),
            base_parameters=scale.base_parameters(),
            jobs=jobs,
        ) as sweep:
            by_jobs.append(
                flatten(
                    sweep.grid_many(
                        names, miss_bounds=scale.miss_bounds, size_bounds=scale.size_bounds
                    )
                )
            )
    serial, parallel = (digests(runs) for runs in by_jobs)
    failures = [
        f"held-out {key}: jobs=2 differs from jobs=1"
        for key in serial
        if parallel.get(key) != serial[key]
    ]
    scalar = Simulator(
        system=workload.system,
        trace_instructions=scale.trace_instructions,
        seed=held,
        engine="scalar",
    )
    for key in rng.sample(sorted(by_jobs[0]), SCALAR_SAMPLES):
        parameters, result = by_jobs[0][key]
        trace, base_cpi = scalar.resolve_workload(result.benchmark)
        if parameters is None:
            oracle = scalar.run_conventional(trace)
        else:
            oracle = scalar.run_dri_trace(trace, base_cpi, parameters)
        if digest(oracle) != digest(result):
            failures.append(f"held-out {key}: {result.engine} differs from the scalar engine")
    return 2 * len(serial) + SCALAR_SAMPLES, failures
