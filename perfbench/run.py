"""The repository benchmark: paper-figure campaigns, timed end to end and by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig3-dm --seed 2001 --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced campaigns and reports the
per-layer metrics (README.md lists every metric, its unit, which way is
better, and which end-to-end metric each layer should move).  Every
campaign is checked (see ``campaigns.py``).  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Spans of a traced run are kept in memory and written to
``perfbench/out/<workload>-seed<seed>-spans.jsonl`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy

from tracer import LayerTotal, Tracer, check_accounting, layer_totals, trace_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
"""Fresh-interpreter set-ups per run; ``setup_s`` is their median."""

END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_accesses_per_s": "1/s",
    "run_p50_ms": "ms",
    "run_p95_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "ok_fraction": "fraction",
}


def tail_percentile(count: int) -> float:
    """95, or the highest percentile with ten samples beyond it when fewer
    than 200 samples exist, but never below the median."""
    return min(95.0, max(50.0, 100.0 * (count - 10) / count)) if count else 50.0


# ----------------------------------------------------------------------
# Layer tracing: which entry point of which module is which layer
# ----------------------------------------------------------------------
def install_layer_tracing(tracer) -> None:
    from repro.dri.dri_cache import DRIICache
    from repro.memory.cache import Cache
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.simulation import engine, simulator, sweep
    from repro.simulation.executor import SweepExecutor
    from repro.workloads import generator, source

    def accesses(args) -> int:
        return int(args[1].shape[0])

    tracer.wrap(generator, "generate_trace", "workloads.generate")
    tracer.wrap(simulator, "generate_trace", "workloads.generate")
    for cls in (source.ArrayTraceSource, source.TraceStore, generator.GeneratedTraceSource):
        tracer.wrap_iterator(cls, "chunks", "workloads.source")
    # The L2 drain classifies through the L2's own Cache.access_batch; that
    # time stays with the drain.
    tracer.wrap(
        Cache,
        "access_batch",
        "memory.cache.l1_classify",
        count=accesses,
        inside=("memory.hierarchy.l2_drain",),
    )
    tracer.wrap(
        MemoryHierarchy,
        "access_batch_from_l1_misses",
        "memory.hierarchy.l2_drain",
        count=accesses,
    )
    tracer.wrap(DRIICache, "end_interval", "dri.end_interval")
    for tag, attribute in (
        ("scalar", "replay_scalar"),
        ("batched", "replay_batched"),
        ("kernel", "replay_kernel"),
        ("kernel-fused", "replay_fused"),
    ):
        tracer.wrap(
            engine, attribute, "simulation.engine.replay", tag=tag, inside=("simulation.engine.replay",)
        )
    tracer.wrap(simulator.Simulator, "run_conventional", "simulation.simulator.run")
    tracer.wrap(simulator.Simulator, "run_dri_trace", "simulation.simulator.run")
    tracer.wrap(sweep, "compare_runs", "energy.compare")
    tracer.wrap(sweep.ParameterSweep, "evaluate", "simulation.sweep.evaluate")
    tracer.wrap_iterator(SweepExecutor, "run", "simulation.executor.run")
    tracer.wrap(source.TraceStore, "save", "simulation.executor.store_spill")


def layer_metrics(tracer, root: int, campaign, jobs: int) -> Dict[str, float]:
    """Per-layer metrics of one traced campaign (self times, counts)."""
    spans = tracer.spans
    totals = layer_totals(spans, trace_spans(spans, spans[root].trace))
    empty = LayerTotal()
    get = lambda name: totals.get(name, empty)  # noqa: E731
    classify = get("memory.cache.l1_classify")
    drain = get("memory.hierarchy.l2_drain")
    runs = get("simulation.simulator.run")
    executor = get("simulation.executor.run")
    health = campaign.health
    pooled = executor.calls > 0 and health is not None
    busy = sum(health.chunk_wall_times) if pooled else 0.0
    intervals = resized = 0
    for _, result in campaign.runs.values():
        if result.dri_stats is not None:
            intervals += len(result.dri_stats.intervals)
            resized += sum(record.resized != "none" for record in result.dri_stats.intervals)
    return {
        "workloads.source_s": get("workloads.source").self_s,
        "workloads.source_chunks": get("workloads.source").calls,
        "memory.cache.l1_classify_s": classify.self_s,
        "memory.cache.l1_classify_calls": classify.calls,
        "memory.cache.l1_classify_accesses": classify.count,
        "memory.cache.l1_ns_per_access": 1e9 * classify.self_s / classify.count if classify.count else 0.0,
        "memory.hierarchy.l2_drain_s": drain.self_s,
        "memory.hierarchy.l2_drain_calls": drain.calls,
        "memory.hierarchy.l2_drain_accesses": drain.count,
        "memory.hierarchy.l2_accesses_per_call": drain.count / drain.calls if drain.calls else 0.0,
        "dri.end_interval_s": get("dri.end_interval").self_s,
        "dri.end_interval_calls": get("dri.end_interval").calls,
        "dri.resize_fraction": resized / intervals if intervals else 0.0,
        "simulation.engine.replay_self_s": get("simulation.engine.replay").self_s,
        "simulation.simulator.run_self_s": runs.self_s,
        "energy.compare_s": get("energy.compare").self_s,
        "simulation.sweep.evaluate_calls": get("simulation.sweep.evaluate").calls,
        "simulation.sweep.runs_simulated": runs.calls + (health.tasks_run if pooled else 0),
        "simulation.executor.run_s": executor.self_s,
        "simulation.executor.store_spill_s": get("simulation.executor.store_spill").self_s,
        "simulation.executor.tasks": health.tasks_run if pooled else 0,
        "simulation.executor.chunks": len(health.chunk_wall_times) if pooled else 0,
        "simulation.executor.retries": health.retries if pooled else 0,
        "simulation.executor.respawns": health.respawns if pooled else 0,
        "simulation.executor.worker_busy_s": busy,
        "simulation.executor.worker_utilisation": busy / (executor.self_s * jobs) if pooled else 0.0,
        "untraced_remainder_s": get("campaign").self_s,
        "traced_wall_s": spans[root].end - spans[root].start,
    }


def engine_failures(tracer, root: int, campaign, jobs: int) -> List[str]:
    """The engines that replayed in this process must be the ones the
    results name (runs in pool workers are not traced)."""
    spans = tracer.spans
    ran = Counter(
        spans[index].tag
        for index in trace_spans(spans, spans[root].trace)
        if spans[index].name == "simulation.engine.replay"
    )
    if jobs > 1 and not ran:
        return []  # every run was in a worker
    named = Counter(result.engine for _, result in campaign.runs.values())
    if ran != named:
        return [f"engines that ran {dict(ran)} != engines the results name {dict(named)}"]
    return []


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def measure_setup(workload: str, seed: int) -> List[float]:
    """Wall time of fresh interpreters that import and set up, then exit."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return times


class Run:
    """One benchmark run: set-up, campaigns until time is up, checks."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        import campaigns

        self.campaigns = campaigns
        self.workload = campaigns.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.pins = campaigns.load_pins()
        self.ledger = campaigns.CheckLedger()
        self.reference: Optional[Dict[str, str]] = None
        self.inputs = None

    def set_up(self) -> None:
        self.inputs = self.campaigns.set_up(self.workload, self.seed)

    def verify_ahead(self) -> None:
        """The held-out check (which also warms every code path) and the
        reference every campaign must reproduce."""
        attempted, failures = self.campaigns.held_out_check(self.workload, self.seed)
        self.ledger.record(attempted, failures)
        self.reference = self.campaigns.reference_digests(self.inputs, self.pins)

    def campaign(self, timed=contextlib.nullcontext):
        """One checked campaign, or None if it raised."""
        campaigns = self.campaigns
        try:
            campaign = campaigns.run_campaign(self.inputs, timed=timed)
        except Exception:
            traceback.print_exc()
            self.ledger.fail_all(campaigns.expected_runs(self.workload), "campaign raised")
            return None
        if self.reference is None:
            self.reference = campaigns.digests(campaign.runs)
        failures = campaigns.check_campaign(self.inputs, campaign, self.reference, self.pins)
        self.ledger.record(len(campaign.runs), failures)
        return campaign

    def time_left(self, started: float, per_campaign: float) -> bool:
        return time.perf_counter() - started + per_campaign <= self.seconds

    def end_to_end(self) -> Tuple[Dict[str, float], Dict[str, str]]:
        done = []
        started = time.perf_counter()
        while True:
            campaign = self.campaign()
            if campaign is not None:
                campaign.runs = {}  # checked; holding every campaign's results would grow the heap
                done.append(campaign)
            walls = [c.wall_s for c in done] or [time.perf_counter() - started]
            if not self.time_left(started, statistics.median(walls)):
                break
        if not done:
            raise RuntimeError("no campaign completed")
        # One sample per run of the campaign: its median latency over the
        # campaigns, so a preemption that hit one campaign's run does not
        # land in the tail.
        latencies = [statistics.median(run) for run in zip(*(c.latencies_s for c in done))]
        tail = tail_percentile(len(latencies))
        setups = measure_setup(self.workload.name, self.seed)
        metrics = {
            "wall_s": statistics.median(c.wall_s for c in done),
            "sim_accesses_per_s": statistics.median(c.l1_accesses / c.wall_s for c in done),
            "run_p50_ms": 1e3 * float(numpy.percentile(latencies, 50)),
            "run_p95_ms": 1e3 * float(numpy.percentile(latencies, tail)),
            "cpu_s": statistics.median(c.cpu_s for c in done),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
            "ok_fraction": 1.0 - self.ledger.failed_fraction,
        }
        children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        notes = {
            "wall_s": f"median of {len(done)} campaigns "
            f"(min {min(c.wall_s for c in done):.4f}, max {max(c.wall_s for c in done):.4f})",
            "sim_accesses_per_s": f"median of {len(done)} campaigns, "
            f"{done[0].l1_accesses} simulated L1 accesses each",
            "run_p50_ms": f"n={len(latencies)} samples, each a median over {len(done)} campaigns",
            "run_p95_ms": f"p{tail:.1f} of the same n={len(latencies)}",
            "cpu_s": "median; user+sys of this process and reaped workers",
            "peak_rss_mib": f"this process; largest child {children_rss:.1f} MiB",
            "setup_s": f"median of {len(setups)} fresh interpreters "
            f"(min {min(setups):.3f}, max {max(setups):.3f})",
            "ok_fraction": f"1 - failed/attempted = 1 - {self.ledger.failed}/{self.ledger.attempted}",
        }
        if done[0].mean_ed_reduction is not None:
            notes["wall_s"] += (
                f"; simulated mean constrained energy-delay reduction "
                f"{done[0].mean_ed_reduction:.4f} (paper: {self.campaigns.PAPER_MEAN_ED_REDUCTION}, "
                f"model unvalidated against hardware)"
            )
        return metrics, notes

    def per_layer(self, tracer: Tracer) -> Tuple[Dict[str, float], Dict[str, str]]:
        untraced, traced, layers = [], [], []
        trace_id = 1
        started = time.perf_counter()
        while True:
            campaign = self.campaign()
            if campaign is not None:
                untraced.append(campaign.wall_s)
            install_layer_tracing(tracer)
            try:
                root = tracer.root("campaign", trace_id)
                campaign = self.campaign(timed=lambda: root)
            finally:
                tracer.uninstall()
            if campaign is not None:
                check_accounting(tracer.spans, root.index)
                self.ledger.record(0, engine_failures(tracer, root.index, campaign, self.workload.jobs))
                traced.append(root.duration)
                layers.append(layer_metrics(tracer, root.index, campaign, self.workload.jobs))
            trace_id += 1
            pair = statistics.median(traced or [0.0]) + statistics.median(untraced or [0.0])
            if not self.time_left(started, pair):
                break
        if not layers or not untraced:
            raise RuntimeError("no traced and untraced campaign pair completed")
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        metrics["tracing_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        notes = {name: f"median of {len(layers)} traced campaigns" for name in metrics}
        notes["tracing_overhead_s"] = (
            f"median traced wall {statistics.median(traced):.4f}s - "
            f"median untraced wall {statistics.median(untraced):.4f}s"
        )
        return metrics, notes


def provenance(workload) -> Dict[str, object]:
    from repro.memory.kernels import runtime
    from repro.simulation.engine import resolve_engine

    return {
        "workload": workload.name,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_version": runtime.numba_version(),
        "engine": resolve_engine("auto"),
        "memory.kernels.*": "unmeasured: Numba is not importable" if not runtime.NUMBA_AVAILABLE
        else "not traced",
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2001, help="trace seed (default 2001, pinned)")
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Sweeps spill trace stores to a temporary directory: keep it in the checkout.
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(OUT / "tmp")

    import campaigns

    if args.workload not in campaigns.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(campaigns.WORKLOADS)}")
    if args.setup_only:
        campaigns.set_up(campaigns.WORKLOADS[args.workload], args.seed)
        return 0

    run = Run(args.workload, args.seed, args.seconds)
    print(json.dumps({"provenance": provenance(run.workload)}))
    tracer = Tracer()
    if args.trace:
        install_layer_tracing(tracer)
        try:
            with tracer.root("setup", 0) as setup:
                run.set_up()
        finally:
            tracer.uninstall()
        check_accounting(tracer.spans, setup.index)
        run.verify_ahead()
        metrics, notes = run.per_layer(tracer)
        generate = layer_totals(tracer.spans, trace_spans(tracer.spans, 0)).get("workloads.generate")
        metrics["workloads.generate_s"] = generate.self_s if generate else 0.0
        metrics["workloads.generate_calls"] = generate.calls if generate else 0
        notes["workloads.generate_s"] = notes["workloads.generate_calls"] = "traced set-up"
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
        units = layer_units()
    else:
        run.set_up()
        run.verify_ahead()
        metrics, notes = run.end_to_end()
        units = END_TO_END_UNITS

    for failure in run.ledger.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    for name in units:
        print(f"{name:42s} {metrics[name]:>16.6g} {units[name]:8s} {notes.get(name, '')}")
    print(json.dumps({
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def layer_units() -> Dict[str, str]:
    """Per-layer metric units, in BENCHMARK.json's order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
