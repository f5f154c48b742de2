"""Tests of the benchmark itself.

Run with ``python3 -m pytest perfbench/check_perfbench.py -q`` from the
repository root (the file name keeps it out of the package's own suite).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import campaigns  # noqa: E402
import run as bench  # noqa: E402
from tracer import NO_PARENT, Span, Tracer, check_accounting, layer_totals, self_times  # noqa: E402


def _spans():
    # campaign [0, 10] > replay [1, 9] > classify [2, 5], drain [5, 8]
    #                  > compare [9.5, 10]
    return [
        Span("campaign", 0.0, 10.0, NO_PARENT, 1),
        Span("replay", 1.0, 9.0, 0, 1),
        Span("classify", 2.0, 5.0, 1, 1, count=100),
        Span("drain", 5.0, 8.0, 1, 1, count=7),
        Span("compare", 9.5, 10.0, 0, 1),
    ]


def test_self_time_is_duration_minus_children():
    assert self_times(_spans()) == pytest.approx([1.5, 2.0, 3.0, 3.0, 0.5])


def test_layer_totals_and_accounting():
    spans = _spans() + [Span("classify", 0.0, 1.0, 0, 1, count=5)]
    totals = layer_totals(spans, range(len(spans)))
    assert totals["classify"].self_s == pytest.approx(4.0)
    assert (totals["classify"].calls, totals["classify"].count) == (2, 105)
    assert totals["campaign"].self_s == pytest.approx(0.5)
    assert check_accounting(spans, 0) == pytest.approx(10.0)


def test_accounting_rejects_a_span_outside_its_root():
    spans = _spans() + [Span("stray", 20.0, 21.0, NO_PARENT, 1)]
    with pytest.raises(AssertionError):
        check_accounting(spans, 0)


def _small_run(simulator):
    from repro.config.parameters import DRIParameters

    trace, base_cpi = simulator.resolve_workload("gcc")
    simulator.run_conventional(trace)
    simulator.run_dri_trace(trace, base_cpi, DRIParameters(sense_interval=5_000))


def test_wrappers_are_restored_and_untraced_runs_call_the_originals():
    from repro.memory.cache import Cache
    from repro.simulation import engine
    from repro.simulation.simulator import Simulator
    from repro.workloads.source import TraceStore

    originals = (vars(Cache)["access_batch"], engine.replay_batched, vars(TraceStore)["save"])
    simulator = Simulator(trace_instructions=40_000)
    tracer = Tracer()
    bench.install_layer_tracing(tracer)
    try:
        assert vars(Cache)["access_batch"] is not originals[0]
        assert isinstance(vars(TraceStore)["save"], classmethod)
        with tracer.root("campaign", 1) as traced:
            _small_run(simulator)
    finally:
        tracer.uninstall()
    assert (vars(Cache)["access_batch"], engine.replay_batched, vars(TraceStore)["save"]) == originals
    names = {span.name for span in tracer.spans}
    assert {"memory.cache.l1_classify", "memory.hierarchy.l2_drain", "dri.end_interval"} <= names
    check_accounting(tracer.spans, traced.index)

    recorded = len(tracer.spans)
    with tracer.root("campaign", 2):
        _small_run(simulator)
    assert len(tracer.spans) == recorded + 1  # only the root: nothing is wrapped


def _stream_run() -> bench.Run:
    run = bench.Run("stream-li-10m", seed=2001, seconds=0)
    run.set_up()
    run.reference = campaigns.reference_digests(run.inputs, run.pins)
    return run


def test_pinned_stream_campaign_passes():
    run = _stream_run()
    campaign = run.campaign()
    assert campaign.l1_accesses == campaigns.STREAM_ACCESSES
    assert (run.ledger.attempted, run.ledger.failed) == (1, 0)


def test_a_digest_mismatch_counts_as_a_failed_run():
    run = _stream_run()
    run.reference = {key: "0" * 16 for key in run.reference}
    run.campaign()
    assert run.ledger.failed == 1
    assert run.ledger.failed_fraction > 0
    assert run.ledger.failures[0].startswith("li/conventional: digest")


def test_stream_peak_rss_stays_far_below_the_materialised_trace():
    materialised_mib = campaigns.STREAM_ACCESSES * 8 / 2**20  # uint64 addresses: 76 MiB
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "stream-li-10m", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=180,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    peak = result["metrics"]["peak_rss_mib"]["value"]
    # The whole process (interpreter, numpy, the checks) stays under the
    # size of the trace it streamed, and what it adds to a bare import of
    # the benchmark stays under half of it.
    imported = subprocess.run(
        [sys.executable, "-c",
         f"import sys, resource; sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; "
         "import campaigns; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)"],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert peak < materialised_mib
    assert peak - float(imported.stdout) < materialised_mib / 2


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3-dm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
