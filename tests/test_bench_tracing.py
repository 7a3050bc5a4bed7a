"""The benchmark's tracer and checks still fit the program.

``bench/tracing.py`` wraps entry points of every layer by name, so renaming
one of them in ``src/`` breaks the benchmark's ``--trace 1`` runs.  This
test instruments the package, runs one short scenario through it and
undoes the patches, as the benchmark does.  The benchmark's checks read a
run's records (loss trace, delivery times, controller traces) as they find
them, so a second test runs a short lossy pair through those checks.
"""

import importlib
import pathlib

from zigzagsim import harness, kernel
from zigzagsim.scenario import LossSpec, Scenario

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_instrument_and_undo(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    originals = (kernel.Simulator.schedule_at, harness.Network.run,
                 harness.TraceRecord)
    tracer = tracing.Tracer()
    patches = tracing.instrument(tracer)
    try:
        saved = list(patches._saved)
        sc = Scenario(flow_count=2, duration_s=5.0, warmup_s=0.0,
                      loss=LossSpec("gilbert", p=0.01, q=0.5))
        result = harness.run_scenario(sc)
    finally:
        patches.undo()
    assert saved
    assert all(obj.__dict__[attr] is value for obj, attr, value in saved)
    assert (kernel.Simulator.schedule_at, harness.Network.run,
            harness.TraceRecord) == originals
    counts = tracer.counts
    delivered = sum(fs.delivered for fs in result.flows)
    assert counts["harness.runs"] == 1
    assert counts["harness.delivered"] == delivered > 0
    assert counts["kernel.events.fb"] > 0
    assert counts["kernel.events.wless"] == counts["kernel.events.link"] == 0


def test_checks_read_the_run_records(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    sc = Scenario(flow_count=3, aggregate_rate_bps=1.5e6, duration_s=20.0,
                  warmup_s=0.0, loss=LossSpec("gilbert", p=0.05, q=0.5))
    baseline, zigzag = (harness.run_scenario(sc.with_policy(policy))
                        for policy in ("baseline", "zigzag"))
    for result in (baseline, zigzag):
        assert sum(fs.wireless_drops for fs in result.flows) > 0
        errors, congestion, _ = workloads.check_run(result,
                                                    result.scenario.policy)
        assert errors == []
        assert congestion > 0
    assert checks.check_prefix(baseline.loss_trace, zigzag.loss_trace,
                               "pair") == []
