"""Observing changes no work: the full observer bundle against bare runs.

A campaign under ``Telemetry.enabled_bundle(costs=True, event_log=...)``
(metrics, tracing, event log and cost ledger at once) must execute the
same simulated operations as a run with only the ledger attached, so the
two ledgers agree counter for counter, and must produce the same
observations as a run with nothing attached.  Both engines.
"""

import pytest

from repro.core.experiment import ExperimentConfig, TestbedExperiment
from repro.telemetry import (
    CostLedger,
    NullRegistry,
    NullTracer,
    RunProfiler,
    Telemetry,
    TraceEvent,
    read_events,
)


def config(kernel: bool) -> ExperimentConfig:
    return ExperimentConfig.for_combination(
        "2C", num_probes=40, interval_s=120.0, duration_s=480.0, seed=23,
        kernel=kernel,
    )


@pytest.mark.parametrize("kernel", [False, True], ids=["sync", "kernel"])
def test_full_bundle_does_the_work_of_a_bare_run(kernel, tmp_path):
    bare = TestbedExperiment(config(kernel)).run()

    costs_only = Telemetry(
        NullRegistry(), NullTracer(), RunProfiler(), costs=CostLedger()
    )
    TestbedExperiment(config(kernel), telemetry=costs_only).run()

    log = tmp_path / "events.jsonl"
    full = Telemetry.enabled_bundle(costs=True, event_log=log)
    observed = TestbedExperiment(config(kernel), telemetry=full).run()
    full.events.close()

    totals = full.costs.totals()
    assert totals == costs_only.costs.totals()
    # The template fast path served the traced run, and no observer
    # switched exchange recording on.
    assert totals["template_hit"] > 0
    assert "exchange_record" not in totals

    assert observed.run.observations == bare.run.observations
    assert observed.server_query_counts == bare.server_query_counts
    traces = [e for e in read_events(log) if isinstance(e, TraceEvent)]
    assert len(traces) == len(observed.run.observations)
