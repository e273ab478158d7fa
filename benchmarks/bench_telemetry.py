"""Observability cost benchmarks: emit canonicalisation and monitor-off.

Two claims are enforced here, commit-to-commit:

``telemetry@0s``
    the recording sink's canonicaliser — the function every worker pays
    per streamed trace — must stay at least as fast as the
    ``json.loads(json.dumps(...))`` round trip it replaced, and the
    monitor's event fold must keep six-figure events/s throughput.
``telemetry-idle@…``
    a campaign with heartbeats *configured* but telemetry disabled must
    reproduce the plain campaign's observations exactly (the guard is
    one modulo per tick) and its ``experiment.measure`` phase rides the
    same +15% hard gate as the plain run's: the monitor is a true no-op
    when nobody is watching.
``telemetry-sampled@…``
    the performance observatory itself may not disturb what it
    observes: a campaign with the cost ledger and the sampling profiler
    attached reproduces the plain campaign's observations exactly, and
    the profiler-on measure phase stays within 10% of the plain one
    (plus a small absolute slack for runner jitter).
``telemetry-observed@…``
    the full forensics bundle (metrics, tracing, an event log and the
    cost ledger) changes no work: observations equal the plain run's,
    its ledger equals a costs-only run's counter for counter, and its
    measure phase is gated at ``OBSERVED_OVERHEAD_X`` times the plain
    one — the price of observing, measured and held.
"""

import gc
import time

from repro.core.experiment import ExperimentConfig, TestbedExperiment
from repro.telemetry import RecordingEventSink, Tracer, canonical_json_value
from repro.telemetry.monitor import CampaignMonitor
from repro.telemetry.profiling import RunProfiler

from .conftest import BENCH_PROBES, BENCH_SEED

INTERVAL_S = 120.0
DURATION_S = 3600.0
EMIT_ROUNDS = 2_000
MONITOR_EVENTS = 20_000
#: bound on the observed/plain ``experiment.measure`` ratio.  Ten runs
#: of this bench on a 2-vCPU Xeon KVM host measured 2.10-2.59x (median
#: 2.3x); before traced servers rode the template fast path the same
#: campaign measured 3.6-4.2x there.
OBSERVED_OVERHEAD_X = 3.0


class _TelemetryRun:
    """Minimal result object carrying a profile into the bench sidecar."""

    def __init__(self, profile: dict):
        self.profile = profile


def _trace_record() -> dict:
    """One campaign-shaped trace record (root + 2 exchanges + trips)."""
    tracer = Tracer()
    root = tracer.start_span(
        "resolver.resolve", at=0.0, resolver="10.53.0.1",
        qname="m-123-17.probe.ourtestdomain.nl.", qtype="TXT",
        rcode="NOERROR", site="FRA", cache="miss",
    )
    for attempt, (ns, outcome) in enumerate(
        [("10.0.0.53", "timeout"), ("10.0.1.53", "ok")]
    ):
        exchange = tracer.start_span(
            "resolver.exchange", at=0.1 * attempt, ns=ns,
            attempt=attempt + 1, outcome=outcome,
        )
        trip = tracer.start_span("net.round_trip", at=0.1 * attempt, dst=ns)
        if outcome == "ok":
            exchange.set(site="FRA", rtt_ms=31.25)
            query = tracer.start_span("auth.query", at=0.1 * attempt)
            tracer.finish_span(query, at=0.1 * attempt)
        tracer.finish_span(trip, at=0.1 * attempt + 0.03)
        tracer.finish_span(exchange, at=0.1 * attempt + 0.03)
    tracer.finish_span(root, at=0.23)
    return tracer.to_events()[0].to_record()


def run_micro_benchmarks() -> _TelemetryRun:
    import json

    gc.collect()
    gc.disable()
    try:
        profiler = RunProfiler()
        record = _trace_record()

        # the path the sink replaced, timed as the reference point
        start = time.perf_counter()
        for _ in range(EMIT_ROUNDS):
            json.loads(json.dumps(record))
        roundtrip_s = time.perf_counter() - start

        with profiler.phase("telemetry.emit_canonicalise"):
            for _ in range(EMIT_ROUNDS):
                canonical_json_value(record)
        direct_s = profiler.phases["telemetry.emit_canonicalise"]["seconds"]

        from repro.telemetry import RawEvent

        sink = RecordingEventSink()
        raw = RawEvent(record=record)
        with profiler.phase("telemetry.sink_emit"):
            for _ in range(EMIT_ROUNDS):
                sink.emit(raw)

        monitor = CampaignMonitor(clock=lambda: 0.0)
        from repro.telemetry.events import _event_from_record

        batch = [_event_from_record(record) for _ in range(64)]
        with profiler.phase("telemetry.monitor_consume"):
            for _ in range(MONITOR_EVENTS // len(batch)):
                monitor.consume(batch)
        profiler.count("telemetry.emits", 2 * EMIT_ROUNDS)
        profiler.count("telemetry.monitor_events", monitor.events_seen)
        profiler.record(
            "telemetry.canonicalise_speedup_x",
            round(roundtrip_s / direct_s, 3) if direct_s else 0.0,
        )
        return _TelemetryRun(profiler.as_dict())
    finally:
        gc.enable()


def test_emit_canonicalise_cost(benchmark, run_cache):
    result = benchmark.pedantic(run_micro_benchmarks, rounds=1, iterations=1)
    run_cache.put("telemetry", 0.0, result)

    phases = result.profile["phases"]
    speedup = result.profile["values"]["telemetry.canonicalise_speedup_x"]
    print()
    for name in sorted(phases):
        print(f"{name:<32} {phases[name]['seconds']:.3f}s")
    print(f"canonicalise speedup: {speedup:.2f}x over json round trip")

    # The direct canonicaliser replaced json.loads(json.dumps(...));
    # the whole point was shedding the serialize/parse round trip, so
    # it may never fall measurably behind it.  It wins by ~20% against
    # CPython's C json; the 0.85 floor absorbs runner jitter while a
    # real regression (an O(n^2) copy, an accidental re-serialize)
    # lands far below it.
    assert speedup >= 0.85
    # and it must agree with the round trip it replaced, exactly
    import json

    record = _trace_record()
    assert canonical_json_value(record) == json.loads(json.dumps(record))

    monitor_s = phases["telemetry.monitor_consume"]["seconds"]
    events_per_s = MONITOR_EVENTS / monitor_s if monitor_s else float("inf")
    print(f"monitor fold: {events_per_s:,.0f} events/s")
    assert events_per_s > 100_000


def test_monitor_off_campaign_is_free(benchmark, run_cache):
    plain = run_cache.get("2C", INTERVAL_S)
    config = ExperimentConfig.for_combination(
        "2C",
        num_probes=BENCH_PROBES,
        interval_s=INTERVAL_S,
        duration_s=DURATION_S,
        seed=BENCH_SEED,
        heartbeat_every_ticks=1,  # configured every tick, nobody listening
    )
    gc.collect()
    gc.disable()
    try:
        result = benchmark.pedantic(
            lambda: TestbedExperiment(config).run(), rounds=1, iterations=1
        )
    finally:
        gc.enable()
    run_cache.put("telemetry-idle", INTERVAL_S, result)

    # With telemetry off the heartbeat path is one guarded modulo per
    # tick: the campaign must reproduce the plain run byte for byte,
    # and its measure phase rides the sidecar's +15% hard gate.
    assert result.run.observations == plain.run.observations
    assert result.server_query_counts == plain.server_query_counts

    plain_s = plain.profile["phases"]["experiment.measure"]["seconds"]
    idle_s = result.profile["phases"]["experiment.measure"]["seconds"]
    print()
    print(
        f"experiment.measure: plain {plain_s:.2f}s, "
        f"monitor-off-with-heartbeats {idle_s:.2f}s"
    )


def test_sampling_profiler_identity_and_overhead(benchmark, run_cache):
    """The observatory watches the fast path without becoming one.

    Cost ledger + sampling profiler attached: observations stay byte
    for byte those of the plain cached run (neither pillar flips
    ``telemetry.enabled``, so the template/no-span fast paths stay
    live), and the profiled measure phase is pinned at <10% overhead
    plus an absolute slack that absorbs runner jitter.
    """
    from repro.telemetry import (
        CostLedger,
        NullRegistry,
        NullTracer,
        SamplingProfiler,
        Telemetry,
    )

    plain = run_cache.get("2C", INTERVAL_S)
    config = ExperimentConfig.for_combination(
        "2C",
        num_probes=BENCH_PROBES,
        interval_s=INTERVAL_S,
        duration_s=DURATION_S,
        seed=BENCH_SEED,
    )
    telemetry = Telemetry(
        NullRegistry(),
        NullTracer(),
        RunProfiler(),
        costs=CostLedger(),
        sampler=SamplingProfiler(mode="sample"),
    )
    assert not telemetry.enabled  # the fast paths must stay live
    gc.collect()
    gc.disable()
    try:
        result = benchmark.pedantic(
            lambda: TestbedExperiment(config, telemetry=telemetry).run(),
            rounds=1,
            iterations=1,
        )
    finally:
        gc.enable()
    run_cache.put("telemetry-sampled", INTERVAL_S, result)

    # byte-identical observations: the observatory is read-only
    assert result.run.observations == plain.run.observations
    assert result.server_query_counts == plain.server_query_counts
    # and the ledger agrees with what the run reports
    assert telemetry.costs.queries == len(result.run.observations)

    plain_s = plain.profile["phases"]["experiment.measure"]["seconds"]
    sampled_s = result.profile["phases"]["experiment.measure"]["seconds"]
    print()
    print(
        f"experiment.measure: plain {plain_s:.2f}s, "
        f"ledger+sampler {sampled_s:.2f}s "
        f"({sampled_s / plain_s:.2f}x)"
    )
    # <10% overhead, with an absolute floor so sub-second phases do not
    # fail on scheduler noise alone.
    assert sampled_s <= plain_s * 1.10 + 0.15


def test_full_observer_bundle_identity_and_overhead(benchmark, run_cache, tmp_path):
    """Every observer attached, and still the plain run's work.

    The bundle the forensics, SLO and costs tools read from: metrics,
    tracing, a streamed event log and the cost ledger.  Traced servers
    answer from the same response templates and no observer switches on
    exchange recording, so the ledger must equal a costs-only run's and
    the observations the plain run's.  The measure phase is gated at
    ``OBSERVED_OVERHEAD_X`` times the plain one's.
    """
    from repro.telemetry import CostLedger, NullRegistry, NullTracer, Telemetry

    plain = run_cache.get("2C", INTERVAL_S)
    config = ExperimentConfig.for_combination(
        "2C",
        num_probes=BENCH_PROBES,
        interval_s=INTERVAL_S,
        duration_s=DURATION_S,
        seed=BENCH_SEED,
    )
    costs_only = Telemetry(
        NullRegistry(), NullTracer(), RunProfiler(), costs=CostLedger()
    )
    TestbedExperiment(config, telemetry=costs_only).run()
    observed = Telemetry.enabled_bundle(
        costs=True, event_log=tmp_path / "events.jsonl"
    )
    gc.collect()
    gc.disable()
    try:
        result = benchmark.pedantic(
            lambda: TestbedExperiment(config, telemetry=observed).run(),
            rounds=1,
            iterations=1,
        )
    finally:
        gc.enable()
        observed.events.close()
    run_cache.put("telemetry-observed", INTERVAL_S, result)

    assert result.run.observations == plain.run.observations
    assert result.server_query_counts == plain.server_query_counts
    assert observed.costs.totals() == costs_only.costs.totals()

    plain_s = plain.profile["phases"]["experiment.measure"]["seconds"]
    observed_s = result.profile["phases"]["experiment.measure"]["seconds"]
    print()
    print(
        f"experiment.measure: plain {plain_s:.2f}s, "
        f"all observers {observed_s:.2f}s ({observed_s / plain_s:.2f}x)"
    )
    assert observed_s <= plain_s * OBSERVED_OVERHEAD_X + 0.15
