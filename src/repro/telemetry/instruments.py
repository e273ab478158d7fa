"""The simulator's metric families, bound once per telemetry bundle.

Every hot-path counter and histogram the simulated system exports is
declared here, once, as a :class:`~repro.telemetry.registry.MetricHandle`
on the bundle's registry.  Instrumented components reach them through
``telemetry.instruments`` and fetch a child per event with a positional
lookup (``instruments.auth_queries.labels(server_id).inc()``) instead
of re-registering the family and matching keyword labels each time.

Handles register their family on first use, so a run exports exactly
the families it touched, as before.  With a :class:`NullRegistry` every
handle is the shared no-op child.
"""

from __future__ import annotations

#: (attribute, kind, family name, help, label names)
_FAMILIES = (
    ("auth_queries", "counter", "authoritative_queries_total",
     "queries received, by authoritative instance", ("server",)),
    ("auth_responses", "counter", "authoritative_responses_total",
     "responses sent, by authoritative instance and rcode",
     ("server", "rcode")),
    ("auth_log_dropped", "counter", "authoritative_query_log_dropped_total",
     "query-log entries evicted by the ring buffer", ("server",)),
    ("fault_drops", "counter", "sim_fault_drops_total",
     "round trips dropped by an injected fault", ("dst", "fault")),
    ("lost", "counter", "sim_lost_total",
     "round trips lost in the simulated network", ("dst",)),
    ("round_trips", "counter", "sim_round_trips_total",
     "query/response exchanges delivered, by destination and site",
     ("dst", "site")),
    ("rtt", "histogram", "sim_rtt_ms",
     "sampled round-trip time (ms)", ("site",)),
    ("resolver_queries", "counter", "resolver_queries_total",
     "resolutions attempted by recursives", ()),
    ("resolutions", "counter", "resolver_resolutions_total",
     "completed resolutions, by outcome rcode", ("rcode",)),
    ("resolver_cache", "counter", "resolver_cache_total",
     "record-cache outcomes per resolution", ("result",)),
    ("exchanges", "counter", "resolver_exchanges_total",
     "exchange attempts against authoritatives, by outcome", ("outcome",)),
    ("selector_events", "counter", "selector_events_total",
     "selection-feedback events, by selector family and kind",
     ("selector", "event")),
    ("measurements", "counter", "measurement_queries_total",
     "measured queries, by answering NS address and site", ("ns", "site")),
    ("measurement_rtt", "histogram", "measurement_rtt_ms",
     "RTT of the final answering exchange (ms)", ("site",)),
    ("measurement_failures", "counter", "measurement_failures_total",
     "measurements with no successful answer", ()),
    ("events_processed", "counter", "sim_events_processed_total",
     "discrete events executed by the scheduler", ()),
    ("events_pending", "gauge", "sim_events_pending",
     "events waiting in the scheduler queue", ()),
)


class Instruments:
    """One handle per simulator metric family, on one registry."""

    __slots__ = tuple(attribute for attribute, *_ in _FAMILIES)

    def __init__(self, registry):
        for attribute, kind, name, help, labelnames in _FAMILIES:
            setattr(self, attribute, registry.handle(kind, name, help, labelnames))


__all__ = ["Instruments"]
