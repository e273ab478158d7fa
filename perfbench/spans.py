"""Outside-in span recorder for the traced benchmark run.

Wrappers are installed at class level on each layer's public methods
before the experiment is built; nothing under ``src/`` changes.  Every
wrapped call becomes a span with a name, start, end, parent span and
the id of the measured query it belongs to.  Spans stay in memory as
flat integer columns and are written out when the run ends.

Self time is a span's duration minus the time its child spans cover.
On the event kernel a query's later steps run from heap callbacks, so
``EventKernel.call_at`` is wrapped (without a span) to carry the
scheduling query's id into the callback it schedules.
"""

from __future__ import annotations

import functools
import json
import time
import types
from array import array

#: the layer groups spans are aggregated into (see ``install``).
GROUPS = (
    "dns.handle_wire", "dns.decode", "netsim.sample_path",
    "netsim.fault_active", "netsim.kernel_drain", "resolvers.resolve",
    "resolvers.selector", "resolvers.cache_lookup", "atlas.measure",
    "atlas.build_vps", "core.probes", "core.deploy", "telemetry",
)


class SpanRecorder:
    """Records spans from class-level wrappers; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_group: list[int] = []
        # Span columns, appended when a span ends.
        self.sid = array("q")
        self.parent = array("q")
        self.qid = array("q")
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        # Per-group running totals.  ``outer`` counts (and ``group_total``
        # times) only calls whose parent span is in another group, so a
        # subclass calling super() counts once.
        self.calls = [0] * len(GROUPS)
        self.outer = [0] * len(GROUPS)
        self.group_self = [0] * len(GROUPS)
        self.group_total = [0] * len(GROUPS)
        # Frames: [span id, child ns, group index]; index 0 is the root.
        self.stack = [[0, 0, -1]]
        self.next_id = 1
        self.current_query = 0
        # Counts taken where the work happens (not spans).
        self.sampled = 0
        self.lost = 0
        self.exchange_records = 0
        self.answered = 0
        self.attempts = 0
        self.ns_fetches = 0
        self.servers: set = set()

    # -- wrapping ------------------------------------------------------------

    def _name_index(self, name: str, group: str) -> int:
        self.names.append(name)
        self.name_group.append(GROUPS.index(group))
        return len(self.names) - 1

    def wrap(self, owner: type, attr: str, group: str, *, query: bool = False,
             before=None, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``query=True`` opens a new measured-query id for the call.
        ``before(args)`` returns the positional args to call with;
        ``after(result)`` sees the return value of outermost calls only
        (not of a subclass's ``super()`` call into the same group).
        Both run outside the span, so their cost lands in the caller's
        self time.
        """
        fn = owner.__dict__[attr]
        index = self._name_index(f"{owner.__name__}.{attr}", group)
        gidx = self.name_group[index]
        rec = self
        clock = time.perf_counter_ns
        stack = self.stack
        sid_a, parent_a, qid_a = self.sid.append, self.parent.append, self.qid.append
        name_a, start_a, end_a = self.name.append, self.start.append, self.end.append
        self_a = self.self_ns.append
        calls, outer = self.calls, self.outer
        group_self, group_total = self.group_self, self.group_total

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            parent = stack[-1]
            sid = rec.next_id
            rec.next_id = sid + 1
            previous_query = rec.current_query
            if query:
                rec.current_query = sid
            frame = [sid, 0, gidx]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                own = duration - frame[1]
                sid_a(sid)
                parent_a(parent[0])
                qid_a(rec.current_query)
                name_a(index)
                start_a(start)
                end_a(end)
                self_a(own)
                calls[gidx] += 1
                is_outer = parent[2] != gidx
                if is_outer:
                    outer[gidx] += 1
                    group_total[gidx] += duration
                group_self[gidx] += own
                rec.current_query = previous_query
            if after is not None and is_outer:
                after(result)
            return result

        setattr(owner, attr, wrapper)

    def _carry_query(self, kernel_cls: type) -> None:
        """Carry the scheduling query's id into kernel callbacks."""
        call_at = kernel_cls.__dict__["call_at"]
        rec = self

        def carried_call_at(kernel, at, fn, *arg):
            query = rec.current_query
            if query:
                inner = fn

                def fn(*args):
                    previous = rec.current_query
                    rec.current_query = query
                    try:
                        return inner(*args)
                    finally:
                        rec.current_query = previous

            return call_at(kernel, at, fn, *arg)

        kernel_cls.call_at = carried_call_at

    def _public_methods(self, cls: type, group: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            self.wrap(cls, attr, group)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        from repro.atlas.platform import AtlasPlatform
        from repro.atlas.probes import ProbeGenerator
        from repro.core.deployment import Deployment
        from repro.dns.message import ResponseDecodeMemo
        from repro.dns.server import AuthoritativeServer
        from repro.netsim.faults import FaultPlan
        from repro.netsim.network import SimNetwork
        from repro.netsim.sched import EventKernel
        from repro.resolvers.base import ServerSelector
        from repro.resolvers.resolver import ExchangeRecord, RecursiveResolver
        from repro.resolvers.rrcache import RecordCache
        from repro.telemetry.costs import CostLedger
        from repro.telemetry.events import EventLogWriter
        from repro.telemetry.registry import MetricsRegistry
        from repro.telemetry.tracing import Tracer

        servers = self.servers

        def seen_server(args):
            servers.add(args[0])
            return args

        def sampled(result):
            self.sampled += 1
            if result[0]:
                self.lost += 1

        def resolved(result):
            self.attempts += result.attempts
            self.ns_fetches += result.ns_fetches

        def answered(_result):
            self.answered += 1

        def completion_observed(args):
            # resolve_event(self, qname, qtype, kernel, done, ...): the
            # result arrives through ``done`` from a later kernel event.
            done = args[4]

            def observed_done(result):
                resolved(result)
                return done(result)

            return args[:4] + (observed_done,) + args[5:]

        self.wrap(AuthoritativeServer, "handle_wire", "dns.handle_wire",
                  before=seen_server)
        self.wrap(ResponseDecodeMemo, "decode", "dns.decode")
        self.wrap(SimNetwork, "sample_path", "netsim.sample_path", after=sampled)
        self.wrap(FaultPlan, "active", "netsim.fault_active")
        self.wrap(EventKernel, "run", "netsim.kernel_drain")
        self._carry_query(EventKernel)
        self.wrap(RecursiveResolver, "resolve", "resolvers.resolve",
                  query=True, after=resolved)
        self.wrap(RecursiveResolver, "resolve_event", "resolvers.resolve",
                  query=True, before=completion_observed)
        for cls in _subclasses(ServerSelector):
            for attr in ("select", "on_response", "on_timeout"):
                fn = cls.__dict__.get(attr)
                if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                    self.wrap(cls, attr, "resolvers.selector",
                              after=answered if attr == "on_response" else None)
        self.wrap(RecordCache, "lookup", "resolvers.cache_lookup")
        self.wrap(RecordCache, "lookup_negative", "resolvers.cache_lookup")
        self.wrap(AtlasPlatform, "measure", "atlas.measure")
        self.wrap(AtlasPlatform, "build_vantage_points", "atlas.build_vps")
        self.wrap(ProbeGenerator, "generate", "core.probes")
        self.wrap(Deployment, "deploy", "core.deploy")
        self._public_methods(Tracer, "telemetry")
        self._public_methods(MetricsRegistry, "telemetry")
        self.wrap(EventLogWriter, "emit", "telemetry")
        self.wrap(CostLedger, "count", "telemetry")

        record_init = ExchangeRecord.__init__

        def counted_init(record, *args, **kwargs):
            self.exchange_records += 1
            record_init(record, *args, **kwargs)

        ExchangeRecord.__init__ = counted_init

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Running totals, for differencing around the measure phase."""
        return {
            "calls": list(self.calls),
            "outer": list(self.outer),
            "self": list(self.group_self),
            "total": list(self.group_total),
            "sampled": self.sampled,
            "lost": self.lost,
            "exchange_records": self.exchange_records,
            "answered": self.answered,
            "attempts": self.attempts,
            "ns_fetches": self.ns_fetches,
        }

    def write(self, path) -> int:
        """Write every span as one JSON array per line; returns the count."""
        with open(path, "w") as fh:
            fh.write(json.dumps({
                "kind": "perfbench.spans",
                "columns": ["id", "parent", "query", "name", "start_ns",
                            "end_ns", "self_ns"],
                "names": self.names,
                "groups": [GROUPS[g] for g in self.name_group],
            }) + "\n")
            for row in zip(self.sid, self.parent, self.qid, self.name,
                           self.start, self.end, self.self_ns):
                fh.write("[%d,%d,%d,%d,%d,%d,%d]\n" % row)
        return len(self.sid)


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def layer_metrics(
    before: dict, after: dict, *, import_s: float, queries: int, sent: int,
    nxdomain: int, server_queries: int, event_bytes: int,
) -> dict[str, float]:
    """The per-layer figures from measure-phase totals (``after - before``).

    ``before``/``after`` are :meth:`SpanRecorder.snapshot` results taken
    around the measure phase; set-up spans all end before ``before``.
    The keyword arguments are the import time and counts read from the
    finished run.
    """

    def delta(key, group=None):
        if group is None:
            return after[key] - before[key]
        g = GROUPS.index(group)
        return after[key][g] - before[key][g]

    def per_call_us(group):
        calls = delta("calls", group)
        return delta("self", group) / calls / 1e3 if calls else 0.0

    def per_query(value):
        return value / queries

    def seconds(group):
        return before["total"][GROUPS.index(group)] / 1e9

    measure_total = delta("total", "atlas.measure")
    measure_self = delta("self", "atlas.measure")
    selector_calls = delta("outer", "resolvers.selector")
    return {
        "dns.handle_wire_us": per_call_us("dns.handle_wire"),
        "dns.handle_wire_per_query": per_query(delta("calls", "dns.handle_wire")),
        "dns.nxdomain_share": nxdomain / server_queries if server_queries else 0.0,
        "dns.decode_us": per_call_us("dns.decode"),
        "dns.decode_per_query": per_query(delta("calls", "dns.decode")),
        "netsim.sample_path_us": per_call_us("netsim.sample_path"),
        "netsim.sample_path_per_query": per_query(delta("calls", "netsim.sample_path")),
        "netsim.loss_share": (
            delta("lost") / delta("sampled") if delta("sampled") else 0.0
        ),
        "netsim.fault_active_us": per_call_us("netsim.fault_active"),
        "netsim.kernel_drain_self_us_per_query": per_query(
            delta("self", "netsim.kernel_drain") / 1e3
        ),
        "resolvers.resolve_self_us_per_query": per_query(
            delta("self", "resolvers.resolve") / 1e3
        ),
        "resolvers.exchanges_per_query": per_query(delta("attempts")),
        "resolvers.answered_exchange_ratio": delta("answered") / sent if sent else 0.0,
        "resolvers.ns_fetches_per_query": per_query(delta("ns_fetches")),
        "resolvers.selector_us": (
            delta("self", "resolvers.selector") / selector_calls / 1e3
            if selector_calls else 0.0
        ),
        "resolvers.selector_calls_per_query": per_query(selector_calls),
        "resolvers.cache_lookup_us": per_call_us("resolvers.cache_lookup"),
        "atlas.measure_self_us_per_query": per_query(measure_self / 1e3),
        "atlas.build_vps_s": seconds("atlas.build_vps"),
        "core.import_s": import_s,
        "core.probes_s": seconds("core.probes"),
        "core.deploy_s": seconds("core.deploy"),
        "telemetry.self_us_per_query": per_query(delta("self", "telemetry") / 1e3),
        "telemetry.event_bytes_per_query": per_query(event_bytes),
        "telemetry.exchange_records_per_query": per_query(delta("exchange_records")),
        "trace.unattributed_share": (
            measure_self / measure_total if measure_total else 0.0
        ),
    }
