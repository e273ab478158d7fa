"""The measurement platform: vantage points querying through recursives.

A :class:`VantagePoint` is a (probe, recursive) pair — the unit of
analysis in the paper (§3.1).  :class:`AtlasPlatform` builds the
recursive resolvers for a probe set from a population mix, wires them to
the simulated network, and runs the periodic TXT measurement with
cache-busting unique labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.store import (
    MeasurementRun,
    ObservationStore,
    QueryObservation,
)
from ..dns.name import Name
from ..dns.types import RRType
from ..netsim.events import EventScheduler
from ..netsim.geo import Continent, cities_by_continent
from ..netsim.network import SimNetwork
from ..resolvers.population import ResolverPopulation
from ..resolvers.resolver import RecursiveResolver
from ..seeding import derive_rng
from ..telemetry import NULL_TELEMETRY
from .probes import Probe

#: vp_id = probe_id * VPS_PER_PROBE + ordinal — derivable from the probe
#: alone, so shard workers assign the same ids the serial run would.
VPS_PER_PROBE = 2


@dataclass(frozen=True)
class VantagePoint:
    """One (probe, recursive) pair — a VP in the paper's terminology."""

    vp_id: int
    probe: Probe
    resolver: RecursiveResolver
    impl_name: str  # ground truth, invisible to the paper's methodology

    @property
    def continent(self) -> Continent:
        return self.probe.continent


class AtlasPlatform:
    """Builds vantage points and runs measurements against a deployment."""

    def __init__(
        self,
        network: SimNetwork,
        probes: list[Probe],
        population: ResolverPopulation,
        rng: random.Random | None = None,
        second_resolver_share: float = 0.12,
        remote_resolver_share: float = 0.20,
        resolver_sharing_share: float = 0.25,
        public_services: list | None = None,
        public_resolver_share: float = 0.0,
        telemetry=None,
        seed: int | None = None,
        resolver_options: dict | None = None,
    ):
        self.network = network
        self.probes = probes
        self.population = population
        if telemetry is None:
            telemetry = getattr(network, "telemetry", None)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Every stochastic decision derives from (seed, probe/vp path),
        # never from a shared sequential stream — this is what makes a
        # probe's vantage points identical whether the platform holds
        # the whole population or one shard of it.  ``rng`` remains as a
        # compatibility spelling: it contributes only the seed.
        if seed is None:
            seed = (rng if rng is not None else random.Random(0)).getrandbits(63)
        self.seed = seed
        self.rng = rng if rng is not None else derive_rng(seed, "platform.shared")
        self.second_resolver_share = second_resolver_share
        self.remote_resolver_share = remote_resolver_share
        self.resolver_sharing_share = resolver_sharing_share
        self.public_services = list(public_services or [])
        self.public_resolver_share = public_resolver_share
        if self.public_resolver_share > 0.0 and not self.public_services:
            raise ValueError("public_resolver_share needs public_services")
        #: extra RecursiveResolver kwargs applied to every ISP resolver
        #: (e.g. MaxFetch mitigations during adversarial campaigns).
        self.resolver_options = dict(resolver_options or {})
        #: compiled :class:`repro.netsim.adversary.AttackPlan` driving a
        #: botnet subset of VPs (None = benign campaign).
        self.attack_plan = None
        self.vantage_points: list[VantagePoint] = []
        self._resolver_by_as: dict[int, RecursiveResolver] = {}
        self._impl_by_resolver: dict[str, str] = {}

    # -- construction -------------------------------------------------------

    def _new_resolver(
        self, probe: Probe, ordinal: int, rng: random.Random
    ) -> tuple[RecursiveResolver, str]:
        """Create a recursive near the probe (ISP resolver model).

        Address, implementation draw, and internal streams all derive
        from (probe id, ordinal), so the resolver is bit-identical no
        matter how many other probes exist or which shard builds it.
        ``rng`` is the probe's decision stream (placement draws only).
        """
        sample = self.population.sample(
            rng=derive_rng(self.seed, "impl", probe.probe_id, ordinal)
        )
        location = probe.location
        if rng.random() < self.remote_resolver_share:
            # ISP resolver in another city on the same continent.
            location = rng.choice(cities_by_continent(probe.continent))
        address = (
            f"10.{53 + ordinal}.{probe.probe_id // 250}"
            f".{probe.probe_id % 250 + 1}"
        )
        resolver = RecursiveResolver(
            address,
            location,
            self.network,
            sample.selector,
            infra_ttl_s=sample.infra_ttl_s,
            rng=derive_rng(self.seed, "resolver", probe.probe_id, ordinal),
            **self.resolver_options,
        )
        self._impl_by_resolver[address] = sample.impl_name
        return resolver, sample.impl_name

    def build_vantage_points(self) -> list[VantagePoint]:
        """Assign recursives to probes: shared within AS, sometimes two.

        Probes are processed in probe-id order and each consults only
        its own derived stream plus per-AS sharing state.  An AS's
        probes must all be built by the same platform instance (the
        sharded engine partitions by ASN) for sharing to match a
        whole-population build.
        """
        self.vantage_points = []
        for probe in sorted(self.probes, key=lambda p: p.probe_id):
            rng = derive_rng(self.seed, "vp", probe.probe_id)
            resolvers: list[tuple[RecursiveResolver, str]] = []
            if (
                self.public_services
                and rng.random() < self.public_resolver_share
            ):
                service = rng.choice(self.public_services)
                instance = service.instance_for(probe, self.network)
                resolvers.append((instance, "public"))
            else:
                shared = self._resolver_by_as.get(probe.asn)
                if shared is not None and rng.random() < self.resolver_sharing_share:
                    resolvers.append(
                        (shared, self._impl_by_resolver[shared.address])
                    )
                else:
                    resolver, impl = self._new_resolver(probe, 0, rng)
                    self._resolver_by_as.setdefault(probe.asn, resolver)
                    resolvers.append((resolver, impl))
                if rng.random() < self.second_resolver_share:
                    resolver, impl = self._new_resolver(probe, 1, rng)
                    resolvers.append((resolver, impl))
            for ordinal, (resolver, impl) in enumerate(resolvers):
                vp_id = probe.probe_id * VPS_PER_PROBE + ordinal
                self.vantage_points.append(
                    VantagePoint(vp_id, probe, resolver, impl)
                )
        return self.vantage_points

    def configure_zone(self, origin: Name | str, addresses: list[str]) -> None:
        """Teach every vantage point's recursive the zone's NS addresses.

        Keyed by resolver *instance*, not address: anycast public
        services run many instances behind one address.
        """
        if isinstance(origin, str):
            origin = Name.from_text(origin)
        origin = origin.intern()  # parse once, share across all resolvers
        seen: set[int] = set()
        for vp in self.vantage_points:
            if id(vp.resolver) not in seen:
                vp.resolver.add_stub_zone(origin, addresses)
                seen.add(id(vp.resolver))

    # -- measurement ------------------------------------------------------------

    def _profiled_vps(
        self, store: ObservationStore
    ) -> list[tuple[VantagePoint, int]]:
        """Pair each VP with its store profile id, registered once.

        The profile carries the VP's constant columns (probe id,
        recursive address, implementation, continent), so the per-query
        record is a handful of scalar appends.
        """
        return [
            (
                vp,
                store.profile_id(
                    vp.probe.probe_id,
                    vp.resolver.address,
                    vp.impl_name,
                    vp.continent,
                ),
            )
            for vp in self.vantage_points
        ]

    def _record(
        self,
        store: ObservationStore,
        vp: VantagePoint,
        profile_id: int,
        label: bytes,
        suffix_id: int,
        now: float,
        result,
    ) -> None:
        """Record one finished resolution as a store row.

        ``now`` is the query *issue* time (the measurement tick), not the
        completion time: observations sort by (timestamp, vp_id) in the
        canonical merge, and the issue time is the layout-invariant key
        both the synchronous loop and the event kernel agree on.  The
        qname is stored as its unique ``label`` bytes plus the interned
        campaign suffix (``suffix_id``) — no qname string materializes.
        """
        site = ""
        if result.succeeded:
            marker = result.txt_value() or ""
            site = marker.rsplit("-", 1)[-1] if marker else ""
        store.append(
            vp.vp_id,
            profile_id,
            now,
            label,
            suffix_id,
            site,
            result.final_address,
            result.rtt_ms,
            result.attempts,
            result.succeeded,
        )
        telemetry = self.telemetry
        if telemetry.enabled:
            metrics = telemetry.instruments
            site = site or "none"
            metrics.measurements.labels(result.final_address or "none", site).inc()
            if result.rtt_ms is not None:
                metrics.measurement_rtt.labels(site).observe(result.rtt_ms)
            if not result.succeeded:
                metrics.measurement_failures.labels().inc()
            telemetry.profiler.count("observations")

    def measure(
        self,
        domain: str,
        interval_s: float = 120.0,
        duration_s: float = 3600.0,
        label_prefix: str = "m",
        heartbeat_every: int = 0,
        shard: int | None = None,
        kernel: bool = False,
    ) -> MeasurementRun:
        """Run the paper's campaign: a TXT query per VP per interval.

        Labels are unique per (VP, tick) so recursive record caches never
        short-circuit a query (§3.1 "cold caches").

        ``heartbeat_every`` > 0 emits a ``shard.heartbeat`` note to the
        event sink after every N completed ticks — the live monitor's
        progress feed.  Heartbeats are deterministic (virtual
        timestamps, tick counts) and the parallel engine excludes them
        from the canonical merged log, so enabling them never perturbs
        a result.  The default 0 skips everything, including the flush.

        ``kernel=True`` drives the campaign through the discrete-event
        kernel: ticks are timer events, responses are delivery events,
        and retries are timeout events, so the whole campaign is one
        heap drain interleaving every in-flight query.  Observations
        carry the same content as the synchronous loop — issue-time
        timestamps, layout-invariant RNG streams — so the canonical
        merged output stays byte-identical across worker layouts.
        """
        if not self.vantage_points:
            self.build_vantage_points()
        run = MeasurementRun(domain, interval_s, duration_s)
        ticks = int(duration_s // interval_s)
        self._emit_campaign_note(
            "measure.start", domain, interval_s, duration_s,
        )
        # Parse the invariant suffix once; each query name is then one
        # prepended label instead of a full text parse per query.
        suffix = Name.from_text(f"probe.{domain}").intern()
        store = run.store
        suffix_id = store.intern(f".probe.{domain}")
        profiled = self._profiled_vps(store)
        costs = self.telemetry.costs
        costs_on = costs.enabled
        # Botnet membership is a pure function of (attack seed, vp_id):
        # any shard conscripts the same VPs the serial run would.
        plan = self.attack_plan
        bots = plan.bot_ids(vp.vp_id for vp, _ in profiled) if plan else frozenset()
        if kernel:
            self._measure_kernel(
                run, ticks, interval_s, label_prefix, suffix, suffix_id,
                profiled, heartbeat_every, shard, plan, bots,
            )
        else:
            clock = self.network.clock
            record = self._record
            txt = RRType.TXT
            child = suffix.child
            epoch = clock.now
            with self.telemetry.profiler.phase("platform.measure"):
                for tick in range(ticks):
                    if costs_on:
                        # One virtual-time timer firing per measurement
                        # tick — the synchronous stand-in for the
                        # kernel's tick event.
                        costs.count("timer_event")
                    now = clock.now
                    attacking = plan is not None and plan.active(now - epoch)
                    for vp, pid in profiled:
                        if attacking and vp.vp_id in bots:
                            qname, label, s_text = plan.query_for(
                                vp.vp_id, tick
                            )
                            sid = store.intern(s_text)
                            if costs_on:
                                costs.count("attack_query")
                        else:
                            label = f"{label_prefix}-{vp.vp_id}-{tick}".encode(
                                "ascii"
                            )
                            qname, sid = child(label), suffix_id
                        result = vp.resolver.resolve(qname, txt)
                        record(store, vp, pid, label, sid, now, result)
                    clock.advance(interval_s)
                    if heartbeat_every and (tick + 1) % heartbeat_every == 0:
                        self._emit_heartbeat(
                            tick + 1, ticks, len(store), shard
                        )
        self._emit_campaign_note(
            "measure.end", domain, interval_s, duration_s,
            observations=len(run.store),
        )
        return run

    def _measure_kernel(
        self,
        run: MeasurementRun,
        ticks: int,
        interval_s: float,
        label_prefix: str,
        suffix: Name,
        suffix_id: int,
        profiled: list[tuple[VantagePoint, int]],
        heartbeat_every: int,
        shard: int | None,
        plan=None,
        bots: frozenset = frozenset(),
    ) -> None:
        """The campaign as one event-kernel drain.

        Every tick is a timer event issuing one query per VP (in vp_id
        order, which pins the heap's tie-break sequence to the same
        order the synchronous loop uses); completions append to the run
        via per-query callbacks.  The drain runs past the campaign end
        so in-flight retries finish — then the clock is brought to the
        nominal campaign end if the last event fell short of it.
        """
        from functools import partial

        from ..netsim.sched import EventKernel

        clock = self.network.clock
        costs = self.telemetry.costs
        kernel = EventKernel(clock=clock, costs=costs)
        epoch = clock.now
        store = run.store
        record = self._record
        costs_on = costs.enabled

        def tick_event(tick: int) -> None:
            if costs_on:
                costs.count("timer_event")
            now = clock.now
            # Same per-VP attack decision as the synchronous loop — the
            # qname stream must not depend on the engine.
            attacking = plan is not None and plan.active(now - epoch)
            for vp, pid in profiled:
                if attacking and vp.vp_id in bots:
                    qname, label, s_text = plan.query_for(vp.vp_id, tick)
                    sid = store.intern(s_text)
                    if costs_on:
                        costs.count("attack_query")
                else:
                    label = f"{label_prefix}-{vp.vp_id}-{tick}".encode("ascii")
                    qname, sid = suffix.child(label), suffix_id
                vp.resolver.resolve_event(
                    qname,
                    RRType.TXT,
                    kernel,
                    partial(record, store, vp, pid, label, sid, now),
                )

        for tick in range(ticks):
            kernel.call_at(epoch + tick * interval_s, tick_event, tick)
        if heartbeat_every:
            for tick in range(heartbeat_every, ticks + 1, heartbeat_every):
                kernel.call_at(
                    epoch + tick * interval_s,
                    partial(self._emit_kernel_heartbeat, run, tick, ticks, shard),
                )
        with self.telemetry.profiler.phase("platform.measure"):
            kernel.run()
        end = epoch + ticks * interval_s
        if end > clock.now:
            clock.advance_to(end)

    def _emit_kernel_heartbeat(
        self, run: MeasurementRun, tick: int, ticks: int, shard: int | None
    ) -> None:
        self._emit_heartbeat(tick, ticks, len(run.store), shard)

    def _emit_heartbeat(
        self, tick: int, ticks: int, observations: int, shard: int | None
    ) -> None:
        """One shard-progress note, flushed eagerly so tailers see it."""
        events = self.telemetry.events
        if not events.enabled:
            return
        from ..telemetry import Note

        events.emit(Note(
            name="shard.heartbeat",
            at=self.network.clock.now,
            data={
                "shard": int(shard or 0),
                "tick": tick,
                "ticks": ticks,
                "observations": observations,
                "vantage_points": len(self.vantage_points),
                "virtual_s": self.network.clock.now,
            },
        ))
        events.flush()

    def _emit_campaign_note(
        self, name: str, domain: str, interval_s: float, duration_s: float,
        **extra,
    ) -> None:
        """Mark campaign boundaries in the event log, when one is attached."""
        events = self.telemetry.events
        if not events.enabled:
            return
        from ..telemetry import Note

        events.emit(Note(
            name=name,
            at=self.network.clock.now,
            data={
                "domain": domain,
                "interval_s": interval_s,
                "duration_s": duration_s,
                "vantage_points": len(self.vantage_points),
                **extra,
            },
        ))

    def measure_event_driven(
        self,
        domain: str,
        interval_s: float = 120.0,
        duration_s: float = 3600.0,
        label_prefix: str = "e",
    ) -> MeasurementRun:
        """Like :meth:`measure`, but on the discrete-event engine.

        Real Atlas probes are not synchronized: each VP fires at its own
        phase within the interval.  Queries are events on the shared
        virtual clock, so interleavings are realistic while remaining
        fully deterministic for a given platform RNG.
        """
        if not self.vantage_points:
            self.build_vantage_points()
        run = MeasurementRun(domain, interval_s, duration_s)
        scheduler = EventScheduler(
            clock=self.network.clock, telemetry=self.telemetry
        )
        epoch = self.network.clock.now

        suffix = Name.from_text(f"probe.{domain}").intern()
        store = run.store
        suffix_id = store.intern(f".probe.{domain}")

        def fire(vp: VantagePoint, pid: int, tick: int) -> None:
            now = self.network.clock.now
            label = f"{label_prefix}-{vp.vp_id}-{tick}".encode("ascii")
            result = vp.resolver.resolve(suffix.child(label), RRType.TXT)
            self._record(store, vp, pid, label, suffix_id, now, result)
            next_at = now + interval_s
            if next_at - epoch < duration_s:
                scheduler.schedule_at(next_at, lambda: fire(vp, pid, tick + 1))

        for vp, pid in self._profiled_vps(store):
            # Phase derives from the VP identity, not a shared stream, so
            # the firing schedule survives population resharding.
            phase = derive_rng(self.seed, "phase", vp.vp_id).uniform(
                0.0, interval_s
            )
            scheduler.schedule_at(
                epoch + phase, lambda vp=vp, pid=pid: fire(vp, pid, 0)
            )
        self._emit_campaign_note(
            "measure.start", domain, interval_s, duration_s,
        )
        with self.telemetry.profiler.phase("platform.measure"):
            scheduler.run_until(epoch + duration_s)
        self._emit_campaign_note(
            "measure.end", domain, interval_s, duration_s,
            observations=len(run.store),
        )
        return run
