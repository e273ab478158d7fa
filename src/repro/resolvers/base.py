"""Server-selection interface.

A :class:`ServerSelector` decides, per outgoing query, which of a zone's
authoritative addresses to contact, and learns from the outcome.  One
selector instance belongs to one recursive resolver (its state *is* the
resolver's preference).
"""

from __future__ import annotations

import abc
import random

from ..seeding import default_rng
from ..telemetry import NULL_TELEMETRY
from .infracache import InfrastructureCache


class ServerSelector(abc.ABC):
    """Strategy for choosing among a zone's authoritative addresses."""

    #: short identifier used in population mixes and reports
    name: str = "abstract"
    #: whether the implementation keeps an infrastructure cache at all
    uses_infra_cache: bool = True
    #: telemetry bundle; the owning resolver overwrites this when it is
    #: itself instrumented (class-level default keeps it zero-cost)
    telemetry = NULL_TELEMETRY

    def __init__(self, rng: random.Random | None = None):
        # Namespaced per selector family: two different selector classes
        # falling back to the default must not tie-break identically
        # (the old Random(0) default synchronized them).
        self.rng = (
            rng if rng is not None
            else default_rng("resolvers.selector", type(self).name)
        )

    @abc.abstractmethod
    def select(
        self, addresses: list[str], cache: InfrastructureCache, now: float
    ) -> str:
        """Pick the authoritative address for the next query."""

    def on_response(
        self,
        address: str,
        rtt_ms: float,
        addresses: list[str],
        cache: InfrastructureCache,
        now: float,
    ) -> None:
        """Fold a successful exchange into the selector's state."""
        cache.observe_rtt(address, rtt_ms, now)
        if self.telemetry.enabled:
            self.telemetry.instruments.selector_events.labels(
                self.name, "response"
            ).inc()

    def on_timeout(
        self,
        address: str,
        addresses: list[str],
        cache: InfrastructureCache,
        now: float,
    ) -> None:
        """Fold a timeout into the selector's state."""
        cache.observe_timeout(address, now)
        if self.telemetry.enabled:
            self.telemetry.instruments.selector_events.labels(
                self.name, "timeout"
            ).inc()

    def reset(self) -> None:
        """Forget per-zone transient state (not the infra cache)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
