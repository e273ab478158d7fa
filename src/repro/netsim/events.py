"""Telemetry-counting facade over the discrete-event kernel.

The heap, ordering, and cancellation semantics live in
:class:`~repro.netsim.sched.EventKernel`; this subclass keeps the
historical :class:`EventScheduler` surface (``schedule_at`` /
``schedule_in``) and adds per-event metrics when a telemetry bundle is
attached — the right tool for instrumented, human-scale runs, while the
bare kernel is what campaign hot loops drive.
"""

from __future__ import annotations

from typing import Callable

from ..telemetry import NULL_TELEMETRY
from .clock import SimClock
from .sched import EventKernel


class EventScheduler(EventKernel):
    """Priority-queue event loop over virtual time.

    Events scheduled for the same instant run in scheduling order, which
    keeps campaign runs reproducible.
    """

    __slots__ = ("telemetry",)

    def __init__(self, clock: SimClock | None = None, telemetry=None):
        super().__init__(clock=clock)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    def schedule_at(self, timestamp: float, callback: Callable[[], None]) -> list:
        """Run ``callback`` at an absolute virtual time."""
        return self.call_at(timestamp, callback)

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> list:
        """Run ``callback`` after a relative delay."""
        return self.call_later(delay, callback)

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        if not super().step():
            return False
        telemetry = self.telemetry
        if telemetry.enabled:
            metrics = telemetry.instruments
            metrics.events_processed.labels().inc()
            metrics.events_pending.labels().set(self.pending)
        return True

    def run_until(self, timestamp: float) -> int:
        """Process every event with time <= ``timestamp``, then jump there.

        Routed through :meth:`step` so the per-event telemetry counters
        fire; the bare kernel's inlined loop skips them by design.
        """
        executed = 0
        heap = self._heap
        while heap:
            head = heap[0]
            if head[0] > timestamp:
                break
            if self.step():
                executed += 1
        if timestamp > self.clock.now:
            self.clock.advance_to(timestamp)
        return executed

    def run(self, max_events: int | None = None) -> int:
        """Drain the queue; returns the number of events processed."""
        count = 0
        while self.step():
            count += 1
            if max_events is not None and count >= max_events:
                break
        return count


__all__ = ["EventScheduler"]
