"""A small discrete-event simulation engine.

Everything event-driven in this repository (the NP and N2 protocol machines,
the example applications) runs on this scheduler.  It is intentionally
minimal: a monotonic simulated clock, a binary-heap event queue with stable
FIFO ordering for simultaneous events, and cancellable timers — the three
things a NAK-suppression protocol actually needs — plus multicast fan-outs:
one heap entry that delivers a packet to many handlers, one per step.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> handle = sim.schedule(2.0, lambda: fired.append(sim.now))
>>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
>>> sim.run()
>>> fired
[1.0, 2.0]
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Sequence
from typing import Any

__all__ = ["Simulator", "EventHandle", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for scheduler misuse (negative delays, runaway event loops)."""


class EventHandle:
    """A scheduled callback that can be cancelled before it fires."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]):
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired.

        The callback is released at once: it usually closes over the
        object holding this handle, and would otherwise keep that cycle
        alive.
        """
        self.cancelled = True
        self.callback = None


class _Fanout:
    """One packet bound for several handlers: a single heap entry."""

    __slots__ = ("handlers", "packet", "next")

    #: fan-outs are never cancelled; the attribute lets :meth:`Simulator.step`
    #: test every heap entry alike
    cancelled = False

    def __init__(self, handlers, packet):
        self.handlers = handlers
        self.packet = packet
        self.next = 0


class Simulator:
    """Discrete-event scheduler with a floating-point clock.

    The heap holds ``(time, sequence, entry)`` tuples, the sequence number
    breaking ties in FIFO order.  An entry is an :class:`EventHandle` or a
    fan-out from :meth:`schedule_fanout`; a fan-out dispatches one handler
    per :meth:`step`, so every delivery is still one event — counted,
    budgeted and interleaved exactly as if each receiver's copy had its own
    heap entry.

    Parameters
    ----------
    max_events:
        Safety valve: :meth:`run` raises :class:`SimulationError` after this
        many dispatched events, catching protocol livelocks in tests instead
        of hanging them.
    """

    def __init__(self, max_events: int = 50_000_000):
        self.now = 0.0
        self.max_events = max_events
        self.events_dispatched = 0
        self._queue: list[tuple[float, int, EventHandle | _Fanout]] = []
        self._sequence = itertools.count()
        #: the fan-out being dispatched, until its last handler has run
        self._fanout: _Fanout | None = None

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        handle = EventHandle(time, callback)
        heapq.heappush(self._queue, (time, next(self._sequence), handle))
        return handle

    def schedule_fanout(
        self, delay: float, handlers: Sequence[Callable[[Any], None]], packet: Any
    ) -> None:
        """Call ``handler(packet)`` for each of ``handlers``, in order,
        ``delay`` time units from now.

        One heap entry stands for all the calls; :meth:`step` makes them
        one at a time, and nothing queued later for the same instant runs
        before the last of them.  That is the order one :meth:`schedule`
        per handler would give, at the cost of one heap push and pop.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if handlers:
            heapq.heappush(
                self._queue,
                (self.now + delay, next(self._sequence), _Fanout(handlers, packet)),
            )

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) deliveries: one per event,
        one per handler a fan-out has still to call."""
        fanout = self._fanout
        count = len(fanout.handlers) - fanout.next if fanout is not None else 0
        for _, _, entry in self._queue:
            count += len(entry.handlers) if entry.__class__ is _Fanout else 1
        return count

    def clear(self) -> None:
        """Cancel every queued event and drop every fan-out.

        The callbacks close over the protocol machines, which hold this
        simulator and often the handles themselves; clearing the queue
        once a run is over breaks those reference cycles.
        """
        for _, _, entry in self._queue:
            if entry.__class__ is EventHandle:
                entry.cancel()
        self._queue.clear()
        self._fanout = None

    def _budget_exhausted(self) -> SimulationError:
        return SimulationError(
            f"event budget exhausted after {self.max_events} events — "
            f"likely a protocol livelock "
            f"(sim clock t={self.now:.3f}, "
            f"{self.pending} events pending, "
            f"{self.events_dispatched} dispatched)"
        )

    def step(self) -> bool:
        """Dispatch the next event; returns False when the queue is empty.

        A fan-out dispatches one handler per call, so a caller that stops
        stepping (a transfer whose last receiver just completed) leaves the
        remaining receivers of the fan-out undelivered.
        """
        fanout = self._fanout
        if fanout is None:
            queue = self._queue
            while True:
                if not queue:
                    return False
                time, _, entry = heapq.heappop(queue)
                if not entry.cancelled:
                    break
            self.now = time
            if entry.__class__ is not _Fanout:
                self.events_dispatched += 1
                if self.events_dispatched > self.max_events:
                    raise self._budget_exhausted()
                entry.callback()
                return True
            fanout = self._fanout = entry
        handlers = fanout.handlers
        index = fanout.next
        fanout.next = index + 1
        if index + 1 == len(handlers):
            self._fanout = None
        self.events_dispatched += 1
        if self.events_dispatched > self.max_events:
            raise self._budget_exhausted()
        handlers[index](fanout.packet)
        return True

    def run(self, until: float | None = None) -> None:
        """Run until the queue empties or the clock would pass ``until``."""
        if until is None:
            while self.step():
                pass
            return
        queue = self._queue
        while True:
            if self._fanout is not None:
                time = self.now
            elif queue:
                time, _, entry = queue[0]
                if entry.cancelled:
                    heapq.heappop(queue)
                    continue
            else:
                break
            if time > until:
                break
            self.step()
        self.now = max(self.now, until)
