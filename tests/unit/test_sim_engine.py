"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        fired = []
        for name in "abcde":
            sim.schedule(1.0, lambda name=name: fired.append(name))
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(1.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="into the past"):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: sim.schedule_at(1.0, lambda: None))
        with pytest.raises(SimulationError, match="before current time"):
            sim.run()


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_cancel_from_earlier_event(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, lambda: fired.append("late"))
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []

    def test_pending_counts_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        assert sim.pending == 1  # lazily removed
        sim.run()
        assert sim.pending == 0


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0
        sim.run()
        assert fired == [1, 5]

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_event_budget_guards_livelock(self):
        sim = Simulator(max_events=100)

        def reschedule():
            sim.schedule(0.001, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(SimulationError, match="budget exhausted"):
            sim.run()

    def test_event_budget_message_names_clock_and_queue_state(self):
        # the exhaustion message must carry enough context to triage a
        # livelock without a debugger: sim clock, pending and dispatched
        sim = Simulator(max_events=50)

        def reschedule():
            sim.schedule(0.5, reschedule)
            sim.schedule(0.5, lambda: None)  # keep the queue visibly deep

        sim.schedule(0.0, reschedule)
        with pytest.raises(SimulationError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "sim clock t=" in message
        assert f"t={sim.now:.3f}" in message
        assert f"{sim.pending} events pending" in message
        assert f"{sim.events_dispatched} dispatched" in message

    def test_events_dispatched_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_dispatched == 5

    def test_run_until_skips_cancelled_head(self):
        sim = Simulator()
        fired = []
        head = sim.schedule(1.0, lambda: fired.append("head"))
        sim.schedule(2.0, lambda: fired.append("tail"))
        head.cancel()
        sim.run(until=10.0)
        assert fired == ["tail"]

    def test_zero_delay_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.0]


class TestFanout:
    """One heap entry per fan-out, one delivery per step."""

    @staticmethod
    def recorder(fired, name):
        return lambda packet: fired.append((name, packet))

    def fanout(self, sim, fired, names, delay=1.0, packet="p"):
        sim.schedule_fanout(delay, [self.recorder(fired, n) for n in names], packet)

    def test_handlers_run_in_order_with_the_packet(self):
        sim = Simulator()
        fired = []
        self.fanout(sim, fired, "abc", packet="pkt")
        sim.run()
        assert fired == [("a", "pkt"), ("b", "pkt"), ("c", "pkt")]
        assert sim.now == 1.0

    def test_timer_queued_earlier_at_same_instant_fires_first(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(("before", None)))
        self.fanout(sim, fired, "ab")
        sim.schedule(1.0, lambda: fired.append(("after", None)))
        sim.run()
        assert [name for name, _ in fired] == ["before", "a", "b", "after"]

    def test_zero_delay_event_from_a_handler_fires_after_the_last_receiver(self):
        sim = Simulator()
        fired = []

        def second(packet):
            fired.append(("b", packet))
            sim.schedule(0.0, lambda: fired.append(("zero", sim.now)))

        sim.schedule_fanout(
            1.0, [self.recorder(fired, "a"), second, self.recorder(fired, "c")], "p"
        )
        sim.run()
        assert fired == [("a", "p"), ("b", "p"), ("c", "p"), ("zero", 1.0)]

    def test_stepping_loop_that_stops_leaves_later_receivers_undelivered(self):
        # the harness's `while pending and ...: sim.step()` stops as soon as
        # the last receiver completes, even partway through a fan-out
        sim = Simulator()
        delivered = []
        handlers = [lambda packet, i=i: delivered.append(i) for i in range(5)]
        sim.schedule_fanout(1.0, handlers, "p")
        while 2 not in delivered:
            assert sim.step()
        assert delivered == [0, 1, 2]
        assert sim.events_dispatched == 3
        assert sim.pending == 2

    def test_matches_one_schedule_per_handler(self):
        # the same scenario, once with a fan-out and once with one event
        # per handler, dispatches the same calls in the same order
        def scenario(fan):
            sim = Simulator()
            fired = []

            def handler(i):
                def on_packet(packet):
                    fired.append((sim.now, i, packet))
                    if i % 2 == 0:
                        sim.schedule(0.0, lambda: fired.append((sim.now, "zero", i)))
                    if i == 3:
                        fan(sim, [handler(10), handler(11)], "nested", 0.0)
                return on_packet

            sim.schedule(0.5, lambda: fired.append((sim.now, "timer", 0)))
            fan(sim, [handler(i) for i in range(5)], "first", 0.5)
            sim.schedule(0.5, lambda: fired.append((sim.now, "timer", 1)))
            fan(sim, [handler(i) for i in range(5, 8)], "second", 0.25)
            sim.run()
            return fired, sim.events_dispatched

        def one_per_handler(sim, handlers, packet, delay):
            for h in handlers:
                sim.schedule(delay, lambda h=h: h(packet))

        def fanout(sim, handlers, packet, delay):
            sim.schedule_fanout(delay, handlers, packet)

        assert scenario(fanout) == scenario(one_per_handler)

    def test_events_dispatched_counts_every_delivery(self):
        sim = Simulator()
        fired = []
        self.fanout(sim, fired, "abcd")
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 5
        sim.run()
        assert sim.events_dispatched == 5
        assert sim.pending == 0

    def test_run_until_drains_a_started_fanout(self):
        sim = Simulator()
        fired = []
        self.fanout(sim, fired, "abc")
        sim.schedule(3.0, lambda: fired.append(("late", None)))
        assert sim.step()
        sim.run(until=1.0)
        assert [name for name, _ in fired] == ["a", "b", "c"]
        assert sim.now == 1.0
        assert sim.pending == 1

    def test_run_until_before_the_fanout_delivers_nothing(self):
        sim = Simulator()
        fired = []
        self.fanout(sim, fired, "ab", delay=2.0)
        sim.run(until=1.0)
        assert fired == []
        assert sim.pending == 2

    def test_budget_exhaustion_inside_a_fanout(self):
        sim = Simulator(max_events=2)
        fired = []
        self.fanout(sim, fired, "abcd")
        with pytest.raises(SimulationError, match="budget exhausted") as excinfo:
            sim.run()
        assert [name for name, _ in fired] == ["a", "b"]
        message = str(excinfo.value)
        assert "sim clock t=1.000" in message
        assert "1 events pending" in message
        assert "3 dispatched" in message

    def test_empty_fanout_queues_nothing(self):
        sim = Simulator()
        sim.schedule_fanout(1.0, [], "p")
        assert sim.pending == 0
        assert sim.step() is False

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="into the past"):
            sim.schedule_fanout(-1.0, [print], "p")


class TestClear:
    def test_clear_cancels_queued_events_and_drops_fanouts(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("timer"))
        sim.schedule_fanout(1.0, [fired.append, fired.append], "p")
        handle = sim.schedule(2.0, lambda: fired.append("later"))
        assert sim.step()
        assert sim.step()
        sim.clear()
        assert handle.cancelled and handle.callback is None
        assert sim.pending == 0
        assert sim.step() is False
        assert fired == ["timer", "p"]

    def test_cancel_releases_the_callback(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        assert handle.callback is None
        sim.run()
        assert sim.events_dispatched == 0
