"""The discrete-event kernel: clock, queue, processes, stores.

Everything virtual-time in the repo (hw pipeline sim, uplink flows, the
asynchronous fleet) runs on this kernel, so its determinism contract —
same-time events fire in schedule order, no wall clock, no RNG — is
load-bearing for every reproducibility claim downstream.
"""

from __future__ import annotations

import pytest

from repro.events import Simulator, Store


class TestClockAndTimeouts:
    def test_timeouts_advance_the_clock(self):
        sim = Simulator()
        seen = []

        def proc():
            yield sim.timeout(1.5)
            seen.append(sim.now)
            yield sim.timeout(2.0)
            seen.append(sim.now)

        sim.process(proc())
        end = sim.run()
        assert seen == [1.5, 3.5]
        assert end == 3.5
        assert sim.now == 3.5

    def test_timeout_value_is_sent_back_in(self):
        sim = Simulator()
        got = []

        def proc():
            got.append((yield sim.timeout(1.0, "payload")))

        sim.process(proc())
        sim.run()
        assert got == ["payload"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-0.1)

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []

        def proc(name, delay):
            yield sim.timeout(delay)
            order.append(name)

        for name in "abcd":
            sim.process(proc(name, 1.0))
        sim.run()
        assert order == list("abcd")

    def test_two_runs_produce_identical_traces(self):
        def trace():
            sim = Simulator()
            log = []

            def proc(name, delays):
                for d in delays:
                    yield sim.timeout(d)
                    log.append((name, sim.now))

            sim.process(proc("x", [0.3, 0.3, 0.1]))
            sim.process(proc("y", [0.2, 0.5]))
            sim.process(proc("z", [0.7]))
            sim.run()
            return log

        assert trace() == trace()


class TestEvents:
    def test_succeed_fires_at_current_time_with_value(self):
        sim = Simulator()
        ev = sim.event()
        got = []

        def waiter():
            got.append((yield ev))

        def firer():
            yield sim.timeout(2.0)
            ev.succeed(42)

        sim.process(waiter())
        sim.process(firer())
        sim.run()
        assert got == [42]
        assert sim.now == 2.0

    def test_succeed_twice_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_yielding_already_processed_event_resumes_immediately(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("early")
        got = []

        def late_waiter():
            yield sim.timeout(1.0)
            got.append((yield ev))
            got.append(sim.now)

        sim.process(late_waiter())
        sim.run()
        assert got == ["early", 1.0]

    def test_yielding_non_event_is_a_type_error(self):
        sim = Simulator()

        def bad():
            yield 3.0

        sim.process(bad())
        with pytest.raises(TypeError):
            sim.run()


class TestProcesses:
    def test_process_value_is_generator_return(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(worker())
        sim.run()
        assert proc.value == "done"

    def test_processes_wait_on_each_other(self):
        sim = Simulator()

        def child():
            yield sim.timeout(3.0)
            return "child-result"

        results = []

        def parent():
            results.append((yield sim.process(child())))
            results.append(sim.now)

        sim.process(parent())
        sim.run()
        assert results == ["child-result", 3.0]


class TestRunUntil:
    def test_until_freezes_later_events(self):
        sim = Simulator()
        fired = []

        def proc(delay):
            yield sim.timeout(delay)
            fired.append(delay)

        for d in (1.0, 2.0, 5.0):
            sim.process(proc(d))
        end = sim.run(until=3.0)
        assert fired == [1.0, 2.0]
        assert end == 3.0
        assert sim.now == 3.0

    def test_events_exactly_at_until_still_fire(self):
        sim = Simulator()
        fired = []

        def proc():
            yield sim.timeout(3.0)
            fired.append(sim.now)

        sim.process(proc())
        sim.run(until=3.0)
        assert fired == [3.0]

    def test_empty_queue_returns_current_clock(self):
        sim = Simulator()
        assert sim.run() == 0.0


class TestStore:
    def test_items_arrive_fifo(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def producer():
            for i in range(3):
                yield sim.timeout(1.0)
                store.put(i)

        def consumer():
            for _ in range(3):
                got.append((yield store.get()))

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [0, 1, 2]

    def test_get_before_put_blocks_until_item(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            got.append(((yield store.get()), sim.now))

        def producer():
            yield sim.timeout(4.0)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [("late", 4.0)]

    def test_len_counts_queued_items(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")
        store.put("y")
        assert len(store) == 2
