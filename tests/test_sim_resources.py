"""Tests for resources, stores, and signals."""

import pytest

from repro.sim import Resource, Signal, SimulationError, Store


class TestResource:
    def test_immediate_grant_when_free(self, engine):
        resource = Resource(engine)

        def proc():
            request = resource.request()
            yield request
            assert resource.in_use == 1
            request.release()
            return "ok"
        assert engine.run_process(proc()) == "ok"
        assert resource.in_use == 0

    def test_uncontended_request_is_granted_synchronously(self, engine):
        resource = Resource(engine)
        engine.run(until=5.0)
        request = resource.request()
        assert request.processed
        assert request.granted_at == 5.0
        assert resource.in_use == 1
        assert engine.pending_count() == 0  # no grant event
        request.release()
        assert resource.in_use == 0

    def test_yield_on_granted_request_resumes_at_same_instant(self, engine):
        resource = Resource(engine)

        def proc():
            yield engine.timeout(3.0)
            request = resource.request()
            value = yield request
            assert engine.now == 3.0
            request.release()
            return value
        assert engine.run_process(proc()) is None
        assert engine.now == 3.0

    def test_contended_grants_keep_priority_fifo_order(self, engine):
        resource = Resource(engine)
        holder = resource.request()
        assert holder.processed
        order = []

        def waiter(tag, priority):
            request = resource.request(priority)
            assert request.granted_at is None  # queued, not granted
            yield request
            order.append((tag, engine.now, request.granted_at))
            yield engine.timeout(1.0)
            request.release()
        for tag, priority in (("b1", 2), ("a1", 1), ("b2", 2), ("a2", 1)):
            engine.process(waiter(tag, priority))
        engine.run(until=2.0)
        assert order == []
        holder.release()
        engine.run()
        assert order == [("a1", 2.0, 2.0), ("a2", 3.0, 3.0),
                         ("b1", 4.0, 4.0), ("b2", 5.0, 5.0)]

    def test_capacity_must_be_positive(self, engine):
        with pytest.raises(ValueError):
            Resource(engine, capacity=0)

    def test_fifo_within_priority(self, engine):
        resource = Resource(engine)
        order = []

        def holder():
            request = resource.request()
            yield request
            yield engine.timeout(10.0)
            request.release()

        def waiter(tag):
            request = resource.request()
            yield request
            order.append((tag, engine.now))
            request.release()
        engine.process(holder())
        engine.process(waiter("first"))
        engine.process(waiter("second"))
        engine.run()
        assert [tag for tag, _t in order] == ["first", "second"]

    def test_priority_preempts_queue_order(self, engine):
        resource = Resource(engine)
        order = []

        def holder():
            request = resource.request()
            yield request
            yield engine.timeout(10.0)
            request.release()

        def waiter(tag, priority):
            request = resource.request(priority)
            yield request
            order.append(tag)
            request.release()
        engine.process(holder())
        engine.process(waiter("low", 5))
        engine.process(waiter("high", 0))
        engine.run()
        assert order == ["high", "low"]

    def test_capacity_two_runs_two_concurrently(self, engine):
        resource = Resource(engine, capacity=2)
        finish_times = []

        def worker():
            request = resource.request()
            yield request
            yield engine.timeout(10.0)
            request.release()
            finish_times.append(engine.now)
        for _ in range(4):
            engine.process(worker())
        engine.run()
        assert finish_times == [10.0, 10.0, 20.0, 20.0]

    def test_double_release_rejected(self, engine):
        resource = Resource(engine)

        def proc():
            request = resource.request()
            yield request
            request.release()
            request.release()
        with pytest.raises(SimulationError):
            engine.run_process(proc())

    def test_cancel_before_grant(self, engine):
        resource = Resource(engine)

        def holder():
            request = resource.request()
            yield request
            yield engine.timeout(10.0)
            request.release()
        engine.process(holder())
        cancelled = resource.request()
        cancelled.release()  # cancel while queued

        def late():
            request = resource.request()
            yield request
            request.release()
            return engine.now
        # The cancelled request must not consume the grant.
        assert engine.run_process(late()) == 10.0

    def test_queue_length_excludes_cancelled(self, engine):
        resource = Resource(engine)

        def holder():
            request = resource.request()
            yield request
            yield engine.timeout(5.0)
            request.release()
        engine.process(holder())
        engine.run(until=1.0)
        queued = resource.request()
        assert resource.queue_length == 1
        queued.release()
        assert resource.queue_length == 0


class TestStore:
    def test_put_then_get(self, engine):
        store = Store(engine)
        store.put("item")

        def proc():
            value = yield store.get()
            return value
        assert engine.run_process(proc()) == "item"

    def test_get_blocks_until_put(self, engine):
        store = Store(engine)

        def consumer():
            value = yield store.get()
            return value, engine.now

        def producer():
            yield engine.timeout(30.0)
            store.put("late")
        engine.process(producer())
        assert engine.run_process(consumer()) == ("late", 30.0)

    def test_fifo_ordering(self, engine):
        store = Store(engine)
        for i in range(3):
            store.put(i)

        def proc():
            out = []
            for _ in range(3):
                out.append((yield store.get()))
            return out
        assert engine.run_process(proc()) == [0, 1, 2]

    def test_bounded_store_drops(self, engine):
        store = Store(engine, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)
        assert store.drops == 1

    def test_put_raises_when_full(self, engine):
        store = Store(engine, capacity=1)
        store.put(1)
        with pytest.raises(OverflowError):
            store.put(2)

    def test_put_wait_blocks_for_space(self, engine):
        store = Store(engine, capacity=1)
        store.put("a")

        def producer():
            yield store.put_wait("b")
            return engine.now

        def consumer():
            yield engine.timeout(20.0)
            yield store.get()
        engine.process(consumer())
        assert engine.run_process(producer()) == 20.0

    def test_try_get(self, engine):
        store = Store(engine)
        ok, value = store.try_get()
        assert not ok and value is None
        store.put("x")
        ok, value = store.try_get()
        assert ok and value == "x"

    def test_invalid_capacity(self, engine):
        with pytest.raises(ValueError):
            Store(engine, capacity=0)

    def test_getter_queue_served_in_order(self, engine):
        store = Store(engine)
        results = []

        def consumer(tag):
            value = yield store.get()
            results.append((tag, value))
        engine.process(consumer("a"))
        engine.process(consumer("b"))

        def producer():
            yield engine.timeout(1.0)
            store.put(1)
            store.put(2)
        engine.run_process(producer())
        engine.run()
        assert results == [("a", 1), ("b", 2)]


class TestSignal:
    def test_fire_resumes_all_waiters(self, engine):
        signal = Signal(engine)
        results = []

        def waiter(tag):
            value = yield signal.wait()
            results.append((tag, value))

        def firer():
            yield engine.timeout(5.0)
            count = signal.fire("go")
            return count
        engine.process(waiter("a"))
        engine.process(waiter("b"))
        assert engine.run_process(firer()) == 2
        engine.run()
        assert sorted(results) == [("a", "go"), ("b", "go")]

    def test_fire_with_no_waiters(self, engine):
        signal = Signal(engine)
        assert signal.fire() == 0
        assert signal.fire_count == 1

    def test_waiters_after_fire_wait_for_next(self, engine):
        signal = Signal(engine)
        signal.fire("first")

        def proc():
            value = yield signal.wait()
            return value

        def firer():
            yield engine.timeout(1.0)
            signal.fire("second")
        engine.process(firer())
        assert engine.run_process(proc()) == "second"

    def test_waiter_count(self, engine):
        signal = Signal(engine)
        assert signal.waiter_count == 0
        signal.wait()
        signal.wait()
        assert signal.waiter_count == 2
        signal.fire()
        assert signal.waiter_count == 0
