"""Synchronization and queuing primitives built on the event engine.

These are the building blocks the simulated operating systems use:

* :class:`Resource` -- a counted resource with a priority FIFO wait queue.
  The simulated CPU is a ``Resource(capacity=1)`` where interrupt-level
  requests carry a higher priority than thread-level requests.
* :class:`Store` -- an unbounded (or bounded) item queue with blocking
  ``get``; packet queues and mailboxes are Stores.
* :class:`Signal` -- a repeatable broadcast: every ``wait()`` outstanding
  when ``fire(value)`` is called resumes with ``value``.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Tuple

from .engine import Engine, Event, SimulationError, _PENDING, _PROCESSED

__all__ = ["Resource", "ResourceRequest", "Store", "Signal"]


class ResourceRequest(Event):
    """Event representing one acquisition of a :class:`Resource`.

    An uncontended request is granted on the spot: it comes back from
    :meth:`Resource.request` already processed, with ``granted_at`` set,
    and no event is scheduled.  A queued request fires (succeeds, with
    value None) when the resource grants it.  Yielding either kind works
    -- a process that yields a processed request resumes at the same
    instant -- but hot paths test ``granted_at`` and yield only while the
    request is still pending.  The holder must eventually call
    :meth:`release`.
    """

    __slots__ = ("resource", "priority", "granted_at", "_released")

    def __init__(self, resource: "Resource", priority: int):
        # Event.__init__, inlined: one request is created per CPU hold.
        self.engine = resource.engine
        self.callbacks = []
        self._state = _PENDING
        self._value = None
        self._exception = None
        self.resource = resource
        self.priority = priority
        self.granted_at: Optional[float] = None
        self._released = False

    def release(self) -> None:
        if self._released:
            raise SimulationError("resource request released twice")
        if self.granted_at is None:
            # Cancelled before being granted: drop from the wait queue.
            self._released = True
            self.resource._cancel(self)
            return
        self._released = True
        self.resource._release_one()


class Resource:
    """A counted resource with a priority FIFO wait queue.

    Lower ``priority`` values are served first; ties are FIFO.  Grants are
    *non-preemptive*: once a request is granted it holds a unit of capacity
    until released.
    """

    def __init__(self, engine: Engine, capacity: int = 1):
        if capacity < 1:
            raise ValueError("resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.in_use = 0
        self._sequence = 0
        self._waiting: List[Tuple[int, int, ResourceRequest]] = []

    def request(self, priority: int = 0) -> ResourceRequest:
        """Return a request; yield it while ``granted_at`` is None."""
        req = ResourceRequest(self, priority)
        if not self._waiting and self.in_use < self.capacity:
            # Uncontended: grant synchronously, without touching the wait
            # heap (the push below would pop this same request right back
            # off) and without a grant event.
            self.in_use += 1
            req.granted_at = self.engine.now
            req._state = _PROCESSED
            return req
        self._sequence += 1
        heapq.heappush(self._waiting, (priority, self._sequence, req))
        self._grant_waiters()
        return req

    def _grant_waiters(self) -> None:
        while self._waiting and self.in_use < self.capacity:
            _prio, _seq, req = heapq.heappop(self._waiting)
            if req._released:  # cancelled while queued
                continue
            self.in_use += 1
            req.granted_at = self.engine.now
            req.succeed()

    def _release_one(self) -> None:
        if self.in_use <= 0:
            raise SimulationError("release on a resource with nothing in use")
        self.in_use -= 1
        self._grant_waiters()

    def _cancel(self, req: ResourceRequest) -> None:
        # Lazy removal: _grant_waiters skips released requests.
        pass

    @property
    def queue_length(self) -> int:
        return sum(1 for _p, _s, r in self._waiting if not r._released)


class Store:
    """A FIFO item queue with blocking ``get`` and optional capacity.

    ``put`` on a full bounded store raises ``OverflowError`` by default --
    simulated device queues *drop* rather than block, matching real NIC
    receive rings -- unless ``block=True`` semantics are requested via
    :meth:`put_wait`.
    """

    def __init__(self, engine: Engine, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("store capacity must be >= 1 or None")
        self.engine = engine
        self.capacity = capacity
        self.items: List[Any] = []
        self._getters: List[Event] = []
        self._put_waiters: List[Tuple[Event, Any]] = []
        self.drops = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def try_put(self, item: Any) -> bool:
        """Insert ``item`` if there is room; count a drop otherwise."""
        capacity = self.capacity
        if capacity is not None and len(self.items) >= capacity:
            self.drops += 1
            return False
        if self._getters:
            getter = self._getters.pop(0)
            getter.succeed(item)
        else:
            self.items.append(item)
        return True

    def put(self, item: Any) -> None:
        """Insert ``item``; raise ``OverflowError`` when full."""
        if not self.try_put(item):
            raise OverflowError("store is full (capacity=%r)" % self.capacity)

    def put_wait(self, item: Any) -> Event:
        """Return an event that fires once ``item`` has been enqueued.

        Blocks (stays pending) while the store is full, providing
        backpressure for senders that must not drop.
        """
        done = Event(self.engine)
        if not self.is_full:
            self.try_put(item)
            done.succeed()
        else:
            self._put_waiters.append((done, item))
        return done

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        evt = Event(self.engine)
        if self.items:
            evt.succeed(self.items.pop(0))
            self._admit_put_waiters()
        else:
            self._getters.append(evt)
        return evt

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self.items:
            item = self.items.pop(0)
            self._admit_put_waiters()
            return True, item
        return False, None

    def _admit_put_waiters(self) -> None:
        while self._put_waiters and not self.is_full:
            done, item = self._put_waiters.pop(0)
            self.try_put(item)
            done.succeed()


class Signal:
    """A repeatable broadcast condition.

    Each call to :meth:`wait` returns a fresh one-shot event; :meth:`fire`
    resumes every waiter outstanding at that moment with the fired value.
    Persistent observers can :meth:`subscribe` instead: a subscriber runs
    synchronously inside *every* fire until unsubscribed, which is what
    lets a ``Poller`` watch thousands of sockets without re-arming a
    waiter per socket per wakeup.
    """

    __slots__ = ("engine", "_waiters", "_subscribers", "fire_count")

    def __init__(self, engine: Engine):
        self.engine = engine
        self._waiters: List[Event] = []
        self._subscribers: List[Any] = []
        self.fire_count = 0

    def wait(self) -> Event:
        evt = Event(self.engine)
        self._waiters.append(evt)
        return evt

    def subscribe(self, callback) -> None:
        """Run ``callback(value)`` inside every future :meth:`fire`.

        Callbacks run in the firing context (for socket signals: the
        sender's kernel path), so they may charge CPU costs there.  They
        must not subscribe/unsubscribe on this same signal re-entrantly.
        """
        self._subscribers.append(callback)

    def unsubscribe(self, callback) -> None:
        self._subscribers.remove(callback)

    def fire(self, value: Any = None) -> int:
        """Fire the signal; returns the number of waiters resumed."""
        self.fire_count += 1
        waiters, self._waiters = self._waiters, []
        for evt in waiters:
            evt.succeed(value)
        if self._subscribers:
            for callback in self._subscribers:
                callback(value)
        return len(waiters)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)
