"""SPIN's dynamic event dispatcher (paper section 2).

Events are "defined and raised using the syntax of procedure declaration
and call"; handlers are procedures registered on an event, optionally
behind a *guard* -- an arbitrary predicate evaluated before the handler is
invoked.  "More than one handler may be installed on an event, and the
overhead of invoking each handler is roughly one procedure call."

This module reproduces that machinery with cost accounting:

* raising an event charges ``guard_eval`` per guard evaluated and
  ``dispatch_per_handler`` per handler invoked (the ~procedure-call cost
  the paper cites, measured by ``benchmarks/test_micro_dispatcher.py``),
* handlers installed with ``mode="thread"`` are not run inline: each raise
  spawns a fresh kernel thread for them (the "thread" bars of Figure 5),
  charging ``thread_spawn`` in the raising context,
* handlers with a ``time_limit`` are *ephemeral* executions: if the
  handler charges more CPU than its allotment it is terminated -- only the
  allotment is consumed and the termination is counted (paper sec. 3.3),
* a handler that raises an exception is contained: the failure is counted
  on the handle and the event raise continues with the other handlers --
  an extension failure must not take down the kernel.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from ..hw.cpu import THREAD_PRIORITY, ChargeError

__all__ = ["Dispatcher", "EventDecl", "HandlerHandle", "DispatchError"]

_handler_ids = itertools.count(1)


class DispatchError(RuntimeError):
    """Raised on invalid dispatcher operations."""


class HandlerHandle:
    """Capability for one installed (guard, handler) pair.

    Holding the handle confers the right to uninstall it.  The protocol
    managers hold handles on behalf of applications (paper sec. 3.1).
    """

    __slots__ = ("event", "handler", "guard", "mode", "time_limit", "label",
                 "handler_id", "installed", "graph_edge", "invocations",
                 "guard_rejections", "terminations", "failures", "last_error")

    def __init__(self, event: "EventDecl", handler: Callable, guard: Optional[Callable],
                 mode: str, time_limit: Optional[float], label: str):
        self.event = event
        self.handler = handler
        self.guard = guard
        self.mode = mode
        self.time_limit = time_limit
        self.label = label or getattr(handler, "__name__", "handler")
        self.handler_id = next(_handler_ids)
        self.installed = True
        #: the ProtocolGraph edge carrying this handle, when one exists;
        #: set by the graph so uninstalling from either side keeps the
        #: graph and the dispatcher in lockstep.
        self.graph_edge = None
        # statistics
        self.invocations = 0
        self.guard_rejections = 0
        self.terminations = 0
        self.failures = 0
        self.last_error: Optional[BaseException] = None

    def uninstall(self) -> None:
        if not self.installed:
            raise DispatchError("handler %r already uninstalled" % self.label)
        self.event._remove(self)
        self.installed = False
        host = self.event.dispatcher.host
        host.cpu.try_charge(host.costs.handler_uninstall, "dispatch")
        edge = self.graph_edge
        if edge is not None and not edge.removed:
            # Keep the graph authoritative: dropping the handler drops its
            # edge immediately, however the uninstall was reached.
            edge.graph._unlink_edge(edge)

    def __repr__(self) -> str:
        return "<HandlerHandle %s on %s mode=%s%s>" % (
            self.label, self.event.name, self.mode,
            "" if self.installed else " UNINSTALLED")


class EventDecl:
    """A declared event name; the capability needed to raise or install.

    The (guard, handler) list is scanned on every raise, so the scan
    order is cached as an immutable snapshot tuple and invalidated on
    install/uninstall.  Raising over the snapshot gives the same
    semantics the old per-raise ``list(...)`` copy did -- handlers
    installed during a raise are not seen until the next raise, handlers
    uninstalled mid-raise are skipped via ``installed`` -- without
    allocating on the hot path.
    """

    __slots__ = ("dispatcher", "name", "handlers", "raise_count", "_snapshot")

    def __init__(self, dispatcher: "Dispatcher", name: str):
        self.dispatcher = dispatcher
        self.name = name
        self.handlers: List[HandlerHandle] = []
        self.raise_count = 0
        self._snapshot: Tuple[HandlerHandle, ...] = ()

    def _append(self, handle: HandlerHandle) -> None:
        self.handlers.append(handle)
        self._snapshot = tuple(self.handlers)

    def _remove(self, handle: HandlerHandle) -> None:
        self.handlers.remove(handle)
        self._snapshot = tuple(self.handlers)

    def __repr__(self) -> str:
        return "<Event %s (%d handlers)>" % (self.name, len(self.handlers))


class Dispatcher:
    """Per-kernel event dispatcher with cost accounting."""

    VALID_MODES = ("inline", "thread")

    def __init__(self, host):
        self.host = host
        self.events: Dict[str, EventDecl] = {}
        self.total_raises = 0
        self.total_invocations = 0

    def register_metrics(self, registry) -> None:
        """Publish the dispatcher counters on a metrics registry."""
        registry.source("spin.dispatcher.raises", lambda: self.total_raises)
        registry.source("spin.dispatcher.invocations",
                        lambda: self.total_invocations)
        registry.source("spin.dispatcher.events", lambda: len(self.events))

    # -- declaration ------------------------------------------------------

    def declare(self, name: str) -> EventDecl:
        """Declare (or fetch) the event ``name``."""
        if name not in self.events:
            self.events[name] = EventDecl(self, name)
        return self.events[name]

    # -- installation ---------------------------------------------------------

    def install(self, event: EventDecl, handler: Callable,
                guard: Optional[Callable] = None, mode: str = "inline",
                time_limit: Optional[float] = None,
                label: str = "") -> HandlerHandle:
        """Attach ``handler`` (behind ``guard``) to ``event``.

        This is the *mechanism*; policy (who may install what, ephemeral
        requirements) belongs to the protocol managers built on top.
        """
        if not isinstance(event, EventDecl):
            raise DispatchError("install requires an EventDecl capability")
        if mode not in self.VALID_MODES:
            raise DispatchError("unknown delivery mode %r" % mode)
        if time_limit is not None and time_limit <= 0:
            raise DispatchError("time_limit must be positive")
        handle = HandlerHandle(event, handler, guard, mode, time_limit, label)
        event._append(handle)
        # Installing on a running system costs a few table updates.
        self.host.cpu.try_charge(self.host.costs.handler_install, "dispatch")
        return handle

    # -- raising ------------------------------------------------------------------

    def raise_event(self, event: EventDecl, *args) -> int:
        """Raise ``event`` with ``args`` (plain code; charges CPU).

        Returns the number of handlers that matched (ran inline or were
        delegated to a thread).  Every raise scans the event's handler
        snapshot, evaluating each guard.  cpu.charge / begin / end /
        recharge are inlined below (exact bodies, exact order): at one
        dispatch per simulated packet hop the call frames themselves
        dominate host-side dispatch time.
        """
        try:
            snapshot = event._snapshot
        except AttributeError:
            raise DispatchError(
                "raise_event requires an EventDecl capability") from None
        cpu = self.host.cpu
        costs = self.host.costs
        stack = cpu._stack
        times = cpu.category_times
        guard_cost = costs.guard_eval
        handler_cost = costs.dispatch_per_handler
        event.raise_count += 1
        self.total_raises += 1
        matched = 0
        # Off-by-default observability hook (repro.obs): one attribute
        # load + None check per raise when no profiler is attached.
        profile = cpu.profile
        if profile is not None:
            profile.push(event.name)
        try:
            for handle in snapshot:
                if not handle.installed:
                    continue
                guard = handle.guard
                if guard is not None:
                    if not stack:
                        raise ChargeError(
                            "cpu.charge() outside begin()/end(); protocol "
                            "code must run under a kernel execution context")
                    stack[-1] += guard_cost
                    try:
                        times["dispatch"] += guard_cost
                    except KeyError:
                        times["dispatch"] = guard_cost
                    try:
                        if not guard(*args):
                            handle.guard_rejections += 1
                            continue
                    except Exception as exc:  # guard failure: no match
                        handle.failures += 1
                        handle.last_error = exc
                        continue
                matched += 1
                if not stack:
                    raise ChargeError(
                        "cpu.charge() outside begin()/end(); protocol code "
                        "must run under a kernel execution context")
                stack[-1] += handler_cost
                try:
                    times["dispatch"] += handler_cost
                except KeyError:
                    times["dispatch"] = handler_cost
                if handle.mode == "thread":
                    self._delegate_to_thread(handle, args)
                    continue
                # Inline delivery, flattened into the loop: one call
                # frame per handler is measurable here.
                handle.invocations += 1
                self.total_invocations += 1
                stack.append(0.0)
                marker = len(stack)
                try:
                    handle.handler(*args)
                except Exception as exc:  # containment: may not crash kernel
                    handle.failures += 1
                    handle.last_error = exc
                finally:
                    if marker != len(stack):
                        raise ChargeError(
                            "mismatched cpu.end(): marker %d but stack depth "
                            "%d" % (marker, len(stack)))
                    spent = stack.pop()
                limit = handle.time_limit
                if limit is not None and spent > limit:
                    # Premature termination: only the allotment is consumed
                    # (paper sec. 3.3).
                    handle.terminations += 1
                    stack[-1] += limit
                else:
                    stack[-1] += spent
        finally:
            if profile is not None:
                profile.pop()
        return matched

    # -- delivery -------------------------------------------------------------------

    def _delegate_to_thread(self, handle: HandlerHandle, args) -> None:
        costs = self.host.costs
        self.host.cpu.charge(costs.thread_spawn, "thread")
        self.host.cpu.charge(costs.process_wakeup, "thread")
        handle.invocations += 1
        self.total_invocations += 1

        def run_in_thread() -> None:
            marker = self.host.cpu.begin()
            try:
                handle.handler(*args)
            except Exception as exc:
                handle.failures += 1
                handle.last_error = exc
            finally:
                spent = self.host.cpu.end(marker)
            self.host.cpu.recharge(spent)

        def spawn() -> None:
            self.host.spawn_kernel_path(run_in_thread, priority=THREAD_PRIORITY,
                                        name="evt-%s" % handle.label)
        self.host.defer(spawn)
