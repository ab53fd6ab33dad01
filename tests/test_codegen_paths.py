"""Dispatch corner cases, each checked across three independent kernels.

These scenarios once compared three host-side delivery paths against one
another.  There is now a single path -- ``Dispatcher.raise_event``'s guard
scan -- so each scenario runs on three fresh kernels instead, which must
agree bit-for-bit (the dispatcher keeps no process-wide state that could
leak between kernels), and then checks the behaviour the scenario is
about: thread delegation, time limits, guard and handler exceptions, and
a mid-raise uninstall.  The class and test names are kept from the
earlier comparison so the cases stay traceable.
"""

from repro.sim import Engine
from repro.spin import SpinKernel

SIDES = 3


class _Side:
    """One kernel driven through a scenario."""

    def __init__(self):
        self.engine = Engine()
        self.kernel = SpinKernel(self.engine, "gen-kernel")
        self.dispatcher = self.kernel.dispatcher
        self.event = self.dispatcher.declare("Gen.Packet")
        self.handles = []
        self.log = []

    def run(self, fn):
        self.engine.run_process(self.kernel.kernel_path(fn), name="gen-op")
        self.engine.run()

    def install(self, handler=None, **kwargs):
        slot = len(self.handles)
        if handler is None:
            def handler(*args, _slot=slot):
                self.log.append((_slot, args))
        self.run(lambda: self.handles.append(
            self.dispatcher.install(self.event, handler,
                                    label="h%d" % slot, **kwargs)))
        return self.handles[-1]

    def send(self, key):
        self.run(lambda: self.dispatcher.raise_event(self.event, key))


def _assert_equivalent(sides):
    """Every observable must agree across the sides."""
    ref = sides[0]
    for side in sides[1:]:
        assert side.log == ref.log
        # Bit-identical simulated time and per-category accounting.
        assert side.engine.now == ref.engine.now
        assert (dict(side.kernel.cpu.category_times)
                == dict(ref.kernel.cpu.category_times))
        assert len(side.handles) == len(ref.handles)
        for sh, rh in zip(side.handles, ref.handles):
            assert sh.installed == rh.installed
            assert sh.invocations == rh.invocations
            assert sh.guard_rejections == rh.guard_rejections
            assert sh.terminations == rh.terminations
            assert sh.failures == rh.failures
        assert (side.dispatcher.total_invocations
                == ref.dispatcher.total_invocations)
        assert side.dispatcher.total_raises == ref.dispatcher.total_raises


def _three_way(scenario):
    """Run ``scenario(side)`` on three fresh kernels and cross-check."""
    sides = [_Side() for _ in range(SIDES)]
    for side in sides:
        scenario(side)
    _assert_equivalent(sides)
    return sides


class TestThreeWayEquivalence:
    def test_thread_mode_delegates_identically(self):
        def scenario(side):
            side.install()
            side.install(mode="thread")
            side.install(mode="thread", guard=lambda key: key > 0)
            for key in (0, 1, 1, 0):
                side.send(key)
        sides = _three_way(scenario)
        for side in sides:
            assert side.handles[0].invocations == 4
            assert side.handles[1].invocations == 4
            assert side.handles[2].invocations == 2
            assert side.handles[2].guard_rejections == 2
            # Delegated handlers ran too, each in a thread of its own.
            slots = sorted(slot for slot, _ in side.log)
            assert slots == [0] * 4 + [1] * 4 + [2] * 2

    def test_time_limit_terminations(self):
        def scenario(side):
            def hog(*args):
                side.kernel.cpu.charge(50.0, "handler")
            side.install(handler=hog, time_limit=10.0)
            side.install()  # delivery continues after a termination
            for _ in range(3):
                side.send(0)
        sides = _three_way(scenario)
        for side in sides:
            assert side.handles[0].terminations == 3
            assert side.handles[1].invocations == 3

    def test_generated_scan_contains_guard_exceptions(self):
        def scenario(side):
            def bad_guard(value):
                raise ValueError("guard blew up")
            side.install(guard=bad_guard)
            side.install()
            for value in range(3):
                side.send(value)
        sides = _three_way(scenario)
        for side in sides:
            assert side.handles[0].failures == 3
            assert side.handles[0].invocations == 0
            assert side.handles[1].invocations == 3

    def test_handler_exception_contained(self):
        def scenario(side):
            def boom(*args):
                raise RuntimeError("handler blew up")
            side.install(handler=boom)
            side.install()
            for _ in range(3):
                side.send(0)
        sides = _three_way(scenario)
        for side in sides:
            assert side.handles[0].failures == 3
            assert side.handles[1].invocations == 3

    def test_mid_raise_uninstall_skips_later_handler(self):
        def scenario(side):
            state = {"sends": 0}

            def saboteur(*args):
                side.log.append(("saboteur", args))
                if state["sends"] == 2 and side.handles[1].installed:
                    side.handles[1].uninstall()

            side.install(handler=saboteur)
            side.install()  # the victim: uninstalled mid-raise on send 2
            for _ in range(4):
                state["sends"] += 1
                side.send(0)
        sides = _three_way(scenario)
        for side in sides:
            # The uninstall lands before the victim's turn in send 2, so
            # it saw send 1 only and never runs again.
            assert side.handles[1].invocations == 1
            assert not side.handles[1].installed
            assert side.handles[0].invocations == 4
