"""Per-layer spans recorded around the program's public entry points.

Before a traced run builds its testbed, :meth:`Recorder.install`
replaces a named list of entry points per layer with wrappers.  Each
wrapper records a span -- layer, start, end, parent -- in a flat
in-memory array and keeps running per-target totals, so the self time
of every layer (a span's duration minus the time its child spans cover)
is known when the run ends.  Generator entry points (socket calls, medium transmit, kernel
paths) record one span per resume, which keeps spans properly nested.

Wrappers only time and count; they never change arguments or results,
so a traced run must reproduce the untraced fingerprint bit for bit.
Spans inside the program itself are out of scope here.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

__all__ = ["TARGETS", "LAYERS", "Recorder"]

LAYERS = ("sim", "hw", "net", "net.tcp", "spin", "core", "lang", "unixos",
          "fabric", "obs")

#: (layer, module, qualified name) of every wrapped entry point.  A
#: name of the form ``Class.method`` wraps the method on that class.
TARGETS = [
    ("sim", "repro.sim.scheduler", "SchedulerCore.step"),
    ("sim", "repro.sim.scheduler", "SchedulerCore.run_window"),
    ("hw", "repro.hw.nic", "NIC.stage_tx"),
    ("hw", "repro.hw.nic", "NIC.frame_on_wire"),
    ("hw", "repro.hw.nic", "NIC.driver_recv_charges"),
    ("hw", "repro.hw.link", "EthernetSegment.transmit"),
    ("hw", "repro.hw.link", "PointToPointLink.transmit"),
    ("hw", "repro.hw.link", "SwitchPort.transmit"),
    ("hw", "repro.hw.cpu", "CPU.charge"),
    ("hw", "repro.hw.cpu", "CPU.consume"),
    ("hw", "repro.hw.host", "Host.kernel_path"),
    ("net", "repro.net.ethernet", "EthernetProto.input"),
    ("net", "repro.net.ethernet", "EthernetProto.output"),
    ("net", "repro.net.ip", "IpProto.input"),
    ("net", "repro.net.ip", "IpProto.output"),
    ("net", "repro.net.udp", "UdpProto.input"),
    ("net", "repro.net.udp", "UdpProto.output"),
    ("net", "repro.net.checksum", "internet_checksum"),
    ("net.tcp", "repro.net.tcp.protocol", "TcpProto.input"),
    ("net.tcp", "repro.net.tcp.protocol", "TcpProto.send_segment"),
    ("net.tcp", "repro.net.tcp.protocol", "TcpProto.connect"),
    ("net.tcp", "repro.net.tcp.tcb", "Tcb.__init__"),
    ("net.tcp", "repro.net.tcp.tcb", "Tcb.send"),
    ("net.tcp", "repro.net.tcp.tcb", "Tcb.close"),
    ("net.tcp", "repro.net.tcp.tcb", "Tcb.app_consumed"),
    ("spin", "repro.spin.dispatcher", "Dispatcher.raise_event"),
    ("spin", "repro.spin.dispatcher", "Dispatcher.raise_flow"),
    ("spin", "repro.spin.flowcache", "FlowCache.entry_for"),
    ("spin", "repro.spin.kernel", "SpinKernel.frame_arrived"),
    ("spin", "repro.spin.mbuf", "MbufPool.from_bytes"),
    ("core", "repro.core.manager", "UdpEndpoint.send"),
    ("core", "repro.core.filters", "ethertype_guard"),
    ("core", "repro.core.filters", "ip_protocol_guard"),
    ("core", "repro.core.filters", "udp_dst_port_guard"),
    ("core", "repro.core.filters", "tcp_port_guard"),
    ("lang", "repro.lang.view", "VIEW"),
    ("lang", "repro.lang.view", "TypedView.__getattr__"),
    ("lang", "repro.lang.view", "TypedView.__setattr__"),
    ("lang", "repro.lang.view", "raw_storage"),
    ("lang", "repro.lang.readonly", "ReadOnlyBuffer.__init__"),
    ("lang", "repro.lang.readonly", "ReadOnlyBuffer.__getitem__"),
    ("lang", "repro.lang.readonly", "ReadOnlyBuffer.raw"),
    ("unixos", "repro.unixos.kernelnet", "UnixKernel.frame_arrived"),
    ("unixos", "repro.unixos.sockets", "UdpSocket.bind"),
    ("unixos", "repro.unixos.sockets", "UdpSocket.sendto"),
    ("unixos", "repro.unixos.sockets", "UdpSocket.recvfrom"),
    ("unixos", "repro.unixos.sockets", "UdpSocket.close"),
    ("unixos", "repro.unixos.sockets", "TcpSocket.connect"),
    ("unixos", "repro.unixos.sockets", "TcpSocket.accept"),
    ("unixos", "repro.unixos.sockets", "TcpSocket.send"),
    ("unixos", "repro.unixos.sockets", "TcpSocket.recv"),
    ("unixos", "repro.unixos.sockets", "TcpSocket.close"),
    ("unixos", "repro.unixos.sockets", "Poller.register"),
    ("unixos", "repro.unixos.sockets", "Poller.unregister"),
    ("unixos", "repro.unixos.sockets", "Poller.wait"),
    ("fabric", "repro.fabric.table", "MatchTable.lookup"),
    ("fabric", "repro.fabric.switch", "SwitchHost._pipeline"),
    ("fabric", "repro.fabric.ecmp", "ecmp_select"),
    ("obs", "repro.obs.registry", "Counter.inc"),
    ("obs", "repro.obs.registry", "Gauge.set"),
    ("obs", "repro.obs.registry", "Histogram.observe"),
    ("obs", "repro.obs.registry", "_NullCounter.inc"),
    ("obs", "repro.obs.registry", "_NullGauge.set"),
]

#: Guard factories: the guards they return are what runs per packet.
_FACTORIES = ("ethertype_guard", "ip_protocol_guard", "udp_dst_port_guard",
              "tcp_port_guard")

#: Spans kept in memory per process; later spans are only counted.
MAX_SPANS = 1_000_000


class Recorder:
    """Span store plus per-target call counts and self times."""

    def __init__(self):
        self.names = ["%s:%s" % (module, name) for _l, module, name in TARGETS]
        self.layer_of = [LAYERS.index(layer) for layer, _m, _n in TARGETS]
        self.unresolved = []
        self.reset()

    def reset(self):
        n = len(TARGETS)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.stack = []
        #: flat (index, layer, start_ns, end_ns, parent_index) records
        self.spans = array("q")
        self.next_index = 0
        self.dropped = 0
        self.checksum_bytes = 0
        self.poller_waits = 0
        self.poller_ready = 0
        self.tcbs = []
        self.pending_peak = 0

    # -- wrapping ----------------------------------------------------------

    def _enter(self, target):
        index = self.next_index
        self.next_index = index + 1
        frame = [target, index, 0]
        self.stack.append(frame)
        return frame

    def _leave(self, frame, start, end):
        stack = self.stack
        stack.pop()
        duration = end - start
        target = frame[0]
        self.self_ns[target] += duration - frame[2]
        self.calls[target] += 1
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_index = parent[1]
        else:
            parent_index = -1
        if len(self.spans) < 5 * MAX_SPANS:
            self.spans.extend((frame[1], self.layer_of[target], start, end,
                               parent_index))
        else:
            self.dropped += 1

    def _wrap_call(self, fn, target, after=None):
        enter, leave, clock = self._enter, self._leave, time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = enter(target)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, start, clock())
            if after is not None:
                after(args, result)
            return result
        return functools.update_wrapper(traced, fn)

    def _wrap_generator(self, fn, target, after=None):
        enter, leave, clock = self._enter, self._leave, time.perf_counter_ns

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            value = None
            error = None
            while True:
                frame = enter(target)
                start = clock()
                try:
                    if error is None:
                        yielded = inner.send(value)
                    else:
                        yielded = inner.throw(error)
                except StopIteration as stop:
                    leave(frame, start, clock())
                    if after is not None:
                        after(args, stop.value)
                    return stop.value
                except BaseException:
                    leave(frame, start, clock())
                    raise
                leave(frame, start, clock())
                try:
                    value = yield yielded
                    error = None
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # relayed into the inner generator
                    value = None
                    error = exc
        return functools.update_wrapper(traced, fn)

    def _wrap_factory(self, fn, target):
        wrap_call = self._wrap_call

        def factory(*args, **kwargs):
            return wrap_call(fn(*args, **kwargs), target)
        return functools.update_wrapper(factory, fn)

    def _after_hooks(self):
        def count_checksum(args, _result):
            self.checksum_bytes += len(args[0])

        def count_ready(_args, ready):
            self.poller_waits += 1
            self.poller_ready += len(ready)

        def keep_tcb(args, _result):
            self.tcbs.append(args[0])

        def sample_pending(args, _result):
            pending = args[0].pending_count()
            if pending > self.pending_peak:
                self.pending_peak = pending

        return {
            "internet_checksum": count_checksum,
            "Poller.wait": count_ready,
            "Tcb.__init__": keep_tcb,
            "SchedulerCore.step": sample_pending,
        }

    def install(self):
        """Wrap every resolvable target (call before building anything)."""
        hooks = self._after_hooks()
        for target, (_layer, module_name, name) in enumerate(TARGETS):
            try:
                module = importlib.import_module(module_name)
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = (owner.__dict__ if owner_name else vars(owner))[attr]
            except (ImportError, AttributeError, KeyError):
                self.unresolved.append(self.names[target])
                continue
            after = hooks.get(name)
            if attr in _FACTORIES:
                wrapped = self._wrap_factory(original, target)
            elif inspect.isgeneratorfunction(original):
                wrapped = self._wrap_generator(original, target, after)
            else:
                wrapped = self._wrap_call(original, target, after)
            setattr(owner, attr, wrapped)
            if not owner_name:
                # ``from module import fn`` copies: rebind them as well.
                for other in list(sys.modules.values()):
                    space = getattr(other, "__dict__", None)
                    if (space is not None
                            and getattr(other, "__name__", "").startswith("repro")):
                        for key, value in list(space.items()):
                            if value is original:
                                setattr(other, key, wrapped)

    # -- results ------------------------------------------------------------

    def totals(self):
        """Per-layer and per-target aggregates (JSON-able)."""
        layer_self = {layer: 0 for layer in LAYERS}
        layer_calls = {layer: 0 for layer in LAYERS}
        for target, (layer, _m, _n) in enumerate(TARGETS):
            layer_self[layer] += self.self_ns[target]
            layer_calls[layer] += self.calls[target]
        return {
            "layer_self_ns": layer_self,
            "layer_calls": layer_calls,
            "target_self_ns": dict(zip(self.names, self.self_ns)),
            "target_calls": dict(zip(self.names, self.calls)),
            "checksum_bytes": self.checksum_bytes,
            "poller_waits": self.poller_waits,
            "poller_ready": self.poller_ready,
            "tcp_retransmits": sum(tcb.retransmits for tcb in self.tcbs),
            "pending_peak": self.pending_peak,
            "spans": self.next_index,
            "spans_dropped": self.dropped,
            "unresolved": list(self.unresolved),
        }

    def write_spans(self, path):
        """Write the span records: a text header line, then int64 rows."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            header = "perfbench-spans v1 columns=index,layer,start_ns,end_ns," \
                     "parent layers=%s\n" % ",".join(LAYERS)
            handle.write(header.encode())
            self.spans.tofile(handle)
