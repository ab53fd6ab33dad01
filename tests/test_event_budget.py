"""Scheduler-event budget of the frame path, and its garbage.

A frame hop costs four timed events -- wire time, propagation,
``rx_latency`` and the CPU hold -- plus the zero-delay bootstrap of the
interrupt's kernel path.  Everything else on the path runs
synchronously: uncontended resource grants, the hand-off of a staged
frame to an idle transmitter, the device interrupt and the completion
of a kernel path.  The counts below are deterministic, so they are
pinned exactly: a change that adds an event to the frame path shows up
here before it shows up as host time.
"""

import gc

import pytest

from repro.bench.testbed import build_testbed
from repro.core.manager import Credential
from repro.fabric.topology import fat_tree, linear_chain
from repro.lang.ephemeral import ephemeral
from repro.sim import Signal

#: One 64 B datagram from the first to the last host of a k=4
#: fat-tree: 6 frame hops x 5 events, plus the driving process's
#: bootstrap and completion and the sender's CPU hold.
FAT_TREE_DATAGRAM_EVENTS = 33
#: One 8 B UDP ping-pong round trip between SPIN hosts on Ethernet:
#: 2 frame hops x 5 events, the shared segment's delivery bootstrap per
#: frame, the driving process's bootstrap and completion, the sender's
#: CPU hold and the reply signal.
UDP_ROUND_TRIP_EVENTS = 16


def _events_for(engine, generator):
    """Events the engine processes to run ``generator`` and drain."""
    engine.run()
    before = engine.events_processed
    result = engine.run_process(generator)
    engine.run()
    return engine.events_processed - before, result


class TestFramePathBudget:
    def test_fat_tree_datagram(self):
        bed = fat_tree(4)
        engine = bed.engine
        arrived = []

        @ephemeral
        def handler(m, off, src_ip, src_port, dst_ip, dst_port):
            arrived.append(engine.now)

        last = len(bed.stacks) - 1
        bed.stacks[last].udp_manager.bind(Credential("rx"), 7000, handler)
        endpoint = bed.stacks[0].udp_manager.bind(
            Credential("tx"), 7001, handler)
        host, dst = bed.hosts[0], bed.ip(last)
        events, _ = _events_for(engine, host.kernel_path(
            lambda: endpoint.send(b"x" * 64, dst, 7000)))
        assert len(arrived) == 1
        # Five switches (edge, agg, core, agg, edge) forwarded it.
        assert sum(s.pipeline_packets for s in bed.switches) == 5
        assert events == FAT_TREE_DATAGRAM_EVENTS

    def test_udp_round_trip(self):
        bed = build_testbed("spin", "ethernet", deliver_mode="interrupt")
        engine = bed.engine
        client_stack, server_stack = bed.stacks
        client_host = bed.hosts[0]
        reply = Signal(engine)
        server = None

        @ephemeral
        def server_handler(m, off, src_ip, src_port, dst_ip, dst_port):
            server.send(bytes(m.to_bytes()[off:]), src_ip, src_port)

        @ephemeral
        def client_handler(m, off, src_ip, src_port, dst_ip, dst_port):
            client_host.defer(reply.fire)

        server = server_stack.udp_manager.bind(
            Credential("server"), 7002, server_handler)
        client = client_stack.udp_manager.bind(
            Credential("client"), 7001, client_handler)

        def trip():
            start = engine.now
            waiter = reply.wait()
            yield from client_host.kernel_path(
                lambda: client.send(bytes(8), bed.ip(1), 7002))
            yield waiter
            return engine.now - start

        events, rtt = _events_for(engine, trip())
        assert rtt == pytest.approx(575.176)  # Figure 5, Plexus interrupt
        assert events == UDP_ROUND_TRIP_EVENTS


class TestSpawnedKernelPath:
    def test_exception_surfaces_out_of_engine_run(self):
        bed = build_testbed("spin", "ethernet")

        def buggy():
            raise RuntimeError("kernel bug")

        assert bed.hosts[0].spawn_kernel_path(buggy) is None
        with pytest.raises(RuntimeError, match="kernel bug"):
            bed.engine.run()


class TestNoCyclicGarbage:
    def test_fabric_and_tcp_run_leaves_nothing_for_the_collector(self):
        """Requests, timers, transmitters and interrupts are freed by
        reference counting alone: with the collector off for the whole
        run, a final collection finds nothing."""
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            bed = linear_chain(2, os_name="unix")
            engine = bed.engine
            gc.collect()
            payload = bytes(range(256)) * 40
            received = []

            def server():
                listener = bed.sockets[1].tcp_socket()
                yield from listener.listen(8000)
                conn = yield from listener.accept()
                while True:
                    data = yield from conn.recv()
                    if not data:
                        yield from conn.close()
                        return
                    received.append(data)

            def client():
                sock = bed.sockets[0].tcp_socket()
                yield from sock.connect((bed.ip(1), 8000))
                yield from sock.send(payload)
                yield from sock.close()

            engine.process(server(), name="server")
            engine.run_process(client(), name="client")
            engine.run(until=engine.now + 1_000_000.0)
            assert b"".join(received) == payload
            assert bed.switch_conservation() == []
            assert gc.collect() == 0
        finally:
            if gc_was_enabled:
                gc.enable()
