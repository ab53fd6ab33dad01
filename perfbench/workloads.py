"""The benchmark's workloads: seeded inputs and their own loops.

Each workload is a pure function of ``(seed, size)``: the seed is turned
into explicit schedules here (arrival offsets, departure gaps, datagram
sizes, source ports) and the simulator only ever sees those schedules.
Every run stops at a simulated-time horizon -- it never waits on a
completion signal -- so a request that is lost simply counts as failed.

The simulator is driven only through its public entry points:
``repro.bench.build_testbed``, ``repro.fabric.fat_tree``,
``repro.fabric.OpenLoopSource``, the ``udp_manager`` / socket APIs and
``repro.obs.wire.instrument_testbed``.  Fabric senders call the UDP
layer's ``output`` directly, because a ``udp_manager`` endpoint always
sends from its one bound port and each datagram needs its own.
"""

from __future__ import annotations

import hashlib
import math
import random
import time

from repro.bench import build_testbed
from repro.core.manager import Credential
from repro.fabric import OpenLoopSource, fat_tree
from repro.lang.ephemeral import ephemeral
from repro.net.headers import ip_aton
from repro.obs.wire import instrument_testbed
from repro.sim import Signal
from repro.unixos.sockets import Poller

__all__ = ["SIZES", "TIMED_START_HOOKS", "WORKLOADS", "run_episode"]

#: Simulated work per run, per workload (one "request" each):
#: round trips, flows, or datagrams per host.
SIZES = {
    "spin_udp_rpc": 4000,
    "unix_flows": 2000,
    "fabric_open_loop": 1500,
}

FABRIC_K = 4
FABRIC_RX_PORT = 9000
FABRIC_MEAN_GAP_US = 40.0
#: Source ports per fabric host.  Ports are drawn with replacement, so
#: 1500 datagrams per host use about 1250 distinct ports.  An agg switch
#: carries four hosts' flows (two sending, two receiving) and a core
#: switch a quarter of all eight, so the busiest switches see well over
#: the default flow-cache capacity of 4096 distinct 5-tuples per sample
#: and the cache evicts.
FABRIC_PORT_POOL = 4096

UNIX_MEAN_GAP_US = 15.0
UNIX_TCP_OBJECT = 512
UNIX_UDP_REQUEST = 16
UNIX_UDP_REPLY = 128


def percentile(sorted_values, q):
    """Nearest-rank percentile of an already sorted list (None if empty)."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def to_ns(us):
    return int(round(us * 1000.0))


class Requests:
    """Due and completion times of one run's requests (simulated us)."""

    def __init__(self):
        self.due = []
        self.done = []

    def add(self, due_us):
        self.due.append(due_us)
        self.done.append(None)
        return len(self.due) - 1

    def latencies(self):
        """Latency in ns (None if not completed) per request, in order."""
        return [None if done is None else to_ns(done - due)
                for due, done in zip(self.due, self.done)]


def _wire_totals(snapshot):
    def value(name):
        record = snapshot.get(name)
        return record["value"] if record else 0
    return value("hw.nic.tx_frames"), value("hw.nic.tx_bytes")


def fingerprint(final_us, snapshot, latencies):
    """The simulated-time oracle of one run (integers and exact floats).

    ``latencies`` holds every request's latency in ns (None if it did
    not complete), in request order; besides the percentiles, a digest
    over the whole list pins down every request's completion time.
    """
    frames, nbytes = _wire_totals(snapshot)
    digest = hashlib.blake2b(digest_size=8)
    for ns in latencies:
        digest.update(b"%d," % (-1 if ns is None else ns))
    ordered = sorted(ns for ns in latencies if ns is not None)
    return {
        "final_clock_us": final_us,
        "frames": frames,
        "bytes": nbytes,
        "attempted": len(latencies),
        "completed": len(ordered),
        "latency_p50_ns": percentile(ordered, 0.50),
        "latency_p99_ns": percentile(ordered, 0.99),
        "latency_digest": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# spin_udp_rpc: closed-loop 8-byte UDP ping-pong between SPIN extensions
# ---------------------------------------------------------------------------

def _spin_udp_rpc(seed, size):
    """One client, ``size`` round trips; the inputs have no randomness."""
    del seed  # no randomness: every seed runs the same inputs
    bed = build_testbed("spin", "ethernet", deliver_mode="interrupt")
    engine = bed.engine
    client_stack, server_stack = bed.stacks
    client_host = bed.hosts[0]
    requests = Requests()
    reply_seen = Signal(engine)
    server_ep = None

    @ephemeral
    def server_handler(m, off, src_ip, src_port, dst_ip, dst_port):
        server_ep.send(bytes(m.to_bytes()[off:]), src_ip, src_port)

    @ephemeral
    def client_handler(m, off, src_ip, src_port, dst_ip, dst_port):
        if len(m.to_bytes()) - off == 8:
            client_host.defer(reply_seen.fire)

    server_ep = server_stack.udp_manager.bind(
        Credential("rpc-server"), 7002, server_handler)
    client_ep = client_stack.udp_manager.bind(
        Credential("rpc-client"), 7001, client_handler)
    payload = bytes(8)
    server_ip = bed.ip(1)

    def client():
        for _ in range(size):
            index = requests.add(engine.now)
            waiter = reply_seen.wait()
            yield from client_host.kernel_path(
                lambda: client_ep.send(payload, server_ip, 7002))
            yield waiter
            requests.done[index] = engine.now

    engine.process(client(), name="rpc-client")
    # Generous: a round trip takes well under a simulated millisecond.
    horizon = size * 10_000.0
    return _SerialRun(engine, bed, requests, horizon)


# ---------------------------------------------------------------------------
# unix_flows: open-loop short TCP and UDP flows into one UNIX server
# ---------------------------------------------------------------------------

def unix_arrivals(seed, size):
    """Absolute arrival offsets (us) of ``size`` flows, mean gap 15 us."""
    rng = random.Random("unix_flows:%d" % seed)
    offsets = []
    now = 0.0
    for _ in range(size):
        now += rng.expovariate(1.0 / UNIX_MEAN_GAP_US)
        offsets.append(now)
    return offsets


def _unix_flows(seed, size):
    bed = build_testbed("unix", "atm", deliver_mode="interrupt")
    engine = bed.engine
    client_sockets, server_sockets = bed.sockets
    server_host = bed.hosts[1]
    server_ip = bed.ip(1)
    tcp_port, udp_port = 80, 5004
    tcp_object = bytes(UNIX_TCP_OBJECT)
    udp_request = bytes(UNIX_UDP_REQUEST)
    udp_reply = bytes(UNIX_UDP_REPLY)
    requests = Requests()
    offsets = unix_arrivals(seed, size)
    server_ready = Signal(engine)

    def tcp_flow(index):
        sock = client_sockets.tcp_socket()
        yield from sock.connect((server_ip, tcp_port))
        received = 0
        while True:
            data = yield from sock.recv()
            if not data:
                break
            received += len(data)
        yield from sock.close()
        if received == UNIX_TCP_OBJECT:
            requests.done[index] = engine.now

    def udp_flow(index):
        sock = client_sockets.udp_socket()
        yield from sock.bind()
        yield from sock.sendto(udp_request, (server_ip, udp_port))
        data, _addr = yield from sock.recvfrom()
        sock.close()
        if len(data) == UNIX_UDP_REPLY:
            requests.done[index] = engine.now

    def server():
        listener = server_sockets.tcp_socket()
        yield from listener.listen(tcp_port, backlog=size)
        udp = server_sockets.udp_socket()
        yield from udp.bind(udp_port)
        poller = Poller(server_host)
        poller.register(listener)
        poller.register(udp)
        server_ready.fire()
        while True:
            ready = yield from poller.wait()
            for sock in ready:
                if sock is listener:
                    while sock.accept_queue:
                        child = yield from listener.accept()
                        yield from child.send(tcp_object)
                        yield from child.close()
                        # Watched until the peer's FIN lands.
                        poller.register(child)
                elif sock is udp:
                    while sock.buffer.items:
                        _data, addr = yield from udp.recvfrom()
                        yield from udp.sendto(udp_reply, addr)
                else:
                    poller.unregister(sock)

    def arrivals():
        yield server_ready.wait()
        start = engine.now
        for index, offset in enumerate(offsets):
            due = start + offset
            if due > engine.now:
                yield engine.pooled_timeout(due - engine.now)
            requests.add(due)
            flow = tcp_flow if index % 2 == 0 else udp_flow
            engine.process(flow(index), name="flow-%d" % index)

    engine.process(server(), name="unix-server")
    engine.process(arrivals(), name="unix-arrivals")
    # The server is overloaded by design and drains about one flow per
    # 1.2 simulated ms; 5 ms per flow after the last arrival is ample.
    horizon = offsets[-1] + size * 5_000.0
    return _SerialRun(engine, bed, requests, horizon)


# ---------------------------------------------------------------------------
# fabric_open_loop: open-loop UDP across a k=4 fat-tree
# ---------------------------------------------------------------------------

def fabric_schedules(seed, per_host, k=FABRIC_K):
    """Per-host departure plans: gid -> [(due_us, size, src_port)].

    Even host ids send Poisson departures of fixed 256 B datagrams, odd
    ones Pareto departures of Pareto 32..1400 B datagrams, at a mean gap
    of 40 us.  Each datagram's source port comes from the host's own
    seeded pool of ``FABRIC_PORT_POOL`` ports.
    """
    plans = {}
    hosts = k * (k // 2)
    for gid in range(hosts):
        source = OpenLoopSource(
            seed=random.Random("fabric:%d:%d" % (seed, gid)).getrandbits(32),
            arrival="poisson" if gid % 2 == 0 else "pareto",
            mean_gap_us=FABRIC_MEAN_GAP_US,
            size_dist="fixed" if gid % 2 == 0 else "pareto",
            fixed_size=256, min_size=32, max_size=1400)
        rng = random.Random("fabric-ports:%d:%d" % (seed, gid))
        pool = rng.sample(range(10_000, 60_000), FABRIC_PORT_POOL)
        due = 0.0
        plan = []
        for gap, size in source.schedule(per_host):
            due += gap
            plan.append((due, size, rng.choice(pool)))
        plans[gid] = plan
    return plans


def _fabric_setup(bed, seed, per_host):
    """Bind receivers and start senders on every host; returns requests."""
    engine = bed.engine
    k = bed.fat_tree_k
    half = k // 2
    plans = fabric_schedules(seed, per_host, k)
    requests = Requests()
    for gid in range(len(plans)):
        for due, _size, _port in plans[gid]:
            requests.add(due)
    sizes = {gid: [size for _due, size, _port in plan]
             for gid, plan in plans.items()}
    done = requests.done

    # Open-loop UDP has no retransmit: give every ring room for a pod's
    # worth of traffic so nothing drops.
    for nic in bed.nics:
        nic.provision_rings(max(256, per_host * k))

    for index, (p, e, s) in enumerate(bed.host_locator):
        stack = bed.stacks[index]
        gid = (p * half + e) * bed.hosts_per_edge + s

        @ephemeral
        def receive(m, off, src_ip, src_port, dst_ip, dst_port):
            data = m.to_bytes()
            sender = ((data[off] << 24) | (data[off + 1] << 16)
                      | (data[off + 2] << 8) | data[off + 3])
            seq = ((data[off + 4] << 24) | (data[off + 5] << 16)
                   | (data[off + 6] << 8) | data[off + 7])
            if len(data) - off == sizes[sender][seq]:
                done[sender * per_host + seq] = engine.now

        stack.udp_manager.bind(Credential("fabric-rx-%d" % gid),
                               FABRIC_RX_PORT, receive)
        dst_ip = ip_aton("10.%d.%d.%d" % ((p + half) % k, e, s + 2))
        engine.process(_fabric_sender(bed.hosts[index], stack, gid, dst_ip,
                                      plans[gid]),
                       name="fabric-src-%d" % gid)
    return requests


def _fabric_sender(host, stack, gid, dst_ip, plan):
    engine = host.engine
    udp = stack.udp
    mbufs = host.mbufs
    tag = gid.to_bytes(4, "big")
    for seq, (due, size, src_port) in enumerate(plan):
        if due > engine.now:
            yield engine.pooled_timeout(due - engine.now)
        payload = tag + seq.to_bytes(4, "big") + bytes(size - 8)

        def send(payload=payload, src_port=src_port):
            m = mbufs.from_bytes(payload, leading_space=64)
            udp.output(m, src_port=src_port, dst_ip=dst_ip,
                       dst_port=FABRIC_RX_PORT)
        yield from host.kernel_path(send)


def fabric_horizon(seed, per_host):
    """Ample time to drain: the core tier is overloaded by design, so
    queues grow for as long as datagrams depart (p99 latency is about
    90 simulated ms at 1500 per host); the engine stops as soon as it
    runs out of events, so an unused horizon costs nothing."""
    plans = fabric_schedules(seed, per_host)
    return 2 * max(plan[-1][0] for plan in plans.values()) + 100_000.0


def _fabric_open_loop(seed, size):
    bed = fat_tree(FABRIC_K)
    requests = _fabric_setup(bed, seed, size)
    return _SerialRun(bed.engine, bed, requests, fabric_horizon(seed, size))


#: Called just before the timed region starts: the episode resets its
#: GC meter and span recorder here.
TIMED_START_HOOKS = []


class _SerialRun:
    """One engine run to a horizon: the timed region of a serial workload."""

    def __init__(self, engine, bed, requests, horizon):
        self.engine = engine
        self.bed = bed
        self.requests = requests
        self.horizon = horizon

    def run(self):
        """Run; returns (first_event_stamp, last_event_stamp, record)."""
        engine = self.engine
        for hook in TIMED_START_HOOKS:
            hook()
        start = time.perf_counter()
        engine.run_window(self.horizon)
        end = time.perf_counter()
        snapshot = instrument_testbed(self.bed).snapshot()
        record = {
            "events": engine.events_processed,
            "snapshot": snapshot,
            "fingerprint": fingerprint(engine.now, snapshot,
                                       self.requests.latencies()),
        }
        return start, end, record


#: name -> factory(seed, size) returning an object whose ``run()`` is
#: the timed region.
WORKLOADS = {
    "spin_udp_rpc": _spin_udp_rpc,
    "unix_flows": _unix_flows,
    "fabric_open_loop": _fabric_open_loop,
}


def run_episode(name, seed):
    """Build and run one workload; returns (first, last, record)."""
    return WORKLOADS[name](seed, SIZES[name]).run()
