"""Graph truth, uninstall on a live flow, the baseline gate, TCP options.

* the ``ProtocolGraph`` stays authoritative -- a direct
  ``HandlerHandle.uninstall()`` drops the edge from ``render()`` and the
  node in/out edge lists immediately;
* closing a UDP endpoint stops delivery to it on the very next packet of
  an established flow;
* the wall-clock report fails on fingerprint drift against the committed
  baseline and only warns on throughput drift, labelling cross-machine
  comparisons;
* ``REPRO_BENCH_WARN_PCT`` tunes the throughput-regression warning;
* the tracer decodes TCP options (MSS, window scale).
"""

import pytest

from repro.bench.regression import DEFAULT_WARN_PCT, bench_warn_pct
from repro.bench.testbed import build_testbed
from repro.bench.wallclock import (compare_to_baseline, host_fingerprint,
                                   run_suite)
from repro.core import Credential, ProtocolGraph
from repro.lang import ephemeral
from repro.net.trace import PacketTracer, _decode_tcp_options


@ephemeral
def _sink(m, off, src_ip, src_port, dst_ip, dst_port):
    pass


# ---------------------------------------------------------------------------
# graph bookkeeping stays truthful
# ---------------------------------------------------------------------------

class TestGraphStaysAuthoritative:
    def test_direct_uninstall_drops_edge(self, kernel):
        graph = ProtocolGraph(kernel)
        eth = graph.add_node("ethernet", "protocol")
        ip = graph.add_node("ip", "protocol")
        event = kernel.dispatcher.declare("Ethernet.PacketRecv")
        edge = graph.install(event, lambda *a: None, eth, ip, label="ip-in")
        handle = edge.handle
        assert graph.edge_count() == 1
        assert "--> ip" in graph.render()

        # Uninstalling through the *handle* (not graph.remove_edge) must
        # still unlink the edge: the graph may not drift from dispatch.
        handle.uninstall()
        assert graph.edge_count() == 0
        assert "--> ip" not in graph.render()
        assert all(e.handle is not handle for e in eth.out_edges)
        assert all(e.handle is not handle for e in ip.in_edges)

    def test_uninstall_is_idempotent_with_remove_edge(self, kernel):
        graph = ProtocolGraph(kernel)
        a = graph.add_node("a", "protocol")
        b = graph.add_node("b", "extension")
        event = kernel.dispatcher.declare("A.Evt")
        edge = graph.install(event, lambda *a: None, a, b)
        handle = edge.handle
        graph.remove_edge(edge)
        assert not handle.installed
        assert graph.edge_count() == 0
        # remove_edge a second time is a no-op (edge already unlinked)...
        graph.remove_edge(edge)
        assert graph.edge_count() == 0
        # ...while a direct double-uninstall stays a dispatcher error.
        with pytest.raises(Exception):
            handle.uninstall()


# ---------------------------------------------------------------------------
# uninstall takes effect for a flow already in progress
# ---------------------------------------------------------------------------

class TestFlowCache:
    # The name dates from when delivery cached per-flow plans; the case
    # still guards that an established flow stops reaching a closed
    # endpoint's handler on the next packet.
    def test_uninstall_invalidates_plan(self, spin_pair):
        """After uninstalling a handler, later packets must not call it."""
        bed = spin_pair
        hits = []

        @ephemeral
        def on_dgram(m, off, src_ip, src_port, dst_ip, dst_port):
            hits.append(dst_port)

        receiver = bed.stacks[1].udp_manager.bind(
            Credential("s"), 7000, on_dgram)
        sender = bed.stacks[0].udp_manager.bind(Credential("c"), 7001, _sink)

        def send_one():
            sender.send(b"x" * 16, bed.ip(1), 7000)
        for _ in range(3):
            bed.engine.run_process(bed.hosts[0].kernel_path(send_one))
            bed.engine.run()
        delivered_before = len(hits)
        assert delivered_before == 3

        receiver.close()  # uninstalls the bound handler
        bed.engine.run_process(bed.hosts[0].kernel_path(send_one))
        bed.engine.run()
        assert len(hits) == delivered_before


# ---------------------------------------------------------------------------
# REPRO_BENCH_WARN_PCT
# ---------------------------------------------------------------------------

class TestBenchWarnPct:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_WARN_PCT", raising=False)
        assert bench_warn_pct() == DEFAULT_WARN_PCT

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WARN_PCT", "35")
        assert bench_warn_pct() == 35.0

    def test_invalid_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WARN_PCT", "lots")
        assert bench_warn_pct() == DEFAULT_WARN_PCT

    def test_negative_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WARN_PCT", "-5")
        assert bench_warn_pct() == DEFAULT_WARN_PCT

    def test_compare_to_baseline_uses_env(self, monkeypatch):
        report = {
            "quick": True,
            "workloads": {
                "w": {"fingerprint": {"f": 1}, "packets_per_sec": 50.0},
            },
        }
        baseline = {
            "quick": {
                "workloads": {
                    "w": {"fingerprint": {"f": 1}, "packets_per_sec": 100.0},
                },
            },
        }
        # 50% of baseline: warns under the default 20% threshold...
        monkeypatch.delenv("REPRO_BENCH_WARN_PCT", raising=False)
        rows = compare_to_baseline(report, baseline)
        assert rows["w"]["warnings"]
        assert rows["w"]["ok"]  # slowdowns warn, never error
        # ...and stays quiet when the env var loosens it to 60%.
        monkeypatch.setenv("REPRO_BENCH_WARN_PCT", "60")
        rows = compare_to_baseline(report, baseline)
        assert not rows["w"]["warnings"]


# ---------------------------------------------------------------------------
# the committed-baseline gate
# ---------------------------------------------------------------------------

def _report(fingerprint=None):
    return {
        "quick": True,
        "host": host_fingerprint(),
        "workloads": {
            "w": {"fingerprint": fingerprint or {"f": 1},
                  "packets_per_sec": 100.0, "wall_s": 1.0},
        },
    }


class TestBaselineGate:
    def test_fingerprint_drift_fails(self):
        baseline = {"quick": {"workloads": {
            "w": {"fingerprint": {"f": 1}, "packets_per_sec": 100.0},
        }}}
        rows = compare_to_baseline(_report(fingerprint={"f": 2}), baseline)
        assert not rows["w"]["ok"]
        assert any("drifted" in err for err in rows["w"]["errors"])
        assert compare_to_baseline(_report(), baseline)["w"]["ok"]

    def test_cross_machine_slowdown_is_labeled(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_WARN_PCT", raising=False)
        report = _report()
        baseline = {
            "host": {"python": "0.0.0", "machine": "vax"},
            "quick": {"workloads": {
                "w": {"fingerprint": {"f": 1}, "packets_per_sec": 1000.0},
            }},
        }
        rows = compare_to_baseline(report, baseline)
        assert rows["w"]["ok"]  # committed-baseline slowdowns never fail
        assert any("different or unknown host" in warning
                   for warning in rows["w"]["warnings"])
        # Same-host baselines keep the plain warning text.
        baseline["host"] = report["host"]
        rows = compare_to_baseline(report, baseline)
        assert any("committed baseline" in w and "unknown host" not in w
                   for w in rows["w"]["warnings"])

    def test_run_suite_carries_host(self):
        suite = run_suite(quick=True, names=["dispatcher_micro"])
        assert suite["host"] == host_fingerprint()
        assert set(suite["workloads"]) == {"dispatcher_micro"}
        assert "prechange" not in suite
        assert "flow_cache" not in suite["workloads"]["dispatcher_micro"]


# ---------------------------------------------------------------------------
# tracer: TCP options
# ---------------------------------------------------------------------------

class TestTraceTcpOptions:
    def test_decode_mss_and_window_scale(self):
        options = bytes([2, 4, 0x23, 0xC4]) + bytes([1]) + bytes([3, 3, 7])
        assert _decode_tcp_options(options) == "mss 9156,nop,ws 7"

    def test_decode_unknown_and_eol(self):
        options = bytes([8, 10]) + bytes(8) + bytes([0])
        assert _decode_tcp_options(options) == "opt-8,eol"

    def test_decode_malformed(self):
        assert _decode_tcp_options(bytes([2, 44, 1])) == "malformed"

    def test_handshake_shows_mss(self):
        bed = build_testbed("spin", "ethernet")
        tracer = PacketTracer(bed.engine)
        tracer.attach(bed.nics[0])
        tracer.attach(bed.nics[1])
        bed.stacks[1].tcp_manager.listen(Credential("s"), 9000,
                                         lambda tcb: None)
        bed.engine.run_process(bed.hosts[0].kernel_path(
            lambda: bed.stacks[0].tcp_manager.connect(
                Credential("c"), bed.ip(1), 9000)))
        bed.engine.run()
        # Both SYN and SYN|ACK advertise the Ethernet MSS (1500 - 40).
        syns = tracer.matching("opts=[mss 1460]")
        assert len(syns) >= 2
        # Data-less ACKs carry no options and no opts=[] noise.
        acks = tracer.matching("[ACK]")
        assert acks and all("opts=" not in r.summary for r in acks)
