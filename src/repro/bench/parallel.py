"""Partitioned scale-out workloads: the testbed sharded across engines.

The classic ``many_flows`` workload drives ``scale`` concurrent client
flows against one server on a single engine.  Here the *same* scenario is
sharded: each partition owns a private client-host/server-host ATM bed
(built by the one shared :func:`repro.bench.wallclock._many_flows_setup`)
carrying its contiguous slice of the flows, and the partitions run as a
:class:`repro.sim.PartitionedSimulation` -- the serial executor
(``REPRO_SIM_PARALLEL=0`` or ``parallel=False``) as the bit-exactness
oracle, the parallel executor forking one worker process per partition.
``mega_flows`` scales the same shape to 50k-100k concurrent flows (see
:func:`repro.bench.wallclock._mega_flows_setup`) and is the headline row
of the parallel report.

Flow sharding is embarrassingly parallel (no boundary channels between
the shards -- cross-partition media are exercised by the T3 boundary
pair, the round-overhead microbench below, and the chaos partition
campaigns), which is exactly what makes the speedup curve an honest
measure of the partitioned core's overhead: every event still flows
through the same ``SchedulerCore``, rounds, and result merge.

Fingerprints of the partitioned mode are defined over the *merged*
results (sums of flow counters, max of final clocks, rolled-up metrics
snapshots) and carry a ``partitions`` field, so they are comparable only
against runs with the same partition count -- the oracle is the serial
executor at equal ``sim_jobs``, never the classic unpartitioned record.

``python -m repro.bench --parallel-curve`` writes the
``BENCH_parallel.json`` speedup-curve artifact (jobs in {1, 2, 4} plus
the mega_flows headline row); ``--round-overhead`` runs the
coordination-cost microbench on its own.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence

__all__ = [
    "affinity_cores",
    "run_partitioned_workload",
    "run_partitioned_many_flows",
    "run_parallel_legs",
    "run_round_overhead",
    "speedup_expectation",
    "write_parallel_report",
    "PARALLEL_REPORT_FILENAME",
    "PARALLEL_REPORT_SCHEMA_VERSION",
]

PARALLEL_REPORT_FILENAME = "BENCH_parallel.json"
PARALLEL_REPORT_SCHEMA_VERSION = 2

_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", ".."))


def affinity_cores() -> int:
    """CPU cores this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the machine; a container or cgroup can
    pin the process to fewer cores, and the speedup expectation must key
    off what the executor can really use.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _split_scale(scale: int, n_partitions: int, index: int) -> int:
    """Partition ``index``'s slice of ``scale`` flows (remainder goes low)."""
    base, extra = divmod(scale, n_partitions)
    return base + (1 if index < extra else 0)


def _flows_partition_result(engine, bed, main, state, shard_scale, rss0_kb):
    """The shared ``result()`` shape for flow-sharded partitions."""
    from ..obs.wire import instrument_testbed
    from .wallclock import _rss_now_kb

    def result() -> Dict:
        main.value  # surfaces any exception that escaped the workload
        record = dict(state)
        record["flows"] = shard_scale
        record["final_now_us"] = engine.now
        record["events"] = engine.events_processed
        record["metrics"] = instrument_testbed(bed).snapshot()
        # Host-side memory accounting, never part of the deterministic
        # surface: under the parallel executor this measures the worker
        # process's own RSS growth from partition build to here.
        # *Current* RSS, not peak: a forked worker inherits the parent's
        # peak, which may already dwarf the shard.
        record["rss_grew_kb"] = max(0, _rss_now_kb() - rss0_kb)
        return record

    return result


def _many_flows_partition(index: int, n_partitions: int, spec: Dict):
    """Build one ``many_flows`` shard (runs inside the owning process)."""
    from ..sim import Partition, PartitionEngine
    from .testbed import build_testbed
    from .wallclock import _many_flows_setup, _rss_now_kb

    rss0_kb = _rss_now_kb()
    engine = PartitionEngine(index)
    bed = build_testbed("unix", "atm", deliver_mode="interrupt", engine=engine)
    bed.partition_index = index
    shard_scale = _split_scale(spec["scale"], n_partitions, index)
    state, main_factory = _many_flows_setup(bed, shard_scale)
    main = engine.process(main_factory(), name="wallclock-many-flows")
    return Partition(
        engine, done=lambda: main.triggered,
        result=_flows_partition_result(engine, bed, main, state, shard_scale,
                                       rss0_kb))


def _mega_flows_partition(index: int, n_partitions: int, spec: Dict):
    """Build one ``mega_flows`` shard (runs inside the owning process)."""
    from ..sim import Partition, PartitionEngine
    from .testbed import build_testbed
    from .wallclock import (_mega_flows_setup, _mega_client_hosts,
                            _rss_now_kb)

    rss0_kb = _rss_now_kb()
    engine = PartitionEngine(index)
    shard_scale = _split_scale(spec["scale"], n_partitions, index)
    bed = build_testbed("unix", "atm", deliver_mode="interrupt", engine=engine,
                        n_hosts=_mega_client_hosts(shard_scale) + 1)
    bed.partition_index = index
    state, main_factory = _mega_flows_setup(bed, shard_scale)
    main = engine.process(main_factory(), name="wallclock-mega-flows")
    return Partition(
        engine, done=lambda: main.triggered,
        result=_flows_partition_result(engine, bed, main, state, shard_scale,
                                       rss0_kb))


def _fabric_fat_tree_partition(index: int, n_partitions: int, spec: Dict):
    """Build one fat-tree shard (runs inside the owning process).

    Unlike the flow-sharded workloads, ``scale`` is *per host* and is
    not split: the topology is sharded instead (contiguous pods per
    partition, cores on partition 0, agg-to-core wires crossing shards
    as boundary channels), so every datagram crosses the partition
    boundary twice on its way through the core tier.
    """
    from ..fabric.topology import fat_tree_partition
    from ..obs.wire import instrument_testbed
    from ..sim import Partition, PartitionEngine
    from .wallclock import (_FABRIC_K, _fabric_fat_tree_setup,
                            _fabric_switch_totals, _rss_now_kb)

    rss0_kb = _rss_now_kb()
    engine = PartitionEngine(index)
    bed = fat_tree_partition(_FABRIC_K, index, n_partitions, engine)
    state, main_factory = _fabric_fat_tree_setup(bed, spec["scale"])
    main = engine.process(main_factory(), name="wallclock-fabric")

    def result() -> Dict:
        main.value
        record = dict(state)
        record.update(_fabric_switch_totals(bed))
        record["final_now_us"] = engine.now
        record["events"] = engine.events_processed
        record["metrics"] = instrument_testbed(bed).snapshot()
        record["rss_grew_kb"] = max(0, _rss_now_kb() - rss0_kb)
        return record

    return Partition(engine, done=lambda: main.triggered, result=result)


_PARTITION_BUILDERS = {
    "many_flows": _many_flows_partition,
    "mega_flows": _mega_flows_partition,
    "fabric_fat_tree": _fabric_fat_tree_partition,
}


def run_partitioned_workload(workload: str, scale: int, sim_jobs: int,
                             parallel: Optional[bool] = None) -> Dict:
    """Run a flow-sharded workload over ``sim_jobs`` partitions.

    Returns a record shaped like the other wall-clock workload records
    (``wall_s`` / ``events`` / ``metrics`` / ``fingerprint``...).
    ``parallel=None`` lets ``REPRO_SIM_PARALLEL`` decide the executor;
    ``parallel=False`` forces the in-process serial oracle.

    ``per_flow_kb`` is best-effort host accounting: the serial executor
    reports this process's peak-RSS growth across the run (zero when an
    earlier run in the same process already set the peak), the parallel
    executor sums each worker's own growth -- a fork starts near the
    parent's footprint, so worker growth is the partition's real cost.
    """
    from ..obs.registry import merge_snapshots
    from ..sim import PartitionedSimulation
    from .wallclock import _rss_kb

    builder = _PARTITION_BUILDERS[workload]
    if sim_jobs < 1:
        raise ValueError("sim_jobs must be >= 1, got %d" % sim_jobs)
    # fabric_fat_tree shards the topology, not the flow count; its
    # builder validates that sim_jobs divides the pod count.
    if workload != "fabric_fat_tree" and scale < sim_jobs:
        raise ValueError(
            "%s needs at least one flow per partition "
            "(scale=%d, sim_jobs=%d)" % (workload, scale, sim_jobs))
    simulation = PartitionedSimulation(
        builder, sim_jobs, {"scale": scale}, parallel=parallel)
    rss0_kb = _rss_kb()
    wall0 = time.perf_counter()
    results = simulation.run()
    wall = time.perf_counter() - wall0

    executor = ("parallel" if simulation.parallel and sim_jobs > 1
                else "serial")
    if executor == "parallel":
        grew_kb = sum(r.get("rss_grew_kb", 0) for r in results)
    else:
        grew_kb = max(0, _rss_kb() - rss0_kb)
    events = sum(r["events"] for r in results)
    if workload == "fabric_fat_tree":
        packets = sum(r["received"] for r in results)
        fingerprint = {
            "scale": scale,
            "partitions": sim_jobs,
            "sent": sum(r["sent"] for r in results),
            "received": sum(r["received"] for r in results),
            "bytes": sum(r["bytes"] for r in results),
            "switch_forwarded": sum(r["switch_forwarded"] for r in results),
            "switch_dropped": sum(r["switch_dropped"] for r in results),
            "ecmp": sum(r["ecmp"] for r in results),
            "final_now_us": max(r["final_now_us"] for r in results),
        }
        per_flow_denominator = max(1, fingerprint["sent"])
    else:
        served = sum(r["served"] for r in results)
        packets = served * 2
        fingerprint = {
            "flows": scale,
            "partitions": sim_jobs,
            "tcp_done": sum(r["tcp_done"] for r in results),
            "udp_done": sum(r["udp_done"] for r in results),
            "bytes_in": sum(r["bytes_in"] for r in results),
            # Peaks are concurrent *per partition*; the sum is the
            # testbed-wide concurrency the sharded run sustained.
            "peak_conns": sum(r["peak_conns"] for r in results),
            "peak_watched": sum(r["peak_watched"] for r in results),
            "final_now_us": max(r["final_now_us"] for r in results),
        }
        per_flow_denominator = scale
    return {
        "wall_s": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "packets": packets,
        "packets_per_sec": packets / wall if wall > 0 else 0.0,
        "per_flow_kb": grew_kb / per_flow_denominator,
        "sim_jobs": sim_jobs,
        "executor": executor,
        "rounds": simulation.rounds,
        "round_stats": simulation.round_stats(),
        "metrics": merge_snapshots([r["metrics"] for r in results]),
        "fingerprint": fingerprint,
    }


def run_partitioned_many_flows(scale: int, sim_jobs: int,
                               parallel: Optional[bool] = None) -> Dict:
    """Back-compat wrapper: ``many_flows`` over ``sim_jobs`` partitions."""
    return run_partitioned_workload("many_flows", scale, sim_jobs,
                                    parallel=parallel)


def _comparable(record: Dict) -> Dict:
    """The deterministic projection of a record (what the oracle gates on).

    Exactly the acceptance surface: event counts, simulated-time
    fingerprint, and the merged metrics snapshots.  Wall-clock and RSS
    fields are host measurements and excluded.
    """
    return {
        "events": record["events"],
        "fingerprint": record["fingerprint"],
        "metrics": record["metrics"],
    }


def run_parallel_legs(jobs_values: Sequence[int], scale: int,
                      workload: str = "many_flows") -> List[Dict]:
    """One speedup-curve leg per jobs value against a shared serial base.

    The jobs=1 in-process run is the curve's one serial reference: it
    runs exactly once (warmed -- a discarded small-scale pass precedes
    it), and every leg's ``speedup`` is measured against its wall clock.
    Re-running it per jobs value -- as the schema-1 curve did -- was pure
    bench-time waste: at one partition the "serial" and "parallel"
    executors are the identical in-process code path.

    The *identity* oracle is a different animal and cannot be shared:
    fingerprints carry ``partitions``, so each jobs>1 leg still runs the
    serial executor at its own partition count and hard-gates ``ok`` on
    events / fingerprint / metrics equality with the parallel run.
    """
    legs: List[Dict] = []
    # Warm the process once (imports, allocator pools) so the
    # serial reference isn't the one cold run of the sweep.
    run_partitioned_workload(workload, min(scale, 512), 1, parallel=False)
    reference = run_partitioned_workload(workload, scale, 1, parallel=False)
    for jobs in jobs_values:
        if jobs == 1:
            oracle = current = reference
            ok, errors = True, []
        else:
            oracle = run_partitioned_workload(workload, scale, jobs,
                                              parallel=False)
            current = run_partitioned_workload(workload, scale, jobs,
                                               parallel=None)
            ok = _comparable(current) == _comparable(oracle)
            errors = []
            if not ok:
                for key in ("events", "fingerprint", "metrics"):
                    if current[key] != oracle[key]:
                        errors.append(
                            "parallel %s diverged from the serial oracle: "
                            "%r != %r" % (key, current[key], oracle[key]))
        legs.append({
            "sim_jobs": jobs,
            "scale": scale,
            "workload": workload,
            "executor": current["executor"],
            "serial": {"wall_s": reference["wall_s"],
                       "events_per_sec": reference["events_per_sec"],
                       "rounds": reference["rounds"]},
            "oracle": {"wall_s": oracle["wall_s"],
                       "events_per_sec": oracle["events_per_sec"],
                       "rounds": oracle["rounds"]},
            "parallel": {"wall_s": current["wall_s"],
                         "events": current["events"],
                         "events_per_sec": current["events_per_sec"],
                         "rounds": current["rounds"],
                         "per_flow_kb": current["per_flow_kb"]},
            "speedup": (reference["wall_s"] / current["wall_s"]
                        if current["wall_s"] > 0 else 0.0),
            "fingerprint": current["fingerprint"],
            "ok": ok,
            "errors": errors,
        })
    return legs


def speedup_expectation(legs: Sequence[Dict],
                        min_speedup: Optional[float] = None) -> Dict:
    """Evaluate the jobs=2 speedup gate against the visible cores.

    On hosts with >= 2 affinity-visible cores the jobs=2 parallel leg
    must reach ``min_speedup`` x the serial reference
    (``REPRO_SIM_SPEEDUP_MIN``, default 1.3).  On single-core hosts a
    speedup curve is physically meaningless, so the expectation records
    itself as skipped-with-note instead of failing -- the cpu_count
    annotation in the report is the evidence.
    """
    if min_speedup is None:
        try:
            min_speedup = float(os.environ.get("REPRO_SIM_SPEEDUP_MIN", ""))
        except ValueError:
            min_speedup = 1.3
    cores = affinity_cores()
    verdict = {
        "min_speedup": min_speedup,
        "cpu_count": os.cpu_count(),
        "affinity_cores": cores,
    }
    leg = next((leg for leg in legs
                if leg["sim_jobs"] == 2 and leg["executor"] == "parallel"),
               None)
    if cores < 2:
        verdict.update(gated=False, passed=None, note=(
            "single core visible (affinity=%d): speedup curve recorded as "
            "informational only" % cores))
    elif leg is None:
        verdict.update(gated=False, passed=None, note=(
            "no jobs=2 parallel leg in this sweep; nothing to gate"))
    else:
        passed = leg["speedup"] >= min_speedup
        verdict.update(gated=True, passed=passed, speedup=leg["speedup"],
                       note=("jobs=2 speedup %.3fx %s the %.2fx expectation"
                             % (leg["speedup"],
                                "meets" if passed else "MISSES", min_speedup)))
    return verdict


# ---------------------------------------------------------------------------
# round-overhead microbench
# ---------------------------------------------------------------------------

class _EchoChannel:
    """A minimal boundary channel for the round-overhead microbench.

    No testbed, no protocol stack: partition 0 sends a ping, partition 1
    echoes it back from ``deliver``, and each exchange *forces* a
    coordinator round trip -- the sum measured is pure round machinery
    (routing, bound relaxation, ring transport, barrier), which is the
    coordination cost the flamegraph profiler wants attributed.
    """

    CHANNEL_ID = "round-overhead"
    LOOKAHEAD_US = 1.0

    def __init__(self, engine, echo: bool, messages: int = 0):
        self.engine = engine
        self.channel_id = self.CHANNEL_ID
        self.lookahead_us = self.LOOKAHEAD_US
        self.echo = echo
        self.messages = messages
        self.sent = 0
        self.received = 0
        engine.register_channel(self)

    def send_next(self) -> None:
        self.sent += 1
        self.engine.send_boundary(
            self.channel_id, self.engine.now + self.lookahead_us, self.sent,
            b"ping")

    def deliver(self, payload) -> None:
        self.received += 1
        if self.echo:
            self.send_next()
        elif self.sent < self.messages:
            self.send_next()


def _round_overhead_partition(index: int, n_partitions: int, spec: Dict):
    from ..sim import Partition, PartitionEngine

    engine = PartitionEngine(index)
    messages = spec["messages"]
    if index == 0:
        channel = _EchoChannel(engine, echo=False, messages=messages)
        engine.call_at(0.5, lambda _event: channel.send_next())
        return Partition(
            engine,
            done=lambda: channel.received == messages,
            result=lambda: {"sent": channel.sent,
                            "received": channel.received,
                            "events": engine.events_processed})
    channel = _EchoChannel(engine, echo=True)
    return Partition(
        engine, done=lambda: True,
        result=lambda: {"sent": channel.sent, "received": channel.received,
                        "events": engine.events_processed})


def run_round_overhead(messages: int = 500,
                       parallel: Optional[bool] = None) -> Dict:
    """Measure per-round coordination cost with a forced-round ping-pong.

    Every message needs two rounds (ping over, echo back), so
    ``rounds/sec`` is the reciprocal of the full coordinator round trip
    and ``barrier_us`` is the wall cost of post+window+collect per round.
    The counters are also exported through a ``repro.obs`` registry
    (``sim.coord.*``) so profiler pipelines can ingest them uniformly.
    """
    from ..obs.registry import MetricsRegistry
    from ..sim import PartitionedSimulation

    simulation = PartitionedSimulation(
        _round_overhead_partition, 2, {"messages": messages},
        parallel=parallel)
    wall0 = time.perf_counter()
    results = simulation.run()
    wall = time.perf_counter() - wall0
    if results[0]["received"] != messages:
        raise AssertionError(
            "round-overhead bench lost messages: %d echoed of %d"
            % (results[0]["received"], messages))

    registry = MetricsRegistry()
    simulation.register_metrics(registry)
    stats = simulation.round_stats()
    return {
        "messages": messages,
        "executor": "parallel" if simulation.parallel else "serial",
        "wall_s": wall,
        "rounds": stats["rounds"],
        "rounds_per_sec": stats["rounds"] / wall if wall > 0 else 0.0,
        "events_per_round": stats["events_per_round"],
        "barrier_us": stats["barrier_us_mean"],
        "frames_routed": stats["frames_routed"],
        "ring_fallbacks": stats["ring_fallbacks"],
        "metrics": registry.snapshot(),
    }


def write_parallel_report(legs: List[Dict], scale: int,
                          path: Optional[str] = None,
                          round_overhead: Optional[Dict] = None,
                          mega: Optional[Dict] = None) -> str:
    """Write the ``BENCH_parallel.json`` artifact (schema 2).

    Schema 2 adds the affinity-aware core counts, the explicit speedup
    expectation (gated or skipped-with-note), the round-overhead
    microbench section, and the optional ``mega_flows`` headline row.
    """
    from .wallclock import host_fingerprint

    expectation = speedup_expectation(legs)
    report = {
        "schema_version": PARALLEL_REPORT_SCHEMA_VERSION,
        "generated_by": "python -m repro.bench --parallel-curve",
        "workload": "many_flows",
        "scale": scale,
        "host": host_fingerprint(),
        "cpu_count": os.cpu_count(),
        "affinity_cores": affinity_cores(),
        "legs": legs,
        "speedup_expectation": expectation,
        "ok": all(leg["ok"] for leg in legs)
              and expectation.get("passed") is not False,
    }
    if round_overhead is not None:
        # The merged metrics snapshot is already summarized by the
        # scalar fields; keep the artifact lean.
        report["round_overhead"] = {
            key: value for key, value in round_overhead.items()
            if key != "metrics"}
    if mega is not None:
        report["mega_flows"] = {
            "scale": mega["fingerprint"]["flows"],
            "sim_jobs": mega["sim_jobs"],
            "executor": mega["executor"],
            "wall_s": mega["wall_s"],
            "events": mega["events"],
            "events_per_sec": mega["events_per_sec"],
            "per_flow_kb": mega["per_flow_kb"],
            "rounds": mega["rounds"],
            "fingerprint": mega["fingerprint"],
        }
        if "per_flow_kb_serial" in mega:
            # The serial oracle's peak-delta measurement: forked
            # workers inherit resident pages, deflating their growth.
            report["mega_flows"]["per_flow_kb_serial"] = \
                mega["per_flow_kb_serial"]
    path = path or os.path.join(_REPO_ROOT, PARALLEL_REPORT_FILENAME)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
