"""The benchmark: host time per simulated request, with a per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs fresh-process samples of one workload (``perfbench/episode.py``)
until ``--seconds`` have passed, checks every sample's simulated
fingerprint, prints each metric by name with its unit and sample count,
and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics from untraced samples.
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics.  The exit status is non-zero on a correctness failure.
A full record of the run (every sample, the host-drift probe readings)
is written to ``.perfbench/runs/``; traced samples write their spans to
``.perfbench/spans/``.

    python3 perfbench/run.py --record

re-records ``perfbench/fingerprints.json`` for seeds 0-127 (only needed
when the workloads' inputs or the simulated behaviour change on purpose).
Workloads, metric names and units are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
EPISODE = os.path.join(HERE, "episode.py")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Inputs that do not depend on the seed: one recorded fingerprint.
SEED_INDEPENDENT = ("spin_udp_rpc",)
#: Seeds whose fingerprints ``--record`` writes.
RECORDED_SEEDS = range(128)

MIN_SAMPLES = 3
#: A run must end within this many seconds, hung samples included.
RUN_LIMIT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class SampleError(RuntimeError):
    """A sample process failed or printed no record."""


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def drift_probe():
    """Seconds for a fixed pure-Python loop (host-speed diagnostic only)."""
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(120_000):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - start


def run_sample(workload, seed, trace, spans_dir=None, timeout=RUN_LIMIT_S):
    """One fresh-process sample; returns its JSON record."""
    command = [sys.executable, EPISODE, "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    if spans_dir:
        command += ["--spans-dir", spans_dir]
    # The sample puts the checkout's own sources first on its path.
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    proc = subprocess.run(command + ["--t0", repr(start)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError("%s seed %d trace %d exited %d:\n%s"
                          % (workload, seed, trace, proc.returncode,
                             proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def load_fingerprints():
    with open(FINGERPRINTS) as handle:
        return json.load(handle)


def recorded_fingerprint(table, workload, seed):
    """The recorded fingerprint for (workload, seed), or None."""
    entry = table.get(workload)
    if not entry:
        return None
    key = "any" if workload in SEED_INDEPENDENT else str(seed)
    return entry["seeds"].get(key)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def host_us_per_request(samples):
    """Timed host us over completed requests, pooled over ``samples``.

    Pooling weighs every sample by its work.  On a host whose speed
    switches between modes lasting seconds, a run's median sample jumps
    from one mode to the other while the pooled ratio moves smoothly, so
    run-to-run spread is lower.
    """
    completed = sum(s["fingerprint"]["completed"] for s in samples)
    attempted = sum(s["fingerprint"]["attempted"] for s in samples)
    timed = sum(s["timed_s"] for s in samples)
    return timed * 1e6 / (completed or attempted or 1)


def peak_rss_mb(sample):
    return sample["peak_rss_kb"] / 1024.0


def end_to_end_metrics(samples, attempted, failed):
    return {
        "host_us_per_request": host_us_per_request(samples),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(peak_rss_mb(s) for s in samples),
        "completed_request_ratio": _ratio(attempted - failed, attempted),
    }


def layer_metrics(sample):
    """Per-layer metrics of one traced sample."""
    trace = sample["trace"]
    counts = sample["counts"]
    fp = sample["fingerprint"]
    requests = fp["completed"] or fp["attempted"] or 1
    frames = counts.get("hw.nic.tx_frames", 0)
    events = sample["events"]
    self_us = {layer: ns / 1000.0
               for layer, ns in trace["layer_self_ns"].items()}
    calls = trace["layer_calls"]
    target_self = trace["target_self_ns"]
    target_calls = trace["target_calls"]
    raises = counts.get("spin.dispatcher.raises", 0)
    dispatch_us = (target_self["repro.spin.dispatcher:Dispatcher.raise_event"]
                   + target_self["repro.spin.dispatcher:Dispatcher.raise_flow"]
                   ) / 1000.0
    checksum_us = target_self["repro.net.checksum:internet_checksum"] / 1000.0
    hits = counts.get("spin.flowcache.hits", 0)
    misses = counts.get("spin.flowcache.misses", 0)
    table_hits = counts.get("fabric.table.hits", 0)
    table_misses = counts.get("fabric.table.misses", 0)
    segments = counts.get("net.tcp.segments_out", 0)
    lookups = sum(n for name, n in target_calls.items()
                  if name.endswith("MatchTable.lookup"))
    return {
        "sim.events_per_request": events / requests,
        "sim.self_us_per_event": _ratio(self_us["sim"], events),
        "sim.timers_per_request": counts.get("sim.wheel.scheduled", 0) / requests,
        "sim.pending_peak": trace["pending_peak"],
        "hw.frames_per_request": frames / requests,
        "hw.self_us_per_frame": _ratio(self_us["hw"], frames),
        "hw.cpu.charges_per_frame": _ratio(
            target_calls["repro.hw.cpu:CPU.charge"], frames),
        "hw.nic.rx_drops": counts.get("hw.nic.rx_drops", 0),
        "net.self_us_per_frame": _ratio(self_us["net"], frames),
        "net.checksum.bytes_per_frame": _ratio(trace["checksum_bytes"], frames),
        "net.checksum.self_us_per_kb": _ratio(
            checksum_us, trace["checksum_bytes"] / 1024.0),
        "net.tcp.segments_per_request": segments / requests,
        "net.tcp.self_us_per_segment": _ratio(self_us["net.tcp"], segments),
        "net.tcp.retransmits": trace["tcp_retransmits"],
        "spin.raises_per_request": raises / requests,
        "spin.invocations_per_raise": _ratio(
            counts.get("spin.dispatcher.invocations", 0), raises),
        "spin.dispatch.self_us_per_raise": _ratio(dispatch_us, raises),
        "spin.flowcache.hit_ratio": _ratio(hits, hits + misses),
        "spin.flowcache.evictions_per_request":
            counts.get("spin.flowcache.evictions", 0) / requests,
        "spin.mbuf.allocs_per_frame": _ratio(
            counts.get("spin.mbuf.allocated", 0), frames),
        "core.self_us_per_request": self_us["core"] / requests,
        "lang.self_us_per_request": self_us["lang"] / requests,
        "unixos.calls_per_request": calls["unixos"] / requests,
        "unixos.self_us_per_call": _ratio(self_us["unixos"], calls["unixos"]),
        "unixos.poller.ready_per_wait": _ratio(trace["poller_ready"],
                                               trace["poller_waits"]),
        "fabric.lookups_per_frame": _ratio(lookups, frames),
        "fabric.table.hit_ratio": _ratio(table_hits, table_hits + table_misses),
        "fabric.ecmp_per_frame": _ratio(
            counts.get("fabric.pipeline.ecmp", 0), frames),
        "fabric.self_us_per_frame": _ratio(self_us["fabric"], frames),
        "obs.self_us_per_request": self_us["obs"] / requests,
    }


def per_layer_metrics(untraced, traced):
    per_sample = [layer_metrics(s) for s in traced]
    metrics = {name: statistics.median(m[name] for m in per_sample)
               for name in per_sample[0]}
    metrics["bench.trace_overhead_ratio"] = (
        host_us_per_request(traced) / host_us_per_request(untraced))
    metrics["py.gc.collections_per_request"] = statistics.median(
        s["gc"]["collections"] / (s["fingerprint"]["completed"] or 1)
        for s in untraced)
    metrics["py.gc.pause_share"] = statistics.median(
        _ratio(s["gc"]["pause_s"], s["timed_s"]) for s in untraced)
    return metrics


# ---------------------------------------------------------------------------
# verdict
# ---------------------------------------------------------------------------

def verdict(samples, reference):
    """Correctness checks; returns (problems, attempted, failed)."""
    problems = []
    first = samples[0]["fingerprint"]
    for index, sample in enumerate(samples[1:], 1):
        if sample["fingerprint"] != first:
            problems.append("sample %d (trace=%d) fingerprint %r differs "
                            "from sample 0 %r" % (index, sample["trace"],
                                                  sample["fingerprint"], first))
    if first != reference:
        problems.append("fingerprint %r differs from the reference %r"
                        % (first, reference))
    untraced = [s for s in samples if not s["trace"]]
    attempted = sum(s["fingerprint"]["attempted"] for s in untraced)
    if problems:
        return problems, attempted, attempted
    failed = sum(s["fingerprint"]["attempted"] - s["fingerprint"]["completed"]
                 for s in untraced)
    if failed:
        problems.append("%d of %d requests did not complete by the horizon"
                        % (failed, attempted))
    return problems, attempted, failed


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def collect(workload, seed, seconds, trace):
    """Run samples until ``seconds`` have passed; returns the run record."""
    spans_dir = os.path.join(OUT_DIR, "spans")
    started = time.perf_counter()
    deadline = started + seconds

    def time_left():
        return max(5.0, RUN_LIMIT_S - (time.perf_counter() - started))

    samples = []
    probes = []
    while True:
        untraced = sum(1 for s in samples if not s["trace"])
        traced = len(samples) - untraced
        if trace:
            want = 1 if traced < untraced else 0
            enough = untraced >= 1 and traced >= 1
        else:
            want = 0
            enough = untraced >= MIN_SAMPLES
        if enough and time.perf_counter() >= deadline:
            break
        before = drift_probe()
        samples.append(run_sample(workload, seed, want,
                                  spans_dir if want else None, time_left()))
        probes.append({"before_s": before, "after_s": drift_probe()})
    table = load_fingerprints()
    reference = recorded_fingerprint(table, workload, seed)
    reference_source = "recorded fingerprint"
    if reference is None:
        # No recording for this seed: fall back to determinism checks
        # (every sample, traced or not, must agree with the first).
        reference = samples[0]["fingerprint"]
        reference_source = "first sample (seed not recorded)"
    problems, attempted, failed = verdict(samples, reference)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "reference": reference_source,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
        "drift_probe": probes,
    }


def report(record, spec):
    """Print metrics by name with unit and sample count; return JSON dict."""
    samples = record["samples"]
    untraced = [s for s in samples if not s["trace"]]
    traced = [s for s in samples if s["trace"]]
    print("perfbench %s seed=%d trace=%d: %d untraced + %d traced samples, "
          "fingerprint checked against %s"
          % (record["workload"], record["seed"], record["trace"],
             len(untraced), len(traced), record["reference"]))
    if record["trace"]:
        declared = spec["per_layer"]
        metrics = per_layer_metrics(untraced, traced)
        counts = {entry["name"]: len(traced) for entry in declared}
        for name in ("py.gc.collections_per_request", "py.gc.pause_share"):
            counts[name] = len(untraced)
        per_sample = {}
    else:
        declared = spec["end_to_end"]
        metrics = end_to_end_metrics(untraced, record["attempted"],
                                     record["failed"])
        counts = {entry["name"]: len(untraced) for entry in declared}
        per_sample = {
            "host_us_per_request": [host_us_per_request([s])
                                    for s in untraced],
            "setup_s": [s["setup_s"] for s in untraced],
            "peak_rss_mb": [peak_rss_mb(s) for s in untraced],
        }
    units = {entry["name"]: entry["unit"] for entry in declared}
    for name, unit in units.items():
        line = "  %-40s %14.6g %-14s n=%d" % (name, metrics[name], unit,
                                            counts[name])
        if name in per_sample:
            line += "  IQR/median=%.3f" % spread(per_sample[name])
        print(line)
    print("  %-40s %14.6g %-14s n=%d" % (
        "failed_request_ratio", _ratio(record["failed"], record["attempted"]),
        "ratio", record["attempted"]))
    before = [p["before_s"] for p in record["drift_probe"]]
    after = [p["after_s"] for p in record["drift_probe"]]
    print("  host-drift probe (diagnostic only): median %.2f ms before, "
          "%.2f ms after each sample; slowest/fastest %.2f"
          % (1e3 * statistics.median(before), 1e3 * statistics.median(after),
             max(before + after) / min(before + after)))
    unresolved = sorted({name for s in traced
                         for name in s["trace"]["unresolved"]})
    if unresolved:
        print("  traced entry points not found (their layers read low): %s"
              % ", ".join(unresolved))
    for problem in record["problems"]:
        print("  CORRECTNESS: %s" % problem)
    return {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


# ---------------------------------------------------------------------------
# fingerprint recording
# ---------------------------------------------------------------------------

def record_fingerprints(workloads):
    table = {}
    for workload in workloads:
        keys = ["any"] if workload in SEED_INDEPENDENT else RECORDED_SEEDS
        entry = {"seeds": {}}
        for key in keys:
            sample = run_sample(workload, 0 if key == "any" else key, 0)
            entry["size"] = sample["size"]
            entry["seeds"][str(key)] = sample["fingerprint"]
            print("recorded %s seed %s" % (workload, key), file=sys.stderr)
        table[workload] = entry
    write_fingerprints(table)


def write_fingerprints(table):
    """Write the table with one line per (workload, seed) fingerprint."""
    lines = ["{"]
    for w_index, workload in enumerate(sorted(table)):
        entry = table[workload]
        lines.append(' "%s": {"size": %d, "seeds": {'
                     % (workload, entry["size"]))
        keys = sorted(entry["seeds"],
                      key=lambda key: int(key) if key.isdigit() else -1)
        for k_index, key in enumerate(keys):
            comma = "," if k_index < len(keys) - 1 else ""
            lines.append('  "%s": %s%s' % (
                key, json.dumps(entry["seeds"][key], sort_keys=True), comma))
        lines.append(" }}" + ("," if w_index < len(table) - 1 else ""))
    lines.append("}")
    with open(FINGERPRINTS, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def main(argv=None):
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Host time per simulated request, per workload.")
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record perfbench/fingerprints.json")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no simulator sources under %s/src; run from a "
              "checkout of the repository" % ROOT, file=sys.stderr)
        return 2
    if args.record:
        record_fingerprints(names)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        record = collect(args.workload, args.seed, args.seconds, args.trace)
    except (SampleError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    result = report(record, spec)
    os.makedirs(os.path.join(OUT_DIR, "runs"), exist_ok=True)
    path = os.path.join(OUT_DIR, "runs", "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump({"record": record, "result": result}, handle)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
