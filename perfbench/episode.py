"""One benchmark run of one workload, in a fresh interpreter.

    python3 perfbench/episode.py --workload NAME --seed N --trace 0|1 \
        --t0 PERF_COUNTER_AT_SPAWN

Prints one JSON record on stdout: the host timings of the timed region
(first to last simulated event), set-up time from ``--t0``, peak RSS,
the simulated fingerprint, registry counts, cyclic-GC activity inside
the timed region and, with ``--trace 1``, per-layer span totals.  The
runner (``perfbench/run.py``) starts one of these per sample, so no
peak, cache or pool ever carries over between samples.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class GcMeter:
    """Cyclic-GC collections and pause time while ``active``."""

    def __init__(self):
        self.active = False
        self.collections = 0
        self.pause_s = 0.0
        self._started = None
        gc.callbacks.append(self._callback)

    def _callback(self, phase, _info):
        if not self.active:
            return
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1
            self._started = None

    def start(self):
        self.collections = 0
        self.pause_s = 0.0
        self.active = True

    def stop(self):
        self.active = False
        return {"collections": self.collections, "pause_s": self.pause_s}


def peak_rss_kb():
    """Peak resident set size of this process in KB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="host perf_counter() when run.py spawned us")
    parser.add_argument("--spans-dir", default=None)
    args = parser.parse_args(argv)
    t0 = time.perf_counter() if args.t0 is None else args.t0

    # Import the benchmark as a package from the checkout root, never
    # its modules by bare name from the script directory.
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]
    from perfbench import workloads

    meter = GcMeter()
    recorder = None
    if args.trace:
        from perfbench.spans import Recorder
        recorder = Recorder()
        recorder.install()
        workloads.TIMED_START_HOOKS.append(recorder.reset)
    workloads.TIMED_START_HOOKS.append(meter.start)

    first, last, record = workloads.run_episode(args.workload, args.seed)
    gc_stats = meter.stop()
    fingerprint = record["fingerprint"]
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": workloads.SIZES[args.workload],
        "setup_s": first - t0,
        "timed_s": last - first,
        "peak_rss_kb": peak_rss_kb(),
        "fingerprint": fingerprint,
        "events": record["events"],
        "counts": {name: entry["value"]
                   for name, entry in record["snapshot"].items()
                   if isinstance(entry["value"], (int, float))},
        "gc": gc_stats,
    }
    if recorder is not None:
        out["trace"] = recorder.totals()
        if args.spans_dir:
            recorder.write_spans(os.path.join(
                args.spans_dir, "%s.spans" % args.workload))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
