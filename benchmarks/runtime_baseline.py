"""Machine-readable runtime baseline: serial vs sharded vs warm cache.

Writes ``BENCH_runtime.json`` (at the repo root by default) recording
end-to-end analysis wall time over the paper scenario for:

* ``serial``    — ``jobs=1``, no cache (the pre-runtime pipeline path);
* ``parallel``  — ``jobs=N`` (default 4, clamped to the host's cpu
  count), no cache; skipped outright on a single-cpu host, where the
  number would measure time-slicing;
* ``cold_cache``— effective jobs with an empty artifact cache (prime
  cost); must land within ``--cold-ratio-limit`` of serial;
* ``warm_cache``— ``jobs=1`` re-run against the primed cache;
* ``distributed`` — loopback coordinator plus 2 socket workers
  (``repro-dist``), recorded in its own section and tagged
  ``oversubscribed`` when the workers outnumber the cpus (the wall time
  then measures protocol overhead plus time-slicing, not scale-out).

The ``jobs`` section records both the *requested* and the *effective*
worker counts — the effective number is what every parallel/cache run
actually used, so a reader can never mistake an oversubscribed timing
for a parallel one.

Every run must produce the same canonical results digest — the harness
asserts it (and ``--expect-digest`` pins it to a known value) — so the
recorded speedups are for *identical* output.

Usage::

    PYTHONPATH=src python benchmarks/runtime_baseline.py
    PYTHONPATH=src python benchmarks/runtime_baseline.py --scale 0.25 --jobs 8
    PYTHONPATH=src python benchmarks/runtime_baseline.py --scale 2 \
        --serial-only --out /dev/stdout
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.runtime import (
    RuntimeConfig,
    code_version,
    results_digest,
    runner_for_bundle,
)
from repro.runtime.stages import STAGES
from repro.sim.io import load_bundle, write_world
from repro.sim.scenario import paper_scenario
from repro.sim.world import build_world

REPO_ROOT = Path(__file__).resolve().parent.parent


def _timed_run(bundle, config: RuntimeConfig) -> tuple[float, str, object]:
    started = time.perf_counter()
    runner = runner_for_bundle(bundle, config)
    results = runner.run()
    return time.perf_counter() - started, results_digest(results), runner


def _best_timed_run(bundle, make_config, repeat: int):
    """Best-of-``repeat`` wall time for one execution mode.

    ``make_config(i)`` builds the i-th repetition's config (cold-cache
    runs hand out a fresh cache directory each time).  The *minimum*
    wall time is the repetition least disturbed by scheduler noise —
    on shared single-cpu hosts a stolen time slice can double a
    sub-second measurement, and a gated ratio must not fail on that.
    Digests are asserted identical across repetitions; the last
    repetition's runner is returned for report inspection.
    """
    best_s, digest, last_runner = None, None, None
    for index in range(max(1, repeat)):
        seconds, run_digest, runner = _timed_run(bundle, make_config(index))
        if digest is None:
            digest = run_digest
        elif run_digest != digest:
            raise AssertionError(
                "repetitions disagree on results: %s vs %s"
                % (digest, run_digest))
        if best_s is None or seconds < best_s:
            best_s = seconds
        last_runner = runner
    return best_s, digest, last_runner


def _timed_dist_run(bundle, workers: int = 2):
    """Time the full pipeline through loopback sockets (repro-dist)."""
    from repro.dist.coordinator import DistConfig, dist_runner_for_bundle
    from repro.dist.loopback import run_loopback
    from repro.runtime.workers import WorkerContext

    started = time.perf_counter()
    runner = dist_runner_for_bundle(bundle, DistConfig(workers=workers))
    context = WorkerContext(
        connlog=bundle.connlog, archive=bundle.archive,
        ip2as=bundle.ip2as, kroot=bundle.kroot, uptime=bundle.uptime,
        min_connected=runner._min_connected)
    run = run_loopback(runner, context, worker_count=workers)
    if run.worker_errors:
        raise AssertionError("distributed bench workers died: %r"
                             % (run.worker_errors,))
    return time.perf_counter() - started, run.digest, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Record the serial / sharded / warm-cache analysis "
                    "baseline into BENCH_runtime.json")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="paper-scenario scale (default %(default)s)")
    parser.add_argument("--seed", type=int, default=2015,
                        help="scenario seed (default %(default)s)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="workers for the parallel runs "
                             "(default %(default)s)")
    parser.add_argument("--out", default=str(REPO_ROOT /
                                             "BENCH_runtime.json"),
                        help="output path (default %(default)s)")
    parser.add_argument("--serial-only", action="store_true",
                        help="time only the serial leg and emit a compact "
                             "record (for throughput-vs-scale tables)")
    parser.add_argument("--cold-ratio-limit", type=float, default=1.5,
                        help="fail if cold-cache wall time exceeds this "
                             "multiple of serial (default %(default)s; "
                             "0 disables)")
    parser.add_argument("--min-serial-rps", type=float, default=None,
                        help="fail if serial records/sec falls below this "
                             "floor (default: no floor)")
    parser.add_argument("--expect-digest", default=None,
                        help="fail unless the serial results digest equals "
                             "this value (default: only cross-mode "
                             "equality is asserted)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per local timing, recording the "
                             "best (default %(default)s) — sheds scheduler "
                             "noise on shared single-cpu hosts")
    args = parser.parse_args(argv)

    print("simulating paper scenario (scale=%g seed=%d)..."
          % (args.scale, args.seed), file=sys.stderr)
    world = build_world(paper_scenario(scale=args.scale, seed=args.seed))

    cpu_count = os.cpu_count() or 1
    # Everything that runs worker processes locally uses the *effective*
    # job count: asking for more workers than cpus just time-slices one
    # core, and a primed-cache run must not pay that tax either.
    effective_jobs = max(1, min(args.jobs, cpu_count))
    # Throughput normalizes wall time by input size (probes plus
    # connection-log entries), making runs at different --scale
    # comparable where raw seconds are not.
    records = len(world.archive) + world.connlog.entry_count()

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        write_world(world, Path(tmp) / "bundle")
        bundle = load_bundle(Path(tmp) / "bundle")

        print("timing serial (jobs=1, best of %d)..." % args.repeat,
              file=sys.stderr)
        serial_s, serial_digest, _ = _best_timed_run(
            bundle, lambda i: RuntimeConfig(), args.repeat)

        if args.expect_digest and serial_digest != args.expect_digest:
            raise AssertionError(
                "results digest drifted: expected %s, got %s"
                % (args.expect_digest, serial_digest))
        serial_rps = records / serial_s
        if args.min_serial_rps is not None and serial_rps < args.min_serial_rps:
            raise AssertionError(
                "serial throughput regressed: %.1f records/sec < floor %.1f"
                % (serial_rps, args.min_serial_rps))

        if args.serial_only:
            payload = {
                "scenario": {"scale": args.scale, "seed": args.seed,
                             "probes": len(world.archive),
                             "connlog_entries": world.connlog.entry_count(),
                             "fingerprint": bundle.fingerprint},
                "machine": {"python": platform.python_version(),
                            "platform": platform.platform(),
                            "cpu_count": cpu_count},
                "code_version": code_version(),
                "results_digest": serial_digest,
                "timing": {"repeat": args.repeat, "statistic": "min"},
                "seconds": {"serial": round(serial_s, 3)},
                "records_per_sec": {"records": records,
                                    "serial": round(serial_rps, 1)},
            }
            Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
            print("wrote %s (serial %.3fs, %.1f records/sec)"
                  % (args.out, serial_s, serial_rps))
            return 0

        if effective_jobs == 1:
            # One usable worker: a "parallel" wall time measures
            # fork/IPC and time-slicing, not parallelism — skip rather
            # than record a number someone could mistake for a speedup.
            print("skipping parallel: single cpu (oversubscribed)",
                  file=sys.stderr)
            parallel_s, parallel_digest = None, serial_digest
        else:
            print("timing parallel (jobs=%d, best of %d)..."
                  % (effective_jobs, args.repeat), file=sys.stderr)
            parallel_s, parallel_digest, _ = _best_timed_run(
                bundle, lambda i: RuntimeConfig(jobs=effective_jobs),
                args.repeat)

        dist_workers = 2
        print("timing distributed (loopback, %d socket workers)..."
              % dist_workers, file=sys.stderr)
        dist_s, dist_digest, dist_run_result = _timed_dist_run(
            bundle, workers=dist_workers)

        print("timing cold cache (jobs=%d, best of %d)..."
              % (effective_jobs, args.repeat), file=sys.stderr)
        # A fresh directory per repetition keeps every cold run truly
        # cold; warm runs then read whichever cache primed last.
        cache_dir = Path(tmp) / ("cache-%d" % (max(1, args.repeat) - 1))
        cold_s, cold_digest, _ = _best_timed_run(
            bundle,
            lambda i: RuntimeConfig(jobs=effective_jobs,
                                    cache_dir=Path(tmp) / ("cache-%d" % i)),
            args.repeat)

        print("timing warm cache (jobs=1, best of %d)..." % args.repeat,
              file=sys.stderr)
        warm_s, warm_digest, warm_runner = _best_timed_run(
            bundle, lambda i: RuntimeConfig(jobs=1, cache_dir=cache_dir),
            args.repeat)

        digests = {serial_digest, parallel_digest, cold_digest,
                   warm_digest, dist_digest}
        if len(digests) != 1:
            raise AssertionError(
                "execution modes disagree on results: %r" % (digests,))
        # Non-cacheable stages (pure reshaping cheaper than a cache
        # round-trip) recompute by design; anything else recomputing on
        # a primed cache is a caching bug.
        uncacheable = {spec.name for spec in STAGES if not spec.cacheable}
        recomputed = set(warm_runner.report.computed_stages) - uncacheable
        if recomputed:
            raise AssertionError(
                "warm run recomputed cacheable stages: %r"
                % (sorted(recomputed),))
        if args.cold_ratio_limit and cold_s > args.cold_ratio_limit * serial_s:
            raise AssertionError(
                "cold-cache pathology: priming the cache took %.3fs, "
                "%.2fx serial (%.3fs); limit is %.2fx"
                % (cold_s, cold_s / serial_s, serial_s,
                   args.cold_ratio_limit))

        if parallel_s is None:
            parallel_entry = {"seconds": None,
                              "skipped": "oversubscribed (cpu_count=%d)"
                                         % cpu_count}
        else:
            parallel_entry = {"seconds": round(parallel_s, 3),
                              "jobs": effective_jobs}
        # Two worker processes plus the coordinator on fewer cpus
        # time-slice rather than scale out; the tag travels with the raw
        # number so downstream readers cannot mistake protocol-overhead
        # wall time for a distributed speedup.
        dist_oversubscribed = cpu_count < dist_workers + 1
        payload = {
            "scenario": {"scale": args.scale, "seed": args.seed,
                         "probes": len(world.archive),
                         "connlog_entries": world.connlog.entry_count(),
                         "fingerprint": bundle.fingerprint},
            "machine": {"python": platform.python_version(),
                        "platform": platform.platform(),
                        "cpu_count": cpu_count},
            "code_version": code_version(),
            "results_digest": serial_digest,
            "timing": {"repeat": args.repeat, "statistic": "min"},
            "jobs": {"requested": args.jobs, "effective": effective_jobs},
            "seconds": {"serial": round(serial_s, 3),
                        "parallel": parallel_entry,
                        "cold_cache": round(cold_s, 3),
                        "warm_cache": round(warm_s, 3)},
            "distributed": {
                "mode": "loopback",
                "workers": dist_workers,
                "oversubscribed": dist_oversubscribed,
                "seconds": round(dist_s, 3),
                "records_per_sec": round(records / dist_s, 1),
                "leases_served": sum(
                    summary.leases_served
                    for summary in dist_run_result.summaries.values()),
                "digest_matches_serial": dist_digest == serial_digest},
            "records_per_sec": {
                "records": records,
                "serial": round(serial_rps, 1),
                "cold_cache": round(records / cold_s, 1),
                "warm_cache": round(records / warm_s, 1)},
            "cold_vs_serial_ratio": round(cold_s / serial_s, 2),
            "speedup_vs_serial": {
                "parallel": (None if parallel_s is None
                             else round(serial_s / parallel_s, 2)),
                "warm_cache": round(serial_s / warm_s, 2)},
            "metrics": obs.metrics_snapshot(),
        }
        if parallel_s is None:
            payload["notes"] = (
                "seconds.parallel skipped: one effective worker "
                "(cpu_count=%d), so worker processes would time-slice a "
                "single core and the wall time would measure fork/IPC "
                "overhead, not parallelism" % cpu_count)
        if dist_oversubscribed:
            payload["distributed"]["notes"] = (
                "%d socket workers plus the coordinator share %d "
                "cpu(s): this wall time measures protocol overhead "
                "under time-slicing, not distributed scale-out"
                % (dist_workers, cpu_count))

    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload["seconds"]), file=sys.stderr)
    parallel_x = payload["speedup_vs_serial"]["parallel"]
    print("wrote %s (parallel %s, warm cache %.2fx vs serial, "
          "distributed %.3fs loopback x2)"
          % (args.out,
             "n/a (oversubscribed)" if parallel_x is None
             else "%.2fx" % parallel_x,
             payload["speedup_vs_serial"]["warm_cache"],
             payload["distributed"]["seconds"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
