"""End-to-end and per-layer benchmark of the bundle -> tables system.

Usage, from the repository root::

    python3 perfbench/run.py --workload bundle-to-tables --seed 1 \\
        --seconds 10 --trace 0

Each run sets up three worlds with scenario seeds ``3*seed``,
``3*seed+1`` and ``3*seed+2`` (simulate the paper scenario, write the
bundle, plus corrupting or loading it where the workload says so) in a
spawned process, and reports the median set-up time.  It then runs
operations as a closed loop, one at a time, cycling twice over the
worlds per cycle, until ``--seconds`` have passed and the current cycle
is complete, and checks every operation's output.  ``op_s``,
``records_per_s`` and ``peak_rss_mb`` are the mean over the worlds of
each world's median.  ``peak_rss_mb`` is the process's peak RSS during
an operation; for ``exec-modes``, whose bundles stay loaded from
set-up, it is counted from the RSS the operation starts at.

Time metrics are scaled by a host-speed probe timed around each
operation and set-up (see ``hostspeed.py``); raw medians go into the
provenance line.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced operations, writes the
spans through ``repro.obs.write_trace`` to
``.perfbench/traces/<workload>-seed<seed>.json`` (``repro-obs report``
renders it), and reports per-layer metrics computed from that file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it stamps the run's provenance.  Everything the run writes stays under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PINS = Path(__file__).resolve().parent / "digests.json"


END_TO_END = {
    "op_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer duration metrics: metric -> benchmark span name.
SPAN_SECONDS = {
    "sim.build_world_s": "sim.build_world",
    "sim.write_world_s": "sim.write_world",
    "faults.apply_s": "faults.apply",
    "io.load_bundle_s": "io.load_bundle",
    "executor.run_s": "executor.run",
    "digest_s": "digest",
    "experiments_s": "experiments",
    "dist.run_loopback_s": "dist.run_loopback",
    "leg.cold_cache_s": "leg.cold",
    "leg.warm_cache_s": "leg.warm",
    "leg.dist_s": "leg.dist",
}

#: Gen-2 GC pause metrics: metric -> span name (its sub-spans included).
SPAN_GC2 = {
    "io.load_bundle.gc2_s": "io.load_bundle",
    "executor.run.gc2_s": "executor.run",
    "digest.gc2_s": "digest",
    "experiments.gc2_s": "experiments",
}

STAGE_NAMES = ("filter", "spans", "changes", "reboots", "gaps", "stats",
               "v3")

#: Per-layer metrics read from span attrs of the same name: unit.
SPAN_ATTRS = {
    "sim.bundle_bytes": "bytes",
    "faults.injected": "count",
    "io.records_read": "count",
    "io.records_repaired": "count",
    "io.records_quarantined": "count",
    "io.gc_objects": "count",
    **{"executor.stage.%s_s" % name: "s" for name in STAGE_NAMES},
    "supervisor.shards": "count",
    "supervisor.retries": "count",
    "supervisor.quarantined_probes": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.stores": "count",
    "cache.bytes_stored": "bytes",
    "cache.bytes_on_disk": "bytes",
    "dist.bytes_received": "bytes",
    "dist.bytes_sent": "bytes",
    "dist.leases_granted": "count",
    "gc.gen2_collections": "count",
}

#: Everything ``--trace 1`` reports, with units.
PER_LAYER = {
    **{name: "s" for name in SPAN_SECONDS},
    **{name: "s" for name in SPAN_GC2},
    **SPAN_ATTRS,
    "cache.hit_ratio": "ratio",
    "dist.lease_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv: list[str] | None, workloads: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=2015,
                        help="scenario seed (default %(default)s)")
    parser.add_argument("--fault-seed", type=int, default=None,
                        help="FaultPlan seed for faulted-repair (default "
                             "the pinned one)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="closed-loop measuring time (default "
                             "%(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- memory -------------------------------------------------------------------

def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (VmHWM) at the current RSS;
    raises ``OSError`` where the kernel does not allow it."""
    with open("/proc/self/clear_refs", "w") as stream:
        stream.write("5")


def rss_mb(field: str) -> float:
    """``VmRSS`` (current) or ``VmHWM`` (peak) of this process, in MB."""
    with open("/proc/self/status") as stream:
        for line in stream:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no %s line" % field)


# -- the run ------------------------------------------------------------------

class Run:
    """One benchmark invocation: set-ups, closed loop, result."""

    def __init__(self, args: argparse.Namespace, workloads) -> None:
        from tracing import Tracer

        self.args = args
        self.workload = workloads.WORKLOADS[args.workload]
        self.ops = workloads
        self.tracer = Tracer(bool(args.trace))
        self.untraced = Tracer(False)
        #: traced? -> raw and host-speed-scaled operation wall times.
        self.walls: dict[bool, list[float]] = {False: [], True: []}
        self.scaled: dict[bool, list[float]] = {False: [], True: []}
        #: Trace id -> wall time of each traced operation.
        self.traced_walls: dict[str, float] = {}
        self.probes: list[float] = []
        #: World index -> scaled seconds, records per scaled second and
        #: peak RSS of its untraced operations.
        self.per_world: dict[int, list[tuple[float, float, float]]] = {}
        self.peaks: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def state(self, work: Path):
        fault_seed = None
        if self.workload.faulted:
            fault_seed = (self.ops.DEFAULT_FAULT_SEED
                          if self.args.fault_seed is None
                          else self.args.fault_seed)
        return self.ops.RunState(self.workload, work, fault_seed)

    def pins(self, state) -> dict[str, dict[str, str]]:
        """Pinned references by world seed (pins assume the default fault
        seed)."""
        if state.fault_seed not in (None, self.ops.DEFAULT_FAULT_SEED):
            return {}
        return json.loads(PINS.read_text()).get(self.workload.name, {})

    def operation(self, state, world, tracer, index: int) -> float:
        """Run and check one operation; returns its wall time."""
        gc.collect()
        reset_peak_rss()
        # Bundles loaded in set-up are resident input, not analysis: such
        # a workload's peak counts from the RSS the operation starts at.
        base_mb = rss_mb("VmRSS") if self.workload.preload else 0.0
        self.attempted += 1
        started = time.perf_counter()
        try:
            with tracer.active(), tracer.span("operation",
                                              trace="op-%d" % index) as root:
                collections = tracer.gen2_collections
                problems = self.workload.operation(state, world, tracer,
                                                   index)
                root.set(**{"gc.gen2_collections":
                            tracer.gen2_collections - collections})
        except Exception:  # an operation that raises is a failed one
            problems = [traceback.format_exc()]
        wall = time.perf_counter() - started
        if tracer.enabled:
            self.traced_walls["op-%d" % index] = wall
        self.peaks.append(rss_mb("VmHWM") - base_mb)
        if problems:
            self.failed += 1
            self.problems.extend("op %d: %s" % (index, problem)
                                 for problem in problems)
        return wall

    def closed_loop(self, state) -> None:
        from hostspeed import probe_seconds, scale

        # Operations cycle twice over the worlds and stop only at the end
        # of a cycle, so every world weighs the same in the medians.
        # Traced runs alternate untraced and traced operations, measuring
        # the tracing overhead against neighbours; a cycle then covers
        # every world once each way.
        worlds = state.worlds
        cycle = 2 * len(worlds)
        started = time.perf_counter()
        index = 0
        before = probe_seconds()
        self.probes.append(before)
        while index % cycle or (
                index == 0
                or time.perf_counter() - started < self.args.seconds):
            traced = self.tracer.enabled and index % 2 == 1
            slot = index % len(worlds)
            world = worlds[slot]
            wall = self.operation(
                state, world, self.tracer if traced else self.untraced,
                index)
            after = probe_seconds()
            self.probes.append(after)
            self.walls[traced].append(wall)
            self.scaled[traced].append(scale(wall, (before + after) / 2))
            if not traced:
                seconds = self.scaled[False][-1]
                self.per_world.setdefault(slot, []).append(
                    (seconds, world.records / seconds, self.peaks[-1]))
            print("op %d%s: %.3fs (%.3fs scaled), peak %.1f MB"
                  % (index, " traced" if traced else "", wall,
                     self.scaled[traced][-1], self.peaks[-1]),
                  file=sys.stderr)
            before = after
            index += 1

    def execute(self, work: Path) -> dict:
        from repro.runtime import code_version
        from repro.sim.io import bundle_fingerprint

        state = self.state(work)
        with self.tracer.active():
            self.ops.set_ups(state, self.tracer, self.args.seed,
                             self.pins(state))
        self.closed_loop(state)
        self.provenance = {
            "workload": self.workload.name,
            "scale": self.workload.scale,
            "seed": self.args.seed,
            "fault_seed": state.fault_seed,
            "code_version": code_version(),
            "worlds": [{
                "seed": world.seed,
                "records": world.records,
                "bundle_fingerprint": bundle_fingerprint(world.directory),
                "results_digest": world.references.get("results"),
                "digest_pinned": world.pinned,
            } for world in state.worlds],
            "cpu_count": nproc(),
            "jobs": (self.ops.JOBS if self.workload.operation
                     is self.ops.exec_modes_operation else 1),
            "python": platform.python_version(),
            "operations": self.attempted,
            "host_probe_s": statistics.median(self.probes),
            "raw_op_s": statistics.median(self.walls[False]),
            "raw_setup_s": statistics.median(state.setup_seconds),
        }
        if self.tracer.enabled:
            return self.per_layer()
        # Per world, the median over its operations; then the mean over
        # the worlds, which weigh the same: the typical operation on the
        # run's mix of inputs rather than on whichever world is middling.
        op_s, records_per_s, peak = (statistics.fmean(
            statistics.median(op[column] for op in ops)
            for ops in self.per_world.values()) for column in (0, 1, 2))
        return {
            "op_s": op_s,
            "records_per_s": records_per_s,
            "peak_rss_mb": peak,
            "setup_s": statistics.median(state.setup_scaled),
        }

    def per_layer(self) -> dict:
        from repro import obs
        from tracing import ACCOUNTING_TOLERANCE_S, trace_accounts

        path = WORK / "traces" / ("%s-seed%d.json"
                                  % (self.workload.name, self.args.seed))
        path.parent.mkdir(parents=True, exist_ok=True)
        obs.write_trace(path, meta=self.provenance)
        payload = obs.load_trace(path)  # validates the schema
        obs.render_report(payload)
        accounts = trace_accounts(payload)
        ops = [account for name, account in accounts.items()
               if name.startswith("op-")]
        missing = set(self.traced_walls) - set(accounts)
        if missing:
            self.problems.append("traced operations missing from the "
                                 "trace: %s" % ", ".join(sorted(missing)))
        # Each traced operation's wall time, as timed around it, must be
        # covered by its layer self times plus its unattributed time.
        for account in ops:
            gap = account.accounting_gap_s(self.traced_walls[account.trace])
            if abs(gap) > ACCOUNTING_TOLERANCE_S:
                self.problems.append(
                    "%s: layer self times + unattributed miss the wall "
                    "time by %.6fs" % (account.trace, gap))
        report_self_times(accounts)
        metrics = layer_metrics(accounts.values())
        metrics["trace.unattributed_s"] = statistics.median(
            account.unattributed_s for account in ops)
        metrics["trace.overhead_s"] = (statistics.median(self.walls[True])
                                       - statistics.median(self.walls[False]))
        return metrics


def _median_over(accounts, value) -> float:
    """Median of ``value(account)`` over accounts where it is not None."""
    values = [v for v in map(value, accounts) if v is not None]
    return statistics.median(values) if values else 0.0


def layer_metrics(accounts) -> dict[str, float]:
    """Per-layer metrics: per-trace sums, median over the traces that
    contain the layer (operations, or set-ups for set-up layers)."""
    accounts = list(accounts)
    metrics = {}
    for metric, name in SPAN_SECONDS.items():
        metrics[metric] = _median_over(
            accounts, lambda account: account.total_s.get(name))
    for metric, name in SPAN_GC2.items():
        metrics[metric] = _median_over(accounts, lambda account: (
            sum(seconds for span, seconds in account.gc2_s.items()
                if span == name or span.startswith(name + "."))
            if name in account.total_s else None))
    for metric in SPAN_ATTRS:
        metrics[metric] = _median_over(
            accounts, lambda account: account.attrs.get(metric))

    def ratio(numerator: str, denominator) -> float:
        return _median_over(accounts, lambda account: (
            account.attrs[numerator] / denominator(account.attrs)
            if denominator(account.attrs) else None))

    metrics["cache.hit_ratio"] = ratio("cache.hits", lambda attrs: attrs.get(
        "cache.hits", 0) + attrs.get("cache.misses", 0))
    metrics["dist.lease_ratio"] = ratio(
        "dist.leases_granted", lambda attrs: attrs.get("dist.shards", 0))
    return metrics


def report_self_times(accounts) -> None:
    """Print each layer's median self time per operation to stderr."""
    ops = [account for account in accounts.values()
           if account.trace.startswith("op-")]
    names = sorted({name for account in ops for name in account.self_s})
    print("layer self time per operation (median of %d traced):"
          % len(ops), file=sys.stderr)
    for name in names:
        seconds = statistics.median(account.self_s.get(name, 0.0)
                                    for account in ops)
        print("  %-28s %9.4fs" % (name, seconds), file=sys.stderr)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: %s has no repro package to benchmark" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    if workloads.JOBS > nproc():
        print("error: exec-modes needs %d cpus for its jobs and loopback "
              "workers; this host has %d" % (workloads.JOBS, nproc()),
              file=sys.stderr)
        return 2
    try:
        reset_peak_rss()
    except OSError as error:
        print("error: cannot reset the peak-RSS mark, so peak_rss_mb "
              "would not measure single operations: %s" % error,
              file=sys.stderr)
        return 2
    work = WORK / ("%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    (work / "tmp").mkdir(parents=True)
    # Keep every temporary file the system makes inside the checkout.
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    # A terminated run still cleans up and stops its helper processes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args, workloads)
    try:
        metrics = run.execute(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        # Spawned set-up processes leave multiprocessing's resource
        # tracker running; stop it and wait, so no process outlives us.
        resource_tracker._resource_tracker._stop()
    units = PER_LAYER if args.trace else END_TO_END
    for problem in run.problems:
        print("FAILED CHECK: %s" % problem, file=sys.stderr)
    print(json.dumps({"provenance": run.provenance}, sort_keys=True))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
