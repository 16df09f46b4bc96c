"""The benchmark's workloads: set-up, one closed-loop operation, checks.

Set-up (simulate the paper scenario, write the bundle, corrupt it for
the REPAIR workload) runs in a spawned process, so the analysis process
never holds a simulated world and its peak RSS measures the analysis
alone.  Every operation runs in the benchmark's own process,
one at a time, and returns the problems its output checks found; an
operation with any problem counts as failed.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import multiprocessing
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import obs
from repro.dist.coordinator import DistConfig, dist_runner_for_bundle
from repro.dist.loopback import run_loopback
from repro.experiments import extensions, figures, tables  # noqa: F401
from repro.experiments.registry import experiment_ids, get_experiment
from repro.runtime import (
    STAGES,
    RuntimeConfig,
    results_digest,
    runner_for_bundle,
)
from repro.runtime.workers import WorkerContext
from repro.sim.io import load_bundle
from repro.util.colpack import HAVE_NUMPY
from repro.util.ingest import IngestReport, ReadPolicy

from hostspeed import probe_seconds, scale
from tracing import Tracer

#: ``FaultPlan.uniform`` rate of the REPAIR workload (the CLI's and the
#: fault tests' rate) and its default fault seed.
FAULT_RATE = 0.05
DEFAULT_FAULT_SEED = 11

#: Pool jobs of the cold exec-modes leg, and its loopback workers.
JOBS = 2

#: Datasets whose ingest must reconcile with the fault report.
DATASETS = ("archive", "connlog", "uptime", "kroot", "pfx2as")

UNCACHEABLE = frozenset(spec.name for spec in STAGES if not spec.cacheable)


# -- set-up (runs in a spawned child) -----------------------------------------

def build_bundle(scale: float, seed: int, directory: str,
                 fault_seed: int | None, traced: bool,
                 trace: str, parent: str) -> dict:
    """Simulate, write and optionally corrupt one bundle; time it."""
    from repro.faults.plan import FaultPlan
    from repro.sim.io import write_world
    from repro.sim.scenario import paper_scenario
    from repro.sim.world import build_world

    tracer = Tracer(traced)
    built: dict = {"expected": {}, "probe": probe_seconds()}
    with tracer.active(), tracer.remote_parent(trace, parent):
        started = time.perf_counter()
        with tracer.span("sim.build_world"):
            world = build_world(paper_scenario(scale=scale, seed=seed))
        with tracer.span("sim.write_world") as handle:
            write_world(world, directory)
            if traced:
                handle.set(**{"sim.bundle_bytes": sum(
                    path.stat().st_size
                    for path in Path(directory).rglob("*")
                    if path.is_file())})
        if fault_seed is not None:
            with tracer.span("faults.apply") as handle:
                report = FaultPlan.uniform(fault_seed, FAULT_RATE).apply(
                    directory)
                handle.set(**{"faults.injected": len(report.faults)})
            built["expected"] = {dataset: report.expected_records(dataset)
                                 for dataset in DATASETS}
        built["seconds"] = time.perf_counter() - started
    built["probe"] = (built["probe"] + probe_seconds()) / 2
    built["records"] = len(world.archive) + world.connlog.entry_count()
    built["spans"] = obs.drain_spans() if traced else []
    built["metrics"] = obs.metrics().drain() if traced else {}
    return built


# -- per-run state ------------------------------------------------------------

#: Worlds per run.  Each is one timed set-up; operations cycle over them
#: twice, so a run's medians cover several worlds rather than one.
WORLDS = 3


def world_seed(seed: int, index: int) -> int:
    """Scenario seed of a run's ``index``-th world."""
    return WORLDS * seed + index


@dataclass
class World:
    """One set-up's bundle and what its operations must reproduce."""

    seed: int
    directory: Path
    #: What every operation on this world must reproduce, by kind
    #: (``results``: the results digest; ``experiments``: the hash of
    #: every driver's rendered text): the pins, or else the first value
    #: the run computed.
    references: dict[str, str]
    pinned: bool
    records: int = 0
    #: Fault-adjusted record lines per dataset (faulted workloads only).
    expected: dict[str, int] = field(default_factory=dict)
    #: The loaded bundle, for workloads that load in set-up.
    bundle: object = None

    def check(self, kind: str, value: str, what: str) -> list[str]:
        reference = self.references.setdefault(kind, value)
        if value != reference:
            return ["world %d %s %s %s != expected %s"
                    % (self.seed, what, kind, value[:12], reference[:12])]
        return []


@dataclass
class RunState:
    """What the operations of one benchmark run share."""

    workload: Workload
    work: Path
    fault_seed: int | None
    worlds: list[World] = field(default_factory=list)
    #: Raw and host-speed-scaled set-up times, one per world.
    setup_seconds: list[float] = field(default_factory=list)
    setup_scaled: list[float] = field(default_factory=list)
    drivers: list = field(default_factory=list)

    def __post_init__(self) -> None:
        for experiment_id in experiment_ids():
            driver = get_experiment(experiment_id)
            self.drivers.append((experiment_id, driver, bool(
                inspect.signature(driver).parameters)))


def set_ups(state: RunState, tracer: Tracer, seed: int,
            pins: dict[str, dict[str, str]]) -> None:
    """Build the run's worlds, one timed set-up each, in one spawned
    process; ``pins`` maps world seeds to their pinned references."""
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        for index in range(WORLDS):
            scenario_seed = world_seed(seed, index)
            pinned = pins.get(str(scenario_seed))
            world = World(scenario_seed, state.work / ("bundle-%d" % index),
                          dict(pinned or {}), pinned is not None)
            with tracer.span("setup", trace="setup-%d" % index):
                trace, parent = tracer.current()
                built = pool.submit(
                    build_bundle, state.workload.scale, scenario_seed,
                    str(world.directory), state.fault_seed, tracer.enabled,
                    trace, parent).result()
                obs.absorb_spans(built["spans"])
                obs.metrics().absorb(built["metrics"])
                seconds = built["seconds"]
                world.records = built["records"]
                world.expected = built["expected"]
                if state.workload.preload:
                    started = time.perf_counter()
                    world.bundle = load(state.workload, world, tracer)
                    seconds += time.perf_counter() - started
            state.worlds.append(world)
            state.setup_seconds.append(seconds)
            state.setup_scaled.append(scale(seconds, built["probe"]))
    if state.workload.preload:
        # The preloaded bundles are set-up state.  Freezing them keeps
        # gen-2 collections during operations from walking every resident
        # world, which would tie the execution-mode timings to the bundle
        # representation and to the number of worlds.
        gc.freeze()


# -- layer calls --------------------------------------------------------------

def load(workload: Workload, world: World, tracer: Tracer,
         problems: list[str] | None = None):
    """``load_bundle`` under the workload's policy, reconciled if faulted."""
    report = IngestReport()
    if tracer.enabled:
        with tracer.span("trace.gc_objects"):
            baseline = live_objects()
    with tracer.span("io.load_bundle") as handle:
        bundle = load_bundle(world.directory, policy=workload.policy,
                             report=report)
        rows = report.datasets()
        handle.set(**{
            "io.records_read": sum(row.total for row in rows),
            "io.records_repaired": sum(row.repaired for row in rows),
            "io.records_quarantined": sum(row.quarantined for row in rows),
        })
    if tracer.enabled:
        obs.record_ingest(report)
        with tracer.span("trace.gc_objects") as handle:
            handle.set(**{"io.gc_objects": live_objects() - baseline})
    if problems is not None:
        for dataset, expected in world.expected.items():
            seen = report.dataset(dataset).total
            if seen != expected:
                problems.append("%s ingest: parsed+repaired+quarantined=%d"
                                " != expected %d" % (dataset, seen, expected))
    return bundle


def live_objects() -> int:
    """GC-tracked objects that survive a full collection."""
    gc.collect()
    return len(gc.get_objects())


def _counter_deltas(before: dict, after: dict, names: dict[str, str]
                    ) -> dict[str, float]:
    old, new = before["counters"], after["counters"]
    return {metric: new.get(counter, 0) - old.get(counter, 0)
            for metric, counter in names.items()}


_CACHE_COUNTERS = {
    "cache.hits": "cache.hits",
    "cache.misses": "cache.misses",
    "cache.stores": "cache.stores",
    "cache.bytes_stored": "cache.bytes_stored",
}

_DIST_COUNTERS = {
    "dist.bytes_received": "dist.bytes.received",
    "dist.bytes_sent": "dist.bytes.sent",
    "dist.leases_granted": "dist.leases.granted",
}


def execute(bundle, config: RuntimeConfig, tracer: Tracer):
    """``runner_for_bundle(...).run()`` with its report lifted to attrs."""
    before = obs.metrics_snapshot()
    with tracer.span("executor.run") as handle:
        runner = runner_for_bundle(bundle, config)
        results = runner.run()
        report = runner.report
        attrs = {"executor.stage.%s_s" % timing.name: timing.seconds
                 for timing in report.timings}
        attrs["supervisor.shards"] = sum(row.shards
                                         for row in report.resilience)
        attrs["supervisor.retries"] = report.total_retries
        attrs["supervisor.quarantined_probes"] = len(
            report.quarantined_probes)
        attrs.update(_counter_deltas(before, obs.metrics_snapshot(),
                                     _CACHE_COUNTERS))
        handle.set(**attrs)
    return runner, results


def digest_of(results, tracer: Tracer) -> str:
    with tracer.span("digest"):
        return results_digest(results)


def render_experiments(state: RunState, results, tracer: Tracer) -> list:
    """Every registered experiment driver's output, in registry order."""
    outputs = []
    with tracer.span("experiments"):
        for experiment_id, driver, takes_results in state.drivers:
            with tracer.span("experiments.%s" % experiment_id):
                outputs.append(driver(results) if takes_results
                               else driver())
    return outputs


def experiments_hash(outputs) -> str:
    """SHA-256 over every output's id and rendered text."""
    digest = hashlib.sha256()
    for output in outputs:
        digest.update(("%s\n%s\n" % (output.experiment_id, output.text))
                      .encode("utf-8"))
    return digest.hexdigest()


# -- operations ---------------------------------------------------------------

def tables_operation(state: RunState, world: World, tracer: Tracer,
                     index: int) -> list[str]:
    """Bundle dir -> load -> run -> verified digest -> every experiment,
    its rendered tables and figures verified too."""
    problems: list[str] = []
    bundle = load(state.workload, world, tracer, problems)
    _, results = execute(bundle, RuntimeConfig(), tracer)
    problems += world.check("results", digest_of(results, tracer),
                            "analysis")
    outputs = render_experiments(state, results, tracer)
    problems += ["%s rendered nothing" % output.experiment_id
                 for output in outputs if not output.text.strip()]
    problems += world.check("experiments", experiments_hash(outputs),
                            "rendered")
    return problems


def worker_context(bundle, runner) -> WorkerContext:
    """Loopback workers' dataset context, as ``repro-dist --loopback``
    builds it."""
    return WorkerContext(connlog=bundle.connlog, archive=bundle.archive,
                         ip2as=bundle.ip2as, kroot=bundle.kroot,
                         uptime=bundle.uptime,
                         min_connected=runner._min_connected,
                         columnar=HAVE_NUMPY)


def exec_modes_operation(state: RunState, world: World, tracer: Tracer,
                         index: int) -> list[str]:
    """Cold sharded run, warm cached rerun, loopback dist run."""
    problems: list[str] = []
    bundle = world.bundle
    cache_dir = state.work / ("cache-%d" % index)
    with tracer.span("leg.cold") as handle:
        runner, results = execute(
            bundle, RuntimeConfig(jobs=JOBS, cache_dir=cache_dir), tracer)
        problems += world.check("results", digest_of(results, tracer),
                                "cold")
        if tracer.enabled:
            handle.set(**{"cache.bytes_on_disk": runner.cache.total_bytes()})
    with tracer.span("leg.warm"):
        runner, results = execute(
            bundle, RuntimeConfig(jobs=1, cache_dir=cache_dir), tracer)
        problems += world.check("results", digest_of(results, tracer),
                                "warm")
    recomputed = sorted(set(runner.report.computed_stages) - UNCACHEABLE)
    if recomputed:
        problems.append("warm run recomputed %s" % ", ".join(recomputed))
    with tracer.span("leg.dist"):
        before = obs.metrics_snapshot()
        with tracer.span("dist.run_loopback") as handle:
            runner = dist_runner_for_bundle(bundle, DistConfig(workers=JOBS))
            run = run_loopback(runner, worker_context(bundle, runner),
                               worker_count=JOBS)
            attrs = _counter_deltas(before, obs.metrics_snapshot(),
                                    _DIST_COUNTERS)
            attrs["dist.shards"] = sum(row.shards
                                       for row in run.report.resilience)
            handle.set(**attrs)
    problems += world.check("results", run.digest, "dist")
    if run.worker_errors:
        problems.append("dist worker errors: %r" % (run.worker_errors,))
    shutil.rmtree(cache_dir, ignore_errors=True)
    return problems


# -- the workloads ------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """One workload; ``BENCHMARK.json`` says why each was chosen."""

    name: str
    scale: float
    #: REPAIR workloads read bundles corrupted in set-up by
    #: ``FaultPlan.uniform``.
    policy: ReadPolicy
    #: ``operation(state, world, tracer, index)`` runs one operation and
    #: returns the problems its checks found.
    operation: Callable[..., list[str]]
    #: Load each world's bundle in set-up rather than in the operation.
    #: Those bundles stay resident, so the operation's ``peak_rss_mb`` is
    #: counted from the RSS it starts at.
    preload: bool = False

    @property
    def faulted(self) -> bool:
        return self.policy is ReadPolicy.REPAIR


WORKLOADS = {workload.name: workload for workload in (
    Workload("bundle-to-tables", 0.1, ReadPolicy.STRICT, tables_operation),
    Workload("faulted-repair", 0.1, ReadPolicy.REPAIR, tables_operation),
    Workload("exec-modes", 0.05, ReadPolicy.STRICT, exec_modes_operation,
             preload=True),
)}
