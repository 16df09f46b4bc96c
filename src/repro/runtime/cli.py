"""Command-line runtime driver: run the stage graph, report how it ran.

Usage::

    repro-run --data bundle/ --jobs 4 --cache-dir .repro-cache
    repro-run --data bundle/ --cache-dir .repro-cache   # warm: all cached
    repro-run --scale 0.1 --seed 7 --jobs 2             # inline simulation
    repro-run --list-stages

Prints a per-stage execution table (inline / sharded / cached), the
dataset fingerprint and the canonical results digest — two runs printing
the same digest agree on every table and figure.  ``repro-experiment``
accepts the same ``--jobs/--cache-dir/--no-cache`` flags for rendering
actual tables and figures through this executor.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import obs
from repro.errors import ReproError
from repro.runtime.cache import ArtifactCache
from repro.runtime.digest import results_digest
from repro.runtime.executor import (
    RuntimeConfig,
    runner_for_bundle,
    runner_for_world,
)
from repro.runtime.stages import render_graph
from repro.util import fingerprint as fp
from repro.util import timeutil


def add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """The executor flags, shared with ``repro-experiment``."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for per-probe stages "
                             "(default %(default)s; 0 = one per cpu; "
                             "output is identical for every N)")
    parser.add_argument("--shards", type=int, default=None, metavar="M",
                        help="shard count override (default jobs*4)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="artifact cache directory; warm re-runs skip "
                             "unchanged stages")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir and recompute everything")
    parser.add_argument("--start-method", choices=["fork", "spawn"],
                        default=None,
                        help="worker pool start method (default: fork "
                             "where available, else spawn; results are "
                             "identical either way)")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace_event JSON of the run "
                             "(inspect with repro-obs report FILE)")
    parser.add_argument("--resume", action="store_true",
                        help="reload completed shard checkpoints from the "
                             "cache before dispatching (restart a killed "
                             "run from the last completed shard)")
    parser.add_argument("--max-retries", type=int,
                        default=timeutil.MAX_SHARD_RETRIES, metavar="K",
                        help="failed attempts per shard before its probes "
                             "are quarantined (default %(default)s)")
    parser.add_argument("--shard-deadline", type=float,
                        default=timeutil.SHARD_DEADLINE_S, metavar="SEC",
                        help="per-shard wall-clock deadline before the "
                             "supervisor declares it hung "
                             "(default %(default)s)")


def resolve_jobs(jobs: int) -> int:
    """Map ``--jobs 0`` to the machine's cpu count (auto-detect)."""
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def warn_if_oversubscribed(jobs: int) -> None:
    """Warn loudly when the job count exceeds the available cpus.

    Oversubscription is accepted (it is how the 1-cpu CI machine still
    exercises the sharded code path) but the wall times it produces
    measure time-slicing, not parallelism — worth a loud note before
    anyone reads a benchmark off them.
    """
    cpus = os.cpu_count() or 1
    if jobs > cpus:
        print("warning: --jobs %d exceeds %d available cpu(s); workers "
              "will time-slice and wall times will not reflect "
              "parallel speedup" % (jobs, cpus), file=sys.stderr)


def parse_inject_spec(spec: str):
    """Parse a ``--inject`` spec into a ``ProcessFaultPlan``.

    Comma-separated ``key=value`` pairs (bare ``persistent`` allowed)::

        --inject seed=7,worker_crash=0.25,envelope_corrupt=0.5
        --inject seed=1,envelope_corrupt=1,persistent
    """
    from repro.faults.process import ProcessFaultPlan
    values: dict[str, object] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            if part != "persistent":
                raise ValueError("bad --inject field %r (expected "
                                 "key=value or 'persistent')" % (part,))
            values["persistent"] = True
            continue
        key, _, raw = part.partition("=")
        key = key.strip()
        if key == "seed":
            values[key] = int(raw)
        elif key == "persistent":
            values[key] = raw.strip().lower() in ("1", "true", "yes")
        elif key in ("worker_crash", "worker_hang", "envelope_corrupt",
                     "worker_slow", "slow_delay_s"):
            values[key] = float(raw)
        else:
            raise ValueError("unknown --inject field %r" % (key,))
    return ProcessFaultPlan(**values)


def runtime_config(args: argparse.Namespace) -> RuntimeConfig:
    """Build a :class:`RuntimeConfig` from parsed runtime flags."""
    cache_dir = None if args.no_cache else args.cache_dir
    jobs = resolve_jobs(args.jobs)
    warn_if_oversubscribed(jobs)
    fault_plan = None
    inject = getattr(args, "inject", None)
    if inject:
        fault_plan = parse_inject_spec(inject)
    return RuntimeConfig(
        jobs=jobs, shards=args.shards, cache_dir=cache_dir,
        start_method=getattr(args, "start_method", None),
        max_retries=getattr(args, "max_retries",
                            timeutil.MAX_SHARD_RETRIES),
        shard_deadline_s=getattr(args, "shard_deadline",
                                 timeutil.SHARD_DEADLINE_S),
        resume=getattr(args, "resume", False),
        fault_plan=fault_plan)


def write_run_trace(path: str, runner, digest: str) -> None:
    """Export this process's spans/metrics plus run identity to ``path``.

    Shared by ``repro-run`` and ``repro-experiment`` so both CLIs stamp
    the same metadata (``repro-obs report`` keys off it).
    """
    obs.write_trace(path, meta={
        "jobs": runner.config.jobs,
        "start_method": runner.start_method,
        "fingerprint": runner.fingerprint,
        "results_digest": digest,
    })


def main(argv: list[str] | None = None) -> int:
    """Run every analysis stage over a bundle or an inline simulation."""
    parser = argparse.ArgumentParser(
        description="Run the sharded analysis stage graph and report "
                    "per-stage execution (inline/sharded/cached), the "
                    "dataset fingerprint and the results digest")
    parser.add_argument("--data", metavar="DIR", default=None,
                        help="dataset bundle written by repro-simulate "
                             "(default: simulate inline)")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="inline scenario scale (default %(default)s)")
    parser.add_argument("--seed", type=int, default=2015,
                        help="inline scenario seed (default %(default)s)")
    parser.add_argument("--read-policy", choices=["strict", "repair"],
                        default="strict",
                        help="bundle ingestion contract (default "
                             "%(default)s)")
    parser.add_argument("--list-stages", action="store_true",
                        help="print the stage graph and exit")
    parser.add_argument("--clear-cache", action="store_true",
                        help="empty the --cache-dir store and exit")
    parser.add_argument("--inject", metavar="SPEC", default=None,
                        help="process-fault plan for supervised runs, "
                             "e.g. seed=7,worker_crash=0.25 (kinds: "
                             "worker_crash, worker_hang, "
                             "envelope_corrupt, worker_slow; add "
                             "'persistent' to re-fire on retries)")
    add_runtime_arguments(parser)
    args = parser.parse_args(argv)

    if args.list_stages:
        print(render_graph())
        return 0
    if args.clear_cache:
        if not args.cache_dir:
            print("--clear-cache requires --cache-dir", file=sys.stderr)
            return 2
        removed = ArtifactCache(args.cache_dir).clear()
        print("removed %d cached artifacts" % removed)
        return 0

    config = runtime_config(args)
    try:
        if args.data is not None:
            from repro.sim.io import load_bundle
            from repro.util.ingest import IngestReport, ReadPolicy
            policy = ReadPolicy(args.read_policy)
            report = IngestReport()
            bundle = load_bundle(args.data, policy=policy, report=report)
            obs.record_ingest(report)
            if policy is ReadPolicy.REPAIR and not report.clean:
                print(report.render(), file=sys.stderr)
            runner = runner_for_bundle(bundle, config)
        else:
            from repro.sim.scenario import paper_scenario
            from repro.sim.world import build_world
            world = build_world(paper_scenario(scale=args.scale,
                                               seed=args.seed))
            runner = runner_for_world(world, config)
        results = runner.run()
    except ReproError as error:
        print(error, file=sys.stderr)
        return 1

    digest = results_digest(results)
    print(runner.report.render())
    print("fingerprint  %s" % (fp.short(runner.fingerprint) or "-"))
    print("digest       %s" % fp.short(digest))
    if runner.cache is not None:
        stats = runner.cache.stats
        print("cache        %d hit, %d miss, %d stored"
              % (stats.hits, stats.misses, stats.stores))
    if config.fault_plan is not None and runner.report.resilience:
        from repro.faults.process import reconcile
        print(reconcile(config.fault_plan,
                        runner.report.resilience).render())
    if args.trace is not None:
        write_run_trace(args.trace, runner, digest)
        print("trace        %s" % args.trace)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
