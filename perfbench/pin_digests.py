"""Recompute the pinned results digests in ``perfbench/digests.json``.

Every benchmark operation must reproduce what is pinned for its
workload and world.  Pins are regenerated only when a change is meant to
alter analysis results or rendered output.  For each workload and
``--seed`` value given, this script sets up the run's worlds exactly as
``run.py`` does and records, per world seed, the digest of a serial
analysis of the bundle under the workload's read policy (``results``)
and, for workloads that render the experiments, the hash of every
driver's rendered text (``experiments``).

Usage, from the repository root::

    python3 perfbench/pin_digests.py 2015 1 2 3
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads
    from repro.runtime import RuntimeConfig, results_digest, runner_for_bundle
    from tracing import Tracer

    seeds = [int(seed) for seed in argv] or [2015]
    pins = json.loads(run.PINS.read_text())
    work = run.WORK / "pins"
    untraced = Tracer(False)
    try:
        for workload in workloads.WORKLOADS.values():
            for seed in seeds:
                state = workloads.RunState(
                    workload, work,
                    workloads.DEFAULT_FAULT_SEED if workload.faulted
                    else None)
                workloads.set_ups(state, untraced, seed, {})
                for world in state.worlds:
                    bundle = workloads.load(workload, world, untraced)
                    results = runner_for_bundle(bundle,
                                                RuntimeConfig()).run()
                    pin = {"results": results_digest(results)}
                    if workload.operation is workloads.tables_operation:
                        pin["experiments"] = workloads.experiments_hash(
                            workloads.render_experiments(state, results,
                                                         untraced))
                    pins.setdefault(workload.name, {})[
                        str(world.seed)] = pin
                    print("%-18s world %-6d %s"
                          % (workload.name, world.seed,
                             " ".join(pin[kind][:16] for kind in pin)))
                shutil.rmtree(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
