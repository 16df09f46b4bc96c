"""Byte-identity guard: bundle -> tables against the benchmark's pins.

World seed 3 of the ``bundle-to-tables`` benchmark workload (the paper
scenario at scale 0.1) is simulated, written and loaded STRICT, run
through the stage graph, digested, and rendered by every experiment
driver.  Both the results digest and the SHA-256 over every driver's id
and rendered text must equal the pins in ``perfbench/digests.json``,
which this test only reads: any change to ingest, analysis, the digest
writer or the table/figure views that moves a byte fails here.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from pathlib import Path

import pytest

from repro.experiments import extensions, figures, tables  # noqa: F401
from repro.experiments.registry import experiment_ids, get_experiment
from repro.runtime import RuntimeConfig, results_digest, runner_for_bundle
from repro.sim.io import load_bundle, write_world
from repro.sim.scenario import paper_scenario
from repro.sim.world import build_world
from repro.util.ingest import ReadPolicy

PINS = Path(__file__).resolve().parents[2] / "perfbench" / "digests.json"
WORKLOAD, SCALE, SEED = "bundle-to-tables", 0.1, 3

pytestmark = pytest.mark.slow


def experiments_hash(results) -> str:
    """SHA-256 over every driver's id and rendered text, registry order."""
    digest = hashlib.sha256()
    for experiment_id in experiment_ids():
        driver = get_experiment(experiment_id)
        output = (driver(results) if inspect.signature(driver).parameters
                  else driver())
        digest.update(("%s\n%s\n" % (output.experiment_id, output.text))
                      .encode("utf-8"))
    return digest.hexdigest()


def test_bundle_to_tables_reproduces_pins(tmp_path):
    pins = json.loads(PINS.read_text())[WORKLOAD][str(SEED)]
    write_world(build_world(paper_scenario(scale=SCALE, seed=SEED)),
                tmp_path / "bundle")
    bundle = load_bundle(tmp_path / "bundle", policy=ReadPolicy.STRICT)
    results = runner_for_bundle(bundle, RuntimeConfig()).run()
    assert results_digest(results) == pins["results"]
    assert experiments_hash(results) == pins["experiments"]
