"""Differential digest suite: production runs vs the record oracle.

Production runs the hot stages through the columnar kernels only.  The
record kernels live on in :mod:`tests.record_oracle`, and every
execution mode — the serial pipeline, the serial and sharded runner,
warm cache, REPAIR-degraded bundles and full paper-scale scenarios —
must produce the oracle's canonical digest.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.atlas.types import ConnectionLogEntry, UptimeRecord
from repro.core.pipeline import pipeline_for_bundle
from repro.dist.coordinator import DistConfig, dist_runner_for_bundle
from repro.dist.loopback import run_loopback
from repro.faults.plan import FaultPlan
from repro.runtime import RuntimeConfig, results_digest, runner_for_bundle
from repro.runtime import stages
from repro.runtime.workers import WorkerContext
from repro.sim.io import load_bundle, write_world
from repro.util.ingest import IngestReport, ReadPolicy
from tests.record_oracle import oracle_results_for_bundle

pytestmark = pytest.mark.runtime

#: Canonical digest of the paper scenario at scale 0.5, seed 2015 —
#: the number BENCH_runtime.json and the CI bench smoke job pin.
PAPER_HALF_SCALE_DIGEST = (
    "e3de573a12a2dacfff392c19b4c38512fe0c137ee65b54b1e0b0599606d2ee0c")


def run_digest(bundle, **config) -> str:
    runner = runner_for_bundle(bundle, RuntimeConfig(**config))
    return results_digest(runner.run())


def oracle_digest(bundle) -> str:
    return results_digest(oracle_results_for_bundle(bundle))


@pytest.fixture(scope="module")
def legacy_digest(bundle):
    """The record oracle's digest of the shared test bundle."""
    return oracle_digest(bundle)


class TestKernelModesAgree:
    def test_columnar_serial_matches_legacy(self, bundle, legacy_digest):
        assert run_digest(bundle) == legacy_digest
        assert results_digest(
            pipeline_for_bundle(bundle).run()) == legacy_digest

    def test_columnar_sharded_matches_legacy_serial(self, bundle,
                                                    legacy_digest):
        assert run_digest(bundle, jobs=2) == legacy_digest

    def test_worker_context_rejects_record_kernels(self, bundle):
        with pytest.raises(ValueError, match="columnar"):
            WorkerContext(connlog=bundle.connlog, archive=bundle.archive,
                          ip2as=bundle.ip2as, kroot=bundle.kroot,
                          uptime=bundle.uptime, min_connected=1.0,
                          columnar=False)


class TestSidecarHealing:
    """Warm runs read the columnar ``.col`` sidecars, and a damaged
    sidecar heals its entry into a miss without moving the digest."""

    def test_warm_run_builds_no_columnar_views(self, bundle, legacy_digest,
                                               tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        runner_for_bundle(bundle, RuntimeConfig(cache_dir=cache_dir)).run()
        assert list(cache_dir.rglob("*.col")), "no .col sidecars written"

        def refuse(_source):
            raise AssertionError("a fully warm run built a columnar view")

        for name, (source, _) in list(stages.DERIVED_SOURCES.items()):
            monkeypatch.setitem(stages.DERIVED_SOURCES, name,
                                (source, refuse))
        warm = runner_for_bundle(bundle, RuntimeConfig(cache_dir=cache_dir))
        assert results_digest(warm.run()) == legacy_digest
        assert warm.cache.stats.misses == 0

    def test_deleted_sidecar_heals_and_digest_survives(self, bundle,
                                                       legacy_digest,
                                                       tmp_path):
        cache_dir = tmp_path / "cache"
        runner_for_bundle(bundle, RuntimeConfig(cache_dir=cache_dir)).run()
        victim = next(iter(sorted(cache_dir.rglob("*.col"))))
        victim.unlink()

        warm = runner_for_bundle(bundle, RuntimeConfig(cache_dir=cache_dir))
        assert results_digest(warm.run()) == legacy_digest
        # The orphaned entry healed into a miss and was recomputed.
        assert warm.cache.stats.healed >= 1
        assert warm.cache.stats.misses >= 1

        # The re-store repaired the group: next run is fully warm.
        rewarm = runner_for_bundle(bundle,
                                   RuntimeConfig(cache_dir=cache_dir))
        assert results_digest(rewarm.run()) == legacy_digest
        assert rewarm.cache.stats.misses == 0

    def test_corrupt_sidecar_heals_like_missing(self, bundle, legacy_digest,
                                                tmp_path):
        cache_dir = tmp_path / "cache"
        runner_for_bundle(bundle, RuntimeConfig(cache_dir=cache_dir)).run()
        victim = next(iter(sorted(cache_dir.rglob("*.col"))))
        victim.write_bytes(b"RCOLgarbage")

        warm = runner_for_bundle(bundle, RuntimeConfig(cache_dir=cache_dir))
        assert results_digest(warm.run()) == legacy_digest
        assert warm.cache.stats.healed >= 1


class TestWorkersBuildNoRecords:
    """Pool processes and loopback threads read only the columns of a
    STRICT-loaded bundle: neither builds a single record object."""

    @pytest.fixture
    def refuse_records(self, monkeypatch):
        def refuse(record):
            raise AssertionError("built a %s" % type(record).__name__)

        for cls in (ConnectionLogEntry, UptimeRecord):
            monkeypatch.setattr(cls, "__post_init__", refuse)

    def test_pool_run_builds_no_records(self, bundle_dir, legacy_digest,
                                        refuse_records):
        runner = runner_for_bundle(load_bundle(bundle_dir),
                                   RuntimeConfig(jobs=2))
        digest = results_digest(runner.run())
        # A worker that built a record would have failed its shard.
        assert runner.report.total_retries == 0
        assert not runner.report.quarantined_probes
        assert digest == legacy_digest

    def test_loopback_run_builds_no_records(self, bundle_dir, legacy_digest,
                                            refuse_records):
        bundle = load_bundle(bundle_dir)
        runner = dist_runner_for_bundle(bundle, DistConfig(workers=2))
        run = run_loopback(runner, WorkerContext(
            connlog=bundle.connlog, archive=bundle.archive,
            ip2as=bundle.ip2as, kroot=bundle.kroot, uptime=bundle.uptime,
            min_connected=runner._min_connected), worker_count=2)
        assert run.worker_errors == {}
        assert not run.report.degraded
        assert run.digest == legacy_digest


class TestRepairedBundleDifferential:
    def test_kernels_agree_on_degraded_bundle(self, world, tmp_path):
        root = write_world(world, tmp_path / "degraded")
        FaultPlan.uniform(seed=13, rate=0.05).apply(root)
        report = IngestReport()
        bundle = load_bundle(root, policy=ReadPolicy.REPAIR, report=report)
        assert not report.clean  # faults were really injected
        oracle = oracle_digest(bundle)
        assert run_digest(bundle) == oracle
        assert run_digest(bundle, jobs=2) == oracle


@pytest.mark.slow
class TestPaperScaleDifferential:
    """Seeded paper-scenario worlds: production and oracle, one digest.

    Scale 0.5 additionally pins the canonical digest the benchmark and
    the CI bench smoke job gate on.  Scale 2 (~770k connlog entries,
    minutes of wall time) only runs when ``REPRO_SLOW_SCALE2`` is set —
    it is the weekly-deep-check tier, not the per-commit one.
    """

    @staticmethod
    def _paper_bundle(scale, tmp_path):
        from repro.sim.scenario import paper_scenario
        from repro.sim.world import build_world
        world = build_world(paper_scenario(scale=scale, seed=2015))
        root = write_world(world, tmp_path / "bundle")
        try:
            return load_bundle(root)
        finally:
            del world

    def test_half_scale_digest_pinned_in_both_modes(self, tmp_path):
        bundle = self._paper_bundle(0.5, tmp_path)
        assert run_digest(bundle) == PAPER_HALF_SCALE_DIGEST
        assert oracle_digest(bundle) == PAPER_HALF_SCALE_DIGEST

    @pytest.mark.skipif(not os.environ.get("REPRO_SLOW_SCALE2"),
                        reason="set REPRO_SLOW_SCALE2=1 for the scale-2 "
                               "differential (several minutes)")
    def test_double_scale_modes_agree(self, tmp_path):
        bundle = self._paper_bundle(2, tmp_path)
        oracle = oracle_digest(bundle)
        assert run_digest(bundle) == oracle
        shutil.rmtree(tmp_path / "bundle", ignore_errors=True)
