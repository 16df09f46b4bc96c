"""End-to-end loopback runs: the bit-identity and resilience gates.

Every test here drives the complete stage graph through real sockets
(coordinator plus worker threads on 127.0.0.1) and holds the distributed
``results_digest`` to the ``jobs=1`` reference — the tentpole contract.
"""

import threading
import time

import pytest

from repro.core.colartifact import ColumnarFloatMap
from repro.dist import protocol
from repro.dist.coordinator import DistConfig, dist_runner_for_bundle
from repro.dist.worker import DistWorker
from repro.errors import DistError
from repro.runtime import workers
from repro.runtime.cache import ArtifactCache, code_version
from repro.runtime.stages import topological_order
from repro.util import colpack
from repro.util import fingerprint as fp

pytestmark = [pytest.mark.dist, pytest.mark.slow]


def test_loopback_two_workers_matches_serial_digest(dist_run,
                                                    serial_digest):
    run, runner = dist_run(worker_count=2)
    assert run.worker_errors == {}
    assert run.digest == serial_digest
    assert not runner.report.degraded
    served = sum(summary.leases_served
                 for summary in run.summaries.values())
    assert served > 0
    # Every fan-out stage went over the wire and left an account.
    assert {row.stage for row in runner.report.resilience} \
        == {"filter", "spans", "reboots", "gaps"}
    for row in runner.report.resilience:
        assert row.analyzed_items == row.total_items


def test_coordinator_waits_on_events_not_the_poll_clock(dist_run,
                                                       serial_digest):
    """Stage completion and lease pulls wake on cluster events: a long
    ``poll_s`` only bounds the lease-expiry sweep, it is never slept out
    between stages (four fan-out stages would take 4 x 5 s)."""
    started = time.monotonic()
    run, _ = dist_run(config=DistConfig(workers=2, poll_s=5.0))
    assert time.monotonic() - started < 10.0
    assert run.worker_errors == {}
    assert run.digest == serial_digest


def test_worker_count_does_not_change_the_digest(dist_run,
                                                 serial_digest):
    run, _ = dist_run(worker_count=3)
    assert run.worker_errors == {}
    assert run.digest == serial_digest


def test_kernel_failures_quarantine_and_degrade(dist_run, serial_digest,
                                                monkeypatch):
    """A stage kernel that always raises exhausts the retry budget:
    its shards are quarantined, the run completes DEGRADED, and the
    accounting stays exact — no hang, no crash, no silent loss."""
    original = workers.SHARD_TASKS["reboots"]

    def exploding(items):
        raise RuntimeError("injected kernel failure")

    monkeypatch.setitem(workers.SHARD_TASKS, "reboots", exploding)
    config = DistConfig(workers=2, max_retries=1, backoff_base_s=0.0)
    run, runner = dist_run(worker_count=2, config=config)
    monkeypatch.setitem(workers.SHARD_TASKS, "reboots", original)
    assert run.worker_errors == {}
    assert runner.report.degraded
    reboots = [row for row in runner.report.resilience
               if row.stage == "reboots"][0]
    assert reboots.quarantined_items == reboots.total_items
    assert reboots.analyzed_items + reboots.quarantined_items \
        == reboots.total_items
    assert len(reboots.abandoned) == reboots.shards
    # Degradation is honest: the digest must NOT match the clean run.
    assert run.digest != serial_digest


def _delete_stage_artifacts(cache_dir, runner):
    """Evict the whole-stage artifacts, keeping shard checkpoints."""
    cache = ArtifactCache(cache_dir)
    params = fp.combine("min_connected", repr(runner._min_connected))
    removed = 0
    for spec in topological_order():
        key = ArtifactCache.key(runner.fingerprint, spec.name,
                                code_version(), params)
        path = cache._path(key)
        if path.exists():
            path.unlink()
            removed += 1
    assert removed, "no stage artifacts found to delete"


def test_workers_short_circuit_from_shared_cache(tmp_path, bundle,
                                                 dist_run,
                                                 serial_digest):
    """Second run with stage artifacts evicted but shard checkpoints
    kept: leases carry cache keys and workers answer from the shared
    store without recomputing (``cache_hit``)."""
    cache_dir = tmp_path / "cache"
    config = DistConfig(workers=2, cache_dir=cache_dir)
    cold, cold_runner = dist_run(worker_count=2, config=config)
    assert cold.digest == serial_digest
    _delete_stage_artifacts(cache_dir, cold_runner)
    warm, warm_runner = dist_run(worker_count=2, config=config)
    assert warm.digest == serial_digest
    hits = sum(summary.cache_hits
               for summary in warm.summaries.values())
    served = sum(summary.leases_served
                 for summary in warm.summaries.values())
    assert hits == served > 0, "every lease should be a cache hit"


def test_resume_preloads_checkpoints_before_serving(tmp_path, dist_run,
                                                    serial_digest):
    """``--resume``: the coordinator resolves every checkpointed shard
    before granting a single lease, interoperating with the checkpoint
    keys the pool supervisor writes."""
    cache_dir = tmp_path / "cache"
    cold_config = DistConfig(workers=2, cache_dir=cache_dir)
    cold, cold_runner = dist_run(worker_count=2, config=cold_config)
    _delete_stage_artifacts(cache_dir, cold_runner)
    resume_config = DistConfig(workers=2, cache_dir=cache_dir,
                               resume=True)
    warm, warm_runner = dist_run(worker_count=2, config=resume_config)
    assert warm.digest == serial_digest
    for row in warm_runner.report.resilience:
        assert row.checkpoints_loaded == row.shards
    served = sum(summary.leases_served
                 for summary in warm.summaries.values())
    assert served == 0, "resumed shards must never be re-leased"


def test_hello_rejects_a_worker_with_the_wrong_bundle(bundle):
    config = DistConfig(workers=1)
    runner = dist_runner_for_bundle(bundle, config)
    server = runner._server
    try:
        worker = DistWorker(host=server.host, port=server.port,
                            worker_id="intruder",
                            fingerprint="not-the-same-bundle")
        with pytest.raises(DistError, match="rejected"):
            worker.run()
    finally:
        server.finish()
        server.close()


def test_worker_cache_short_circuit_unit(tmp_path):
    """A verified cached envelope answers the lease without compute;
    a corrupt one falls through (and here surfaces the kernel error,
    since no worker context is installed)."""
    cache = ArtifactCache(tmp_path / "cache")
    table = ColumnarFloatMap.build([1], probe_ids=[1], values=[0.25])
    blob = colpack.pack_object(table)
    good = workers.ShardResult(shard_index=2, attempt=0,
                               payload=blob,
                               seal=fp.hash_bytes(blob))
    cache.store("good-key", good)
    corrupt = workers.ShardResult(shard_index=2, attempt=0,
                                  payload=blob + b"x",
                                  seal=fp.hash_bytes(blob))
    cache.store("bad-key", corrupt)
    worker = DistWorker(host="", port=0, worker_id="w0", cache=cache)
    lease = protocol.Lease(lease_id=1, stage="filter", shard_index=2,
                           attempt=0, items=(1,), cache_key="good-key")
    result = worker._compute(lease)
    assert result.cache_hit
    assert result.envelope.open_payload() == table
    bad_lease = protocol.Lease(lease_id=2, stage="filter", shard_index=2,
                               attempt=0, items=(1,),
                               cache_key="bad-key")
    fallthrough = worker._compute(bad_lease)
    assert not fallthrough.cache_hit
    assert "worker context" in fallthrough.error


def test_loopback_run_leaves_no_accept_thread_alive(dist_run):
    """Closing the lease server must wake and reap its accept thread:
    a thread blocked in accept() would keep the server, its runner, the
    bundle and the results alive after the run returns."""
    before = set(threading.enumerate())
    run, runner = dist_run(worker_count=2)
    assert run.worker_errors == {}
    leaked = [thread for thread in threading.enumerate()
              if thread.name == "repro-dist-accept"
              and thread not in before]
    assert leaked == []
    assert not runner._server._accept_thread.is_alive()
