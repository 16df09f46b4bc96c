"""Supervised fault-tolerant shard execution over a process pool.

:class:`ShardSupervisor` sits between :class:`~repro.runtime.executor.
ShardedRunner` and the worker pool and makes one guarantee: a worker
process dying, hanging, or returning a corrupted result envelope does not
abort the run, and when recovery succeeds the merged stage outputs are
*bit-identical* to the serial pipeline's.

The shard lifecycle itself — grants, failure charges, bounded retry with
deterministic backoff, quarantine with exact ``analyzed + quarantined ==
total`` accounting, and the index-ordered merge — belongs to the
:class:`~repro.runtime.board.LeaseBoard`, the same state machine the
socket coordinator drives.  The supervisor keeps only what a process
pool needs, and turns pool events into board calls:

* **a free slot** → ``board.lease``.  At most ``jobs`` leases are in
  flight, so a lease's grant is its execution start and a pool break
  implicates exactly the in-flight set.
* **an envelope** → ``board.submit``, which re-verifies the seal; a
  mismatch is a charged attempt, never a poisoned merge.
* **a kernel exception** → ``board.fail_lease``.
* **a broken pool** → ``board.break_pool``, then a fresh pool.  A dead
  worker breaks the whole :class:`~concurrent.futures.
  ProcessPoolExecutor` without saying which shard killed it; the board
  charges every in-flight lease, ambiguously when there were several.
* **a hang wave** → ``board.expire``, then a fresh pool.  A lease past
  its deadline is hung, but the pool is only torn down — every worker
  ``SIGKILL``\\ ed via the heartbeat-spool registry plus the pool's own
  process table — once *no* in-flight lease is healthy: killing a hung
  worker breaks the whole pool, so deferring the teardown lets live
  workers keep completing shards and batches co-hung shards into one
  recovery wave instead of one teardown each.

Backoff is the board's not-before gate: the wait loop wakes at the next
result, the next deadline or the next grantable instant, whichever comes
first, and never sleeps while results are waiting.

Completed envelopes are also **checkpointed** through the
content-addressed artifact cache (:class:`StageCheckpoints`; key:
fingerprint, ``shard:<stage>``, code version, params + partition
digest), so ``repro-run --resume`` after a mid-run kill re-dispatches
only the shards that never completed; the :class:`CheckpointManifest`
pins the partition the checkpoints belong to.  Stages running
downstream of a degraded stage are *tainted* — their shard inputs
differ from a clean run's in ways the size-only partition digest cannot
distinguish — so checkpointing is disabled for them entirely (the
executor applies the same rule to stage artifacts).  Checkpoint
identity and the post-drain accounting (:func:`close_stage`) are shared
with the lease server, so pool and distributed runs resume each other's
checkpoints.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro import obs
from repro.errors import EnvelopeCorruptError, SupervisionError
from repro.obs.spans import SpanHandle
from repro.runtime import workers
from repro.runtime.board import (
    SUBMIT_RESOLVED,
    LeaseBoard,
    LeaseRecord,
    StageOutcome,
    SupervisionPolicy,
)
from repro.runtime.cache import ArtifactCache
from repro.util import fingerprint as fp

#: How long the wait loop sleeps when no deadline is nearer.
_POLL_S = 0.05


@dataclass(frozen=True)
class CheckpointManifest:
    """Identity of one stage's shard checkpoints in the artifact cache.

    Persisted through the cache itself and re-validated on ``--resume``;
    it crosses a persistence boundary, so its layout is a wire contract
    (RPR010).
    """

    __wire_contract__ = "checkpoint-manifest"

    stage: str
    shard_count: int
    partition_digest: str
    keys: tuple[str, ...]


def partition_digest(stage: str, shards: list[list]) -> str:
    """Fingerprint of a stage's shard partition (count + sizes).

    Shard *contents* are already pinned by the cache key's bundle
    fingerprint / code version / params; what the checkpoint key must
    additionally capture is how the work was cut, so a rerun with a
    different ``--shards`` cannot resume half a foreign partition.
    """
    return fp.combine("partition", stage, str(len(shards)),
                      *[str(len(shard)) for shard in shards])


class StageCheckpoints:
    """One stage's shard checkpoints in the artifact cache.

    Every executor that fans shards out — the pool supervisor here and
    the dist coordinator — builds one per stage, so both derive the
    *same* keys from the same identity, which is what lets ``repro-run
    --resume`` pick up checkpoints a distributed run stored and vice
    versa.
    """

    def __init__(self, cache: ArtifactCache | None, fingerprint: str,
                 stage: str, shards: list[list], version: str,
                 params: str, tainted: bool = False) -> None:
        # A tainted stage (downstream of a degraded one) must neither
        # store nor load checkpoints: its shard inputs differ from a
        # clean run's — e.g. ``gaps`` items carry ``[]`` where reboots
        # were quarantined — with the same shard *sizes*, which is all
        # the partition digest in the checkpoint key can see.
        self.cache = cache if fingerprint and not tainted else None
        self.fingerprint = fingerprint
        self.stage = stage
        self.shard_count = len(shards)
        self.version = version
        self.partition = partition_digest(stage, shards)
        self._identity = fp.combine(params, self.partition)

    @property
    def enabled(self) -> bool:
        return self.cache is not None

    def key(self, index: int) -> str:
        """Cache key of one shard's checkpointed envelope."""
        return ArtifactCache.key(
            self.fingerprint, "shard:%s:%d" % (self.stage, index),
            self.version, self._identity)

    def _manifest_key(self) -> str:
        return ArtifactCache.key(
            self.fingerprint, "manifest:%s" % self.stage, self.version,
            self._identity)

    def open(self, resume: bool) -> dict[int, object]:
        """Verified payloads of every checkpointed shard (on resume),
        after recording the manifest if any shard is left to compute.

        Loads go through the normal cache API, so the resumed shards are
        visible as cache *hits*.  A checkpoint that fails its seal is a
        cache miss, never a run abort: the shard is simply recomputed.
        """
        if self.cache is None:
            return {}
        resolved = self._load() if resume else {}
        if len(resolved) < self.shard_count:
            self.cache.store(self._manifest_key(), CheckpointManifest(
                stage=self.stage, shard_count=self.shard_count,
                partition_digest=self.partition,
                keys=tuple(self.key(index)
                           for index in range(self.shard_count))))
        return resolved

    def _load(self) -> dict[int, object]:
        hit, manifest = self.cache.load(self._manifest_key(),
                                        stage="manifest:%s" % self.stage)
        # The content-addressed keys already embed the partition digest,
        # so foreign checkpoints can never silently match — this check
        # exists to *surface* a mismatch instead of quietly recomputing.
        if hit and isinstance(manifest, CheckpointManifest) and (
                manifest.partition_digest != self.partition
                or manifest.shard_count != self.shard_count):
            raise SupervisionError(
                "checkpoint manifest for stage %r does not match the "
                "current shard partition; clear the cache or rerun "
                "without --resume" % (self.stage,))
        resolved: dict[int, object] = {}
        for index in range(self.shard_count):
            hit, envelope = self.cache.load(self.key(index),
                                            stage="shard:%s" % self.stage)
            if not hit or not isinstance(envelope, workers.ShardResult):
                continue
            try:
                resolved[index] = envelope.open_payload()
            except EnvelopeCorruptError:
                continue
        return resolved

    def store(self, envelope: workers.ShardResult) -> bool:
        """Persist one verified envelope; True only if it was written."""
        if self.cache is None:
            return False
        self.cache.store(self.key(envelope.shard_index), envelope)
        return True


def close_stage(board: LeaseBoard, probe_of: Callable[[object], int],
                handle: SpanHandle, checkpoints_loaded: int,
                checkpoints_stored: int) -> StageOutcome:
    """Account one drained stage: its outcome, trace and counters.

    Worker spans and metrics are absorbed in shard-index order, so the
    merged trace is deterministic whatever order the results arrived in.
    """
    outcome = board.finish(probe_of,
                           checkpoints_loaded=checkpoints_loaded,
                           checkpoints_stored=checkpoints_stored)
    for index in sorted(board.envelopes):
        envelope = board.envelopes[index]
        obs.absorb_spans(span.with_attrs(shard=index)
                         for span in envelope.spans)
        obs.metrics().absorb(envelope.metrics)
    handle.set(leases=board.leases_granted, retries=board.retries,
               reassignments=board.reassignments,
               abandoned=len(board.abandoned),
               duplicates=board.duplicates, late=board.late,
               checkpoints_loaded=checkpoints_loaded,
               checkpoints_stored=checkpoints_stored)
    if checkpoints_loaded:
        obs.count("runtime.checkpoints.loaded", checkpoints_loaded)
    if checkpoints_stored:
        obs.count("runtime.checkpoints.stored", checkpoints_stored)
    return outcome


class ShardSupervisor:
    """Drives one :class:`LeaseBoard` per fan-out stage over a process pool.

    One supervisor serves every fan-out stage of one run; it owns the
    worker pool (created lazily, respawned after crashes and hang
    teardowns) and the heartbeat spool directory the workers register in.
    """

    def __init__(self, context: workers.WorkerContext, jobs: int,
                 start_method: str,
                 policy: SupervisionPolicy | None = None,
                 cache: ArtifactCache | None = None,
                 fingerprint: str = "", version: str = "",
                 params: str = "", resume: bool = False) -> None:
        self.jobs = jobs
        self.start_method = start_method
        self.policy = policy or SupervisionPolicy()
        self.cache = cache
        self.fingerprint = fingerprint
        self.version = version
        self.params = params
        self.resume = resume
        self._context = context
        self._pool: ProcessPoolExecutor | None = None
        self._spool: Path | None = None
        self._generation = 0

    # -- pool lifecycle -----------------------------------------------------

    def _heartbeat_dir(self) -> Path:
        if self._spool is None:
            self._spool = Path(tempfile.mkdtemp(prefix="repro-supervise-"))
        directory = self._spool / ("gen-%d" % self._generation)
        directory.mkdir(parents=True, exist_ok=True)
        return directory

    def _start_pool(self) -> None:
        """Create a worker pool generation under the resolved start method.

        Fork installs the context parent-side for copy-on-write
        inheritance; spawn ships it once per worker via the initializer.
        Either way each generation gets a fresh heartbeat spool.
        """
        self._generation += 1
        context = replace(self._context,
                          heartbeat_dir=str(self._heartbeat_dir()))
        mp_context = multiprocessing.get_context(self.start_method)
        if self.start_method == "fork":
            workers.init_worker(context)
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=mp_context)
        else:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=mp_context,
                initializer=workers.init_worker, initargs=(context,))

    def _registered_pids(self) -> list[int]:
        """Worker pids that registered a heartbeat this pool generation."""
        if self._spool is None:
            return []
        directory = self._spool / ("gen-%d" % self._generation)
        pids = []
        for path in sorted(directory.glob("hb-*.json")):
            try:
                pids.append(workers.Heartbeat.from_json(
                    path.read_text()).pid)
            except (OSError, ValueError, KeyError):
                continue
        return pids

    def _teardown_pool(self) -> None:
        if self._pool is None:
            return
        # The pool is being discarded on every teardown path (respawn
        # after a break, hang recovery, end of run), so its workers are
        # never worth a graceful join: SIGKILL them all first.  This is
        # load-bearing for the crash path — ``terminate_broken`` only
        # SIGTERMs workers it knows about, and a spawn worker still in
        # interpreter bootstrap can miss that entirely (observed blocked
        # forever on its startup pipe), which would wedge the
        # ``wait=True`` join below.  It is equally load-bearing for hang
        # recovery: ``shutdown(cancel_futures=True)`` cannot stop a task
        # that is already running.
        #
        # The heartbeat spool (workers register on their first task) is
        # the primary pid source; ``_processes`` is the pool's own
        # process table — a private CPython attribute, so it is read
        # through ``getattr`` and covers workers that never served a
        # task.  ``test_pool_process_table_assumption`` pins the
        # attribute so an interpreter upgrade that drops it fails
        # loudly instead of silently weakening this path.  Only
        # processes this supervisor spawned are ever signalled.
        pids = set(self._registered_pids())
        pids.update(getattr(self._pool, "_processes", None) or {})
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                continue
        try:
            # wait=True is load-bearing too: the dying pool's management
            # thread closes its queue/pipe fds during shutdown, and
            # spawning the replacement pool while that close is in
            # flight races on reused fd numbers ("bad value(s) in
            # fds_to_keep" from fork_exec under spawn).  With every
            # worker SIGKILLed above, the join is prompt.
            self._pool.shutdown(wait=True, cancel_futures=True)
        except (OSError, RuntimeError):
            # Shutting down an already-broken pool is best-effort;
            # the replacement pool does not depend on it succeeding.
            pass
        self._pool = None

    def _respawn(self) -> None:
        self._teardown_pool()
        self._start_pool()
        obs.count("runtime.pool.respawns")

    def shutdown(self) -> None:
        """Release the pool, the worker context, and the heartbeat spool."""
        self._teardown_pool()
        workers.reset_worker()
        if self._spool is not None:
            shutil.rmtree(self._spool, ignore_errors=True)
            self._spool = None

    # -- the supervision loop -----------------------------------------------

    def run_stage(self, stage: str, task_name: str,
                  shards: list[list],
                  probe_of: Callable[[object], int] = lambda item: item,
                  tainted: bool = False) -> StageOutcome:
        """Run one fan-out stage under supervision.

        ``probe_of`` extracts the probe id from one shard item (identity
        for probe-id shards, first element for the ``gaps`` stage's
        ``(probe_id, reboots)`` tuples) — it is only used to account
        quarantined probes for abandoned shards.

        ``tainted`` marks a stage computed downstream of a degraded one:
        its inputs are missing quarantined work, so its checkpoints are
        neither stored nor loaded (see :class:`StageCheckpoints`).
        """
        checkpoints = StageCheckpoints(
            self.cache, self.fingerprint, stage, shards, self.version,
            self.params, tainted=tainted)
        with obs.span("supervise:%s" % stage, category="supervisor",
                      stage=stage, shards=len(shards)) as handle:
            resolved = checkpoints.open(self.resume)
            board = LeaseBoard(stage, shards, self.policy,
                               resolved=resolved)
            stored = self._drain(board, task_name, checkpoints)
            outcome = close_stage(board, probe_of, handle, len(resolved),
                                  stored)
        for failure in board.failures:
            obs.count("runtime.shard.failures.%s" % failure.cause)
        for name, value in (("runtime.retries", board.retries),
                            ("runtime.reassignments", board.reassignments),
                            ("runtime.quarantined_shards",
                             len(board.abandoned))):
            if value:
                obs.count(name, value)
        return outcome

    def _submit(self, task_name: str, shard: list,
                record: LeaseRecord) -> Future:
        """Hand one lease to the pool as a shard task."""
        if self._pool is None:
            self._start_pool()
        try:
            return self._pool.submit(workers.run_shard, task_name, shard,
                                     record.shard_index, record.attempt)
        except (BrokenProcessPool, OSError, ValueError) as error:
            # A sibling crashed while we were still submitting, or
            # spawning a worker tripped over fds the previous pool
            # generation was still releasing.  Either way the pool is
            # unusable: park the failure on a pre-failed future so the
            # wait loop's broken-pool branch handles it like every
            # other one.
            future: Future = Future()
            future.set_exception(BrokenProcessPool(str(error)))
            return future

    def _drain(self, board: LeaseBoard, task_name: str,
               checkpoints: StageCheckpoints) -> int:
        """Turn pool events into board calls until the stage drains.

        Returns how many envelopes were checkpointed.
        """
        running: dict[Future, int] = {}  # future -> lease id
        stored = 0
        while not board.done:
            while len(running) < self.jobs:
                record = board.lease("pool")
                if record is None:
                    break
                running[self._submit(
                    task_name, board.shards[record.shard_index],
                    record)] = record.lease_id
            now = time.monotonic()
            wake = [board.active[lease_id].deadline
                    for lease_id in running.values()]
            if len(running) < self.jobs:
                # A free slot waits for the next shard out of backoff.
                wake.append(board.next_grant_at() or now)
            timeout = max(min((instant for instant in wake
                               if instant > now),
                              default=now + _POLL_S) - now, _POLL_S)
            if not running:
                # Nothing in flight and nothing grantable yet: every
                # open shard is inside its backoff window.
                time.sleep(timeout)
                continue
            done, _ = wait(set(running), timeout=timeout,
                           return_when=FIRST_COMPLETED)

            broken = False
            for future in sorted(done, key=running.get):
                lease_id = running.pop(future)
                try:
                    envelope = future.result()
                except BrokenProcessPool:
                    broken = True  # charged below, with its siblings
                # The whole point of supervision is that NO task failure
                # — whatever type the kernel raised — may take the run
                # down; it becomes a charged attempt instead.
                except Exception as error:  # repro: noqa[RPR004]
                    board.fail_lease(lease_id, "%s: %s"
                                     % (type(error).__name__, error))
                else:
                    if board.submit(lease_id, envelope) \
                            == SUBMIT_RESOLVED \
                            and checkpoints.store(envelope):
                        stored += 1

            if broken:
                # Every in-flight future resolves to BrokenProcessPool
                # at once; the board charges all active leases.
                board.break_pool()
                running.clear()
                self._respawn()
                continue

            # A hung worker wedges its slot until SIGKILL, but killing
            # it costs the *whole* pool, destroying every innocent
            # in-flight shard's work.  So teardown waits until NO
            # in-flight lease is healthy: a lease is hung only by
            # individually exceeding its own execution deadline, healthy
            # ones keep completing — and new ones keep being granted —
            # on the remaining live workers meanwhile, and co-hung
            # shards batch into one wave.
            moment = time.monotonic()
            if running and all(moment >= board.active[lease_id].deadline
                               for lease_id in running.values()):
                board.expire(moment)
                running.clear()
                self._respawn()
        return stored
