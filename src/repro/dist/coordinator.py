"""The coordinator: a lease server plus a runner that pulls from it.

:class:`LeaseServer` listens on a socket, accepts pull-based workers,
and answers the protocol verbs (HELLO handshake, LEASE grants from the
current stage's :class:`~repro.dist.board.LeaseBoard`, RESULT folding,
HEARTBEAT acks, DRAIN back-offs).  One daemon thread per connection
does blocking request/reply; every mutation of cluster state happens
under one lock, and the board itself is swapped in and out per stage by
:meth:`LeaseServer.serve_stage` — the blocking call the runner's main
thread makes where the process-pool path would dispatch to its
supervisor.

:class:`DistRunner` subclasses :class:`~repro.runtime.executor.
ShardedRunner` and overrides exactly one seam — ``_stage_payloads`` —
so the cache handling, degraded-run rules, per-stage merge logic and
result assembly stay the single implementation the serial and pool
paths already share.  That inheritance is the bit-identity argument:
the distributed run computes the same shards with the same kernels and
merges them through the same ``ordered_merge`` calls, so its
``results_digest`` matches ``repro-run --jobs 1`` by construction, and
the dist test suite pins it by measurement.

Checkpoints go through the shared artifact cache under the *same* keys
the pool supervisor uses (:func:`repro.runtime.supervisor.
shard_checkpoint_key`), so a distributed run can resume a killed pool
run's shards and vice versa, and workers can short-circuit compute via
the ``cache_key`` their lease carries.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.dist import protocol
from repro.dist.board import LeaseBoard
from repro.dist.transport import Channel
from repro.runtime import supervisor, workers
from repro.runtime.cache import DEFAULT_MAX_BYTES, ArtifactCache, code_version
from repro.runtime.executor import RunReport, RuntimeConfig, ShardedRunner
from repro.runtime.supervisor import StageOutcome, SupervisionPolicy
from repro.util import timeutil


@dataclass(frozen=True)
class DistConfig:
    """Coordinator knobs, orthogonal to what is computed."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``LeaseServer.port``).
    port: int = 0
    #: Expected worker count — a shard-count hint, exactly like the pool
    #: path's ``jobs`` (outputs are identical for every value).
    workers: int = 2
    #: Explicit shard count; default ``workers * OVERSHARD`` per stage.
    shards: int | None = None
    #: Shared artifact cache; also the checkpoint/short-circuit store.
    cache_dir: str | Path | None = None
    max_cache_bytes: int = DEFAULT_MAX_BYTES
    #: Reload completed shard checkpoints before serving a stage.
    resume: bool = False
    max_retries: int = timeutil.MAX_SHARD_RETRIES
    #: Execution budget per lease; the clock starts at grant.
    lease_deadline_s: float = timeutil.LEASE_DEADLINE_S
    backoff_base_s: float = timeutil.BACKOFF_BASE_S
    #: Coordinator sweep interval (lease expiry) and the retry-after
    #: hint handed to empty-handed workers.
    poll_s: float = timeutil.DIST_POLL_S

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1, got %r"
                             % (self.workers,))
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0, got %r"
                             % (self.max_retries,))
        if self.lease_deadline_s <= 0:
            raise ValueError("lease_deadline_s must be positive, got %r"
                             % (self.lease_deadline_s,))
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0, got %r"
                             % (self.backoff_base_s,))
        if self.poll_s <= 0:
            raise ValueError("poll_s must be positive, got %r"
                             % (self.poll_s,))

    def policy(self) -> SupervisionPolicy:
        return SupervisionPolicy(
            max_retries=self.max_retries,
            shard_deadline_s=self.lease_deadline_s,
            backoff_base_s=self.backoff_base_s)

    def runtime_config(self) -> RuntimeConfig:
        """The executor config a :class:`DistRunner` runs under.

        ``jobs`` must exceed 1 for the executor to take the sharded
        path at all.  The lease server is the supervisor on this path:
        :class:`DistRunner` overrides the one seam that would reach the
        pool.
        """
        return RuntimeConfig(
            jobs=max(2, self.workers), shards=self.shards,
            cache_dir=self.cache_dir,
            max_cache_bytes=self.max_cache_bytes,
            resume=self.resume,
            max_retries=self.max_retries,
            shard_deadline_s=self.lease_deadline_s,
            backoff_base_s=self.backoff_base_s)


@dataclass
class _WorkerState:
    """Per-worker bookkeeping, keyed by the worker's self-chosen id."""

    worker_id: str
    leases: int = 0
    results: int = 0
    cache_hits: int = 0
    last_seen: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0


@dataclass
class _StageServing:
    """Everything the connection handlers need about the live stage."""

    board: LeaseBoard
    stage: str
    partition: str
    checkpointing: bool
    version: str
    params: str
    checkpoints_stored: int = 0


@dataclass
class _Connection:
    """One handler thread's conversation state."""

    channel: Channel
    worker_id: str = ""
    synced_sent: int = 0
    synced_received: int = 0
    closing: bool = False
    reply: object | None = field(default=None)


class LeaseServer:
    """Serve shard leases to socket workers; fold their results back."""

    def __init__(self, config: DistConfig) -> None:
        self.config = config
        self._listener = socket.create_server((config.host, config.port))
        self.host = config.host
        self.port = int(self._listener.getsockname()[1])
        self._lock = threading.RLock()
        self._runner: ShardedRunner | None = None
        self._serving: _StageServing | None = None
        self._finished = False
        self._closed = False
        self._workers: dict[str, _WorkerState] = {}
        self._channels: set[Channel] = set()
        self._cache: ArtifactCache | None = None
        if config.cache_dir is not None:
            # The server's own handle (handler threads store checkpoints
            # concurrently with the runner thread's artifact traffic);
            # writes are atomic, so sharing the directory is safe while
            # sharing one stats object would not be.
            self._cache = ArtifactCache(config.cache_dir,
                                        max_bytes=config.max_cache_bytes)
        self.bytes_sent = 0
        self.bytes_received = 0
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="repro-dist-accept")
        self._accept_thread.start()

    # -- lifecycle -----------------------------------------------------------

    def bind(self, runner: "ShardedRunner") -> None:
        """Attach the runner whose identity HELLO replies speak for."""
        with self._lock:
            self._runner = runner

    def finish(self) -> None:
        """The run is over: answer every future pull with DRAIN(done)."""
        with self._lock:
            self._finished = True

    def close(self) -> None:
        """Stop accepting, drop every live connection, reap the acceptor.

        Closing a listening socket does not wake a thread blocked in
        ``accept()`` on Linux; shutting it down first does.  The accept
        thread is joined so nothing it references (this server, its
        runner, the bundle) outlives the run.
        """
        with self._lock:
            self._closed = True
            channels = list(self._channels)
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected/listening, or already shut down
        try:
            self._listener.close()
        except OSError:
            pass
        for channel in channels:
            channel.close()
        # Bounded: where shutdown() cannot wake accept(), a leaked
        # acceptor is still better than a hung close().
        self._accept_thread.join(timeutil.DIST_DRAIN_GRACE_S)

    def worker_summary(self) -> dict[str, dict[str, int]]:
        """Per-worker lease/byte accounting (for reports and tests)."""
        with self._lock:
            return {
                worker_id: {"leases": state.leases,
                            "results": state.results,
                            "cache_hits": state.cache_hits,
                            "bytes_sent": state.bytes_sent,
                            "bytes_received": state.bytes_received}
                for worker_id, state in self._workers.items()
            }

    # -- the per-stage blocking call the runner makes -------------------------

    def serve_stage(self, stage: str, shards: list[list], probe_of,
                    tainted: bool, version: str,
                    params: str) -> StageOutcome:
        """Serve one fan-out stage to the connected workers.

        Blocks the runner thread until every shard is resolved or
        abandoned, sweeping expired leases every ``poll_s``; connection
        handlers grant leases and fold results concurrently under the
        cluster lock.
        """
        runner = self._runner
        fingerprint = runner.fingerprint if runner is not None else ""
        checkpointing = (self._cache is not None and bool(fingerprint)
                         and not tainted)
        partition = supervisor.partition_digest(stage, shards)
        resolved = self._load_checkpoints(
            stage, shards, partition, fingerprint, version, params,
            checkpointing)
        with obs.span("dist:%s" % stage, category="dist", stage=stage,
                      shards=len(shards)) as handle:
            board = LeaseBoard(stage, shards, self.config.policy(),
                               resolved=resolved)
            serving = _StageServing(
                board=board, stage=stage, partition=partition,
                checkpointing=checkpointing, version=version,
                params=params)
            if checkpointing and len(resolved) < len(shards):
                self._cache.store(
                    supervisor.manifest_checkpoint_key(
                        fingerprint, stage, version, params, partition),
                    supervisor.CheckpointManifest(
                        stage=stage, shard_count=len(shards),
                        partition_digest=partition,
                        keys=tuple(supervisor.shard_checkpoint_key(
                            fingerprint, stage, index, version, params,
                            partition) for index in range(len(shards)))))
            with self._lock:
                self._serving = serving
            while True:
                with self._lock:
                    board.expire()
                    if board.done:
                        self._serving = None
                        stored = serving.checkpoints_stored
                        break
                time.sleep(self.config.poll_s)
            # The board is only safe under the cluster lock; handler
            # threads may still be draining a late RESULT, so the final
            # accounting reads hold it too.
            with self._lock:
                outcome = board.finish(probe_of,
                                       checkpoints_loaded=len(resolved),
                                       checkpoints_stored=stored)
                # Absorb worker spans/metrics in shard-index order: the
                # merged trace is deterministic whatever the wire order
                # was.
                for index in sorted(board.envelopes):
                    envelope = board.envelopes[index]
                    obs.absorb_spans(span.with_attrs(shard=index)
                                     for span in envelope.spans)
                    obs.metrics().absorb(envelope.metrics)
                handle.set(leases=board.leases_granted,
                           retries=board.retries,
                           reassignments=board.reassignments,
                           abandoned=len(board.abandoned),
                           duplicates=board.duplicates, late=board.late,
                           checkpoints_loaded=len(resolved),
                           checkpoints_stored=stored)
                reassigned = board.reassignments
                duplicates = board.duplicates
                late = board.late
            if reassigned:
                obs.count("dist.leases.reassigned", reassigned)
            if duplicates:
                obs.count("dist.results.duplicate", duplicates)
            if late:
                obs.count("dist.results.late", late)
            if len(resolved):
                obs.count("runtime.checkpoints.loaded", len(resolved))
            if stored:
                obs.count("runtime.checkpoints.stored", stored)
        return outcome

    def _load_checkpoints(self, stage: str, shards: list[list],
                          partition: str, fingerprint: str, version: str,
                          params: str,
                          checkpointing: bool) -> dict[int, object]:
        """Resume: verified payloads for every checkpointed shard."""
        if not (checkpointing and self.config.resume):
            return {}
        hit, manifest = self._cache.load(
            supervisor.manifest_checkpoint_key(
                fingerprint, stage, version, params, partition),
            stage="manifest:%s" % stage)
        if hit:
            supervisor.validate_manifest(manifest, stage, partition,
                                         len(shards))
        resolved: dict[int, object] = {}
        for index in range(len(shards)):
            hit, envelope = self._cache.load(
                supervisor.shard_checkpoint_key(
                    fingerprint, stage, index, version, params,
                    partition),
                stage="shard:%s" % stage)
            if not hit or not isinstance(envelope, workers.ShardResult):
                continue
            try:
                resolved[index] = envelope.open_payload()
            except Exception:  # repro: noqa[RPR004] — a corrupt
                # checkpoint is a cache miss, never a run abort; the
                # shard simply gets recomputed.
                continue
        return resolved

    # -- connection handling --------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(target=self._serve_connection, args=(sock,),
                             daemon=True,
                             name="repro-dist-conn").start()

    def _serve_connection(self, sock: socket.socket) -> None:
        connection = _Connection(channel=Channel(sock))
        with self._lock:
            self._channels.add(connection.channel)
        try:
            while not connection.closing:
                message = connection.channel.recv()
                reply = self._dispatch(message, connection)
                if reply is not None:
                    connection.channel.send(reply)
                self._sync_bytes(connection)
        # A protocol violation (garbled frame) or socket error ends the
        # conversation; recovery happens through lease reassignment, so
        # dropping the connection is the whole remedy.
        except Exception:  # repro: noqa[RPR004]
            pass
        finally:
            self._sync_bytes(connection)
            with self._lock:
                self._channels.discard(connection.channel)
                if connection.worker_id and self._serving is not None:
                    lost = self._serving.board.disconnect(
                        connection.worker_id)
                    if lost:
                        obs.count("dist.workers.disconnects")
            connection.channel.close()

    def _sync_bytes(self, connection: _Connection) -> None:
        channel = connection.channel
        sent = channel.bytes_sent - connection.synced_sent
        received = channel.bytes_received - connection.synced_received
        if not sent and not received:
            return
        connection.synced_sent = channel.bytes_sent
        connection.synced_received = channel.bytes_received
        with self._lock:
            self.bytes_sent += sent
            self.bytes_received += received
            state = self._workers.get(connection.worker_id)
            if state is not None:
                state.bytes_sent += sent
                state.bytes_received += received
        if sent:
            obs.count("dist.bytes.sent", sent)
        if received:
            obs.count("dist.bytes.received", received)

    def _dispatch(self, message: object,
                  connection: _Connection) -> object | None:
        if isinstance(message, protocol.Hello):
            return self._on_hello(message, connection)
        if isinstance(message, protocol.Lease) and message.is_request:
            return self._on_lease_request(connection)
        if isinstance(message, protocol.Result):
            return self._on_result(message, connection)
        if isinstance(message, protocol.Heartbeat):
            with self._lock:
                state = self._workers.get(message.worker_id)
                if state is not None:
                    state.last_seen = time.monotonic()
            return protocol.Heartbeat(worker_id="coordinator",
                                      lease_id=message.lease_id)
        if isinstance(message, protocol.Drain):
            connection.closing = True
            return protocol.Drain(done=True, reason="goodbye")
        connection.closing = True
        return protocol.Drain(done=True,
                              reason="unexpected %s message"
                              % type(message).__name__)

    def _on_hello(self, hello: protocol.Hello,
                  connection: _Connection) -> object:
        with self._lock:
            runner = self._runner
        if runner is None:
            return protocol.Drain(done=False, reason="not ready",
                                  retry_after_s=self.config.poll_s)
        version = code_version()
        if hello.protocol_version != protocol.PROTOCOL_VERSION:
            connection.closing = True
            return protocol.Drain(
                done=True,
                reason="protocol version mismatch (worker %d, "
                       "coordinator %d)" % (hello.protocol_version,
                                            protocol.PROTOCOL_VERSION))
        if hello.code_version and hello.code_version != version:
            connection.closing = True
            return protocol.Drain(
                done=True,
                reason="code version mismatch: worker runs different "
                       "analysis code; shards from divergent code must "
                       "not merge")
        if hello.fingerprint and runner.fingerprint \
                and hello.fingerprint != runner.fingerprint:
            connection.closing = True
            return protocol.Drain(
                done=True,
                reason="bundle fingerprint mismatch: worker loaded a "
                       "different dataset")
        connection.worker_id = hello.worker_id
        with self._lock:
            if hello.worker_id not in self._workers:
                self._workers[hello.worker_id] = _WorkerState(
                    worker_id=hello.worker_id)
                obs.count("dist.workers.seen")
            self._workers[hello.worker_id].last_seen = time.monotonic()
        # pylint-style note: the reply carries the *coordinator's*
        # identity so the worker can verify symmetrically.
        min_connected = getattr(runner, "_min_connected", 0.0)
        return protocol.Hello(
            worker_id="coordinator",
            protocol_version=protocol.PROTOCOL_VERSION,
            code_version=version, fingerprint=runner.fingerprint,
            min_connected=min_connected, role="coordinator")

    def _on_lease_request(self, connection: _Connection) -> object:
        if not connection.worker_id:
            connection.closing = True
            return protocol.Drain(done=True, reason="HELLO first")
        with self._lock:
            if self._finished:
                return protocol.Drain(done=True, reason="run complete")
            serving = self._serving
            if serving is None:
                return protocol.Drain(done=False, reason="between stages",
                                      retry_after_s=self.config.poll_s)
            record = serving.board.lease(connection.worker_id)
            if record is None:
                return protocol.Drain(done=False, reason="no shard ready",
                                      retry_after_s=self.config.poll_s)
            state = self._workers[connection.worker_id]
            state.leases += 1
            cache_key = ""
            if serving.checkpointing:
                runner = self._runner
                cache_key = supervisor.shard_checkpoint_key(
                    runner.fingerprint, serving.stage,
                    record.shard_index, serving.version, serving.params,
                    serving.partition)
            lease = protocol.Lease(
                lease_id=record.lease_id, stage=serving.stage,
                shard_index=record.shard_index, attempt=record.attempt,
                items=tuple(serving.board.shards[record.shard_index]),
                deadline_s=self.config.lease_deadline_s,
                cache_key=cache_key)
        obs.count("dist.leases.granted")
        obs.count("dist.leases.worker.%s" % connection.worker_id)
        return lease

    def _on_result(self, result: protocol.Result,
                   connection: _Connection) -> object:
        ack = protocol.Heartbeat(worker_id="coordinator",
                                 lease_id=result.lease_id)
        store: tuple[str, workers.ShardResult] | None = None
        with self._lock:
            serving = self._serving
            state = self._workers.get(connection.worker_id)
            if state is not None:
                state.results += 1
                state.last_seen = time.monotonic()
            if serving is None or serving.stage != result.stage:
                # The stage already drained (a stale retry's result):
                # idempotently acknowledged, dropped from accounting.
                obs.count("dist.results.stray")
                return ack
            if result.error:
                serving.board.fail_lease(result.lease_id, result.error)
                return ack
            verdict = serving.board.submit(result.lease_id,
                                           result.envelope)
            if verdict in ("resolved", "late"):
                if state is not None and result.cache_hit:
                    state.cache_hits += 1
                if serving.checkpointing and not result.cache_hit:
                    runner = self._runner
                    key = supervisor.shard_checkpoint_key(
                        runner.fingerprint, serving.stage,
                        result.envelope.shard_index, serving.version,
                        serving.params, serving.partition)
                    store = (key, result.envelope)
                    serving.checkpoints_stored += 1
        if store is not None:
            # Store outside the cluster lock: disk latency must not
            # stall lease grants for every other worker.
            self._cache.store(store[0], store[1])
        if result.cache_hit:
            obs.count("dist.results.cache_hits")
        return ack


class DistRunner(ShardedRunner):
    """A :class:`ShardedRunner` whose fan-out stages go over the wire."""

    def __init__(self, server: LeaseServer, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._server = server
        server.bind(self)

    def _new_report(self) -> RunReport:
        # Workers are not local processes: the pool path's
        # oversubscription warning would be meaningless here.
        return RunReport(
            jobs=self.config.jobs, fingerprint=self.fingerprint,
            cpu_count=os.cpu_count() or 1, oversubscribed=False,
            start_method=None)

    def _stage_payloads(self, stage: str, shards: list[list],
                        probe_of=lambda item: item) -> list:
        outcome = self._server.serve_stage(
            stage, shards, probe_of, tainted=self.report.degraded,
            version=self._version, params=self._params)
        self.report.resilience.append(outcome.resilience)
        return [payload for payload in outcome.payloads
                if payload is not None]


def dist_runner_for_bundle(bundle, config: DistConfig,
                           server: LeaseServer | None = None,
                           min_connected: float | None = None
                           ) -> DistRunner:
    """Coordinator runner over a loaded bundle (mirrors
    :func:`repro.runtime.executor.runner_for_bundle`)."""
    if server is None:
        server = LeaseServer(config)
    if min_connected is None:
        window = bundle.end - bundle.start
        min_connected = min(30 * timeutil.DAY, window / 10)
    return DistRunner(
        server, bundle.connlog, bundle.archive, bundle.kroot,
        bundle.uptime, bundle.ip2as, as_names=bundle.as_names,
        as_countries=bundle.as_countries, min_connected=min_connected,
        fingerprint=bundle.fingerprint, config=config.runtime_config())


def dist_runner_for_world(world, config: DistConfig,
                          server: LeaseServer | None = None,
                          min_connected: float | None = None
                          ) -> DistRunner:
    """Coordinator runner over an in-memory simulated world (mirrors
    :func:`repro.runtime.executor.runner_for_world`)."""
    from repro.runtime.executor import world_fingerprint
    if server is None:
        server = LeaseServer(config)
    as_names: dict[int, str] = {}
    as_countries: dict[int, str] = {}
    for profile in world.config.profiles:
        as_names[profile.spec.asn] = profile.spec.name
        as_countries[profile.spec.asn] = profile.spec.country
    if min_connected is None:
        window = world.config.end - world.config.start
        min_connected = min(30 * timeutil.DAY, window / 10)
    return DistRunner(
        server, world.connlog, world.archive, world.kroot, world.uptime,
        world.ip2as, as_names=as_names, as_countries=as_countries,
        min_connected=min_connected,
        fingerprint=world_fingerprint(world.config),
        config=config.runtime_config())
