"""Process-pool worker side of the sharded executor.

Each worker process receives the full dataset context once (via the pool
initializer), builds the columnar views of it, and then serves shard
tasks that are nothing but probe-id lists, keeping per-task pickling
traffic tiny.  Every task runs the same columnar kernels the serial path
runs, over its shard of probes, so each payload is exactly the slice of
the serial result it stands for.

Results cross the process boundary inside a *sealed* :class:`ShardResult`
envelope: the payload is pickled worker-side and stamped with its content
fingerprint, so the supervisor (or the dist coordinator) can detect a
corrupted envelope before a bad payload reaches the merge, and
retry the shard instead of poisoning the run.  Workers also register a
heartbeat file on their first task — the supervisor uses the registry
both as a liveness signal and as the pid list to ``SIGKILL`` when it must
tear down a hung pool.

Everything here must stay importable at module top level (the pool
pickles task functions by qualified name) and free of global randomness;
any future stochastic stage must draw from
:func:`repro.util.rng.substream` keyed on the scenario seed and probe id,
never from process-local state, or ``jobs=N`` output would diverge from
``jobs=1``.  Process-fault injection (``repro.faults.process``) arrives
as an inert plan object inside :class:`WorkerContext` — this module only
asks it *whether* to fail and interprets the answer, so the faults layer
never needs to import the runtime it sabotages.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.atlas.archive import ProbeArchive
from repro.atlas.columnar import ColumnarConnlog, ColumnarUptime
from repro.atlas.connlog import ConnectionLog
from repro.atlas.kroot import KRootDataset
from repro.atlas.sosuptime import UptimeDataset
from repro.core import colkernels
from repro.core.reboots import Reboot
from repro.errors import EnvelopeCorruptError
from repro.net.pfx2as import IpToAsDataset
from repro.util import fingerprint as fp
from repro.util import timeutil

#: Fault-kind strings this module knows how to act on, mirroring the
#: ``repro.faults.injectors.FaultKind`` process values (kept as strings
#: so the plan object stays duck-typed and layer-inert).
FAULT_WORKER_CRASH = "worker-crash"
FAULT_WORKER_HANG = "worker-hang"
FAULT_WORKER_SLOW = "worker-slow"
FAULT_ENVELOPE_CORRUPT = "envelope-corrupt"


@dataclass
class WorkerContext:
    """Everything a worker needs, shipped once per process.

    ``heartbeat_dir`` and ``fault_plan`` are supervision extras: the
    directory the worker registers its liveness file in, and an inert
    process-fault plan (``fault_at(stage, shard_index, attempt)`` duck
    type) consulted once per shard task.  Both default off.
    """

    __wire_contract__ = "worker-context"

    connlog: ConnectionLog
    archive: ProbeArchive
    ip2as: IpToAsDataset
    kroot: KRootDataset
    uptime: UptimeDataset
    min_connected: float
    heartbeat_dir: str | None = None
    fault_plan: object | None = None
    #: Always true: workers serve every shard through the columnar
    #: kernels.  Kept only so existing callers that pass it still work;
    #: ``False`` is rejected.
    columnar: bool = True

    def __post_init__(self) -> None:
        if not self.columnar:
            raise ValueError("workers always run the columnar kernels; "
                             "columnar=False is not supported")


@dataclass(frozen=True)
class Heartbeat:
    """One worker's liveness record, serialized into its heartbeat file.

    The supervisor reads these files for two things: mtime freshness
    (liveness) and the pid to ``SIGKILL`` when tearing down a hung pool
    — so the payload crosses a process/persistence boundary and is a
    wire contract (RPR010).
    """

    __wire_contract__ = "worker-heartbeat"

    pid: int
    seq: int

    def to_json(self) -> str:
        return json.dumps({"pid": self.pid, "seq": self.seq})

    @classmethod
    def from_json(cls, text: str) -> "Heartbeat":
        payload = json.loads(text)
        return cls(pid=int(payload["pid"]), seq=int(payload["seq"]))


@dataclass
class ShardResult:
    """One shard task's sealed payload plus the observability it generated.

    Worker processes cannot write to the driver's span collector or
    metrics registry, so each task drains its process-local stores into
    this envelope; the executor absorbs them in shard order, which keeps
    the merged trace deterministic regardless of worker scheduling.

    The payload is shipped as pickle bytes stamped with their SHA-256
    ``seal``: :meth:`open_payload` re-hashes on the parent side and
    raises :class:`~repro.errors.EnvelopeCorruptError` on mismatch, so a
    corrupted envelope is detected *before* its payload reaches the
    ordered merge.  ``shard_index``/``attempt`` identify the task for
    supervision bookkeeping.  The payload itself stays exactly what the
    pure kernels computed — instrumentation and sealing wrap the
    kernels, they never reach inside them.
    """

    __wire_contract__ = "shard-result"

    shard_index: int
    attempt: int
    payload_pickle: bytes
    seal: str
    spans: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @classmethod
    def sealed(cls, payload: object, shard_index: int = 0,
               attempt: int = 0) -> "ShardResult":
        """Seal a payload with this task's spans and metrics."""
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        return cls(shard_index=shard_index, attempt=attempt,
                   payload_pickle=blob, seal=fp.hash_bytes(blob),
                   spans=obs.drain_spans(), metrics=obs.metrics().drain())

    def open_payload(self) -> object:
        """Verify the seal and unpickle the payload."""
        if fp.hash_bytes(self.payload_pickle) != self.seal:
            raise EnvelopeCorruptError(
                "shard %d attempt %d: result envelope failed its "
                "integrity seal" % (self.shard_index, self.attempt))
        return pickle.loads(self.payload_pickle)


_context: WorkerContext | None = None
_heartbeat_pid: int | None = None
_colconn: ColumnarConnlog | None = None
_colup: ColumnarUptime | None = None


def init_worker(context: WorkerContext) -> None:
    """Install the dataset context in this process.

    With a ``fork`` multiprocessing context the executor calls this in
    the *parent* before creating the pool — children inherit the
    installed context through fork, skipping a per-worker pickle of the
    full datasets.  Under ``spawn`` it runs as the pool initializer.
    (Heartbeat registration is deliberately *not* done here: a thread
    started parent-side would not survive the fork, so workers register
    lazily on their first task instead.)
    """
    global _context, _heartbeat_pid, _colconn, _colup
    _context = context
    # Build the columnar views eagerly: under fork this runs in the
    # parent, so every worker inherits the arrays by page sharing
    # instead of rebuilding them per process.
    _colconn = ColumnarConnlog.from_connlog(context.connlog)
    _colup = ColumnarUptime.from_uptime(context.uptime)
    # Heartbeat registration state is initializer-owned like the rest of
    # the per-process globals; actual registration happens lazily on the
    # first task (a thread started here would not survive fork).
    _heartbeat_pid = None


def reset_worker() -> None:
    """Drop the installed context (parent-side cleanup after a run)."""
    global _context, _heartbeat_pid, _colconn, _colup
    _context = None
    _heartbeat_pid = None
    _colconn = None
    _colup = None


def _require_context() -> WorkerContext:
    if _context is None:
        raise RuntimeError(
            "worker context not initialized; shard tasks must run in a "
            "pool created with initializer=init_worker")
    return _context


# -- heartbeats --------------------------------------------------------------

def heartbeat_path(directory: str | Path, pid: int) -> Path:
    """The liveness file one worker pid writes (and the parent reads)."""
    return Path(directory) / ("hb-%d.json" % pid)


def _beat_forever(directory: str, pid: int) -> None:
    """Daemon-thread body: refresh this worker's heartbeat file."""
    seq = 0
    while True:
        seq += 1
        try:
            heartbeat_path(directory, pid).write_text(
                Heartbeat(pid=pid, seq=seq).to_json())
        except OSError:
            # Spool removed mid-teardown: nothing left to signal.
            return
        time.sleep(timeutil.HEARTBEAT_INTERVAL_S)


def _ensure_heartbeat(context: WorkerContext) -> None:
    """Register this process in the heartbeat spool, once per process.

    Runs worker-side on the first shard task (never in the parent, which
    dispatches but does not serve tasks) so it works identically under
    fork — where threads do not survive into the child — and spawn.
    """
    global _heartbeat_pid
    if context.heartbeat_dir is None or _heartbeat_pid == os.getpid():
        return
    pid = os.getpid()
    heartbeat_path(context.heartbeat_dir, pid).write_text(
        Heartbeat(pid=pid, seq=0).to_json())
    threading.Thread(target=_beat_forever,
                     args=(context.heartbeat_dir, pid),
                     daemon=True).start()
    _heartbeat_pid = pid


# -- fault injection (supervised runs only) ----------------------------------

def _inject_preflight(stage: str, shard_index: int, attempt: int) -> None:
    """Act on a crash/hang/slow fault the installed plan placed here.

    Crash and hang are destructive-by-construction: ``SIGKILL`` cannot be
    caught and the hang outsleeps any sane deadline, so recovery can only
    come from the supervisor — exactly what the fault matrix must prove.
    """
    plan = _context.fault_plan if _context is not None else None
    if plan is None:
        return
    kind = plan.fault_at(stage, shard_index, attempt)
    if kind == FAULT_WORKER_CRASH:
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == FAULT_WORKER_HANG:
        time.sleep(timeutil.HOUR)
    elif kind == FAULT_WORKER_SLOW:
        time.sleep(float(getattr(plan, "slow_delay_s", 0.05)))


def _inject_envelope(envelope: ShardResult, stage: str, shard_index: int,
                     attempt: int) -> ShardResult:
    """Flip a payload byte if the plan corrupts this envelope.

    The seal is computed *before* the flip, so the parent-side
    :meth:`ShardResult.open_payload` check is guaranteed to fire — the
    corruption is detectable by construction, never silent.
    """
    plan = _context.fault_plan if _context is not None else None
    if plan is None or not envelope.payload_pickle:
        return envelope
    if plan.fault_at(stage, shard_index, attempt) != FAULT_ENVELOPE_CORRUPT:
        return envelope
    blob = envelope.payload_pickle
    envelope.payload_pickle = blob[:-1] + bytes([blob[-1] ^ 0xFF])
    return envelope


# -- shard kernels (payload = exactly what the serial path computes) ---------

def _filter_payload(probe_ids: list[int]) -> dict:
    context = _require_context()
    # Slim verdicts (no entry lists) cross the process boundary: no
    # stage downstream of the filter reads them.
    return colkernels.classify_probes(
        _colconn, context.connlog, context.archive, context.ip2as,
        context.min_connected, probe_ids, with_entries=False)


def _spans_payload(probe_ids: list[int]) -> dict:
    context = _require_context()
    return colkernels.probe_spans_col(_colconn, context.connlog, probe_ids)


def _reboots_payload(probe_ids: list[int]) -> dict:
    _require_context()
    return colkernels.detect_reboots_col(_colup, probe_ids)


def _gaps_payload(items: list[tuple[int, list[Reboot]]]) -> dict:
    context = _require_context()
    return colkernels.gap_events_col(_colconn, context.kroot, items)


#: Task registry: the supervisor dispatches shards by stage name, so the
#: pickled task payload is ``(name, shard, index, attempt)`` instead of a
#: per-stage callable.
SHARD_TASKS = {
    "filter": _filter_payload,
    "spans": _spans_payload,
    "reboots": _reboots_payload,
    "gaps": _gaps_payload,
}


def run_shard(task_name: str, shard: list, shard_index: int = 0,
              attempt: int = 0) -> ShardResult:
    """Serve one shard task: heartbeat, (maybe) fault, compute, seal."""
    context = _require_context()
    _ensure_heartbeat(context)
    _inject_preflight(task_name, shard_index, attempt)
    kernel = SHARD_TASKS[task_name]
    with obs.span("shard:%s" % task_name, category="shard",
                  stage=task_name, items=len(shard), attempt=attempt):
        payload = kernel(shard)
    obs.count("runtime.worker.tasks")
    envelope = ShardResult.sealed(payload, shard_index, attempt)
    return _inject_envelope(envelope, task_name, shard_index, attempt)
