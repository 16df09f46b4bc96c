"""Content-addressed artifact cache for stage outputs.

An artifact is one stage's output bundle, pickled to disk under a key
derived from everything the output is a function of::

    key = H(bundle fingerprint, stage name, code version, parameters)

*Bundle fingerprint* is the content hash :mod:`repro.sim.io` computes
over the dataset files at load time; *code version* hashes the source of
every package that can influence stage results, so editing an analysis
function invalidates the cache without any manual version bump; the
*parameters* token covers scalar knobs such as ``min_connected``.  Keys
say nothing about ``jobs`` or shard counts — the executor guarantees
those do not change outputs, so a cache written by a parallel run warms
a serial one and vice versa.

The store is a flat directory of ``<key-prefix>/<key>.pkl`` files with
atomic writes (temp file + rename), corrupt-entry self-healing (a
truncated pickle is treated as a miss and deleted), and LRU eviction by
access time once the store exceeds ``max_bytes``.

Columnar sidecars: output values registered with
:mod:`repro.util.colpack` are not pickled at all — each is written as a
``<key>.<name>.col`` container next to the entry's pickle, which holds a
:class:`ColumnarSidecarRef` placeholder instead.  Loads resolve the
placeholders via :func:`colpack.load_object`, memory-mapping the columns
so a warm run faults in only what it touches.  An entry and its sidecars
live and die together: eviction, healing and ``clear`` treat them as one
group, and a missing/corrupt/unreadable sidecar heals the whole entry
into a miss.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import repro
from repro.util import colpack
from repro.util import fingerprint as fp

#: Packages whose source feeds the code-version hash: everything at or
#: below ``core`` in the layer DAG that analysis results flow through,
#: plus this package (executor/merge logic) and ``dist`` (the socket
#: execution tier decides which result envelope resolves each shard, and
#: its checkpoints must not survive a protocol change).
CODE_VERSION_PACKAGES = ("errors.py", "util", "net", "atlas", "core",
                         "runtime", "dist")

#: Default store budget; a paper-scale bundle's artifacts are ~tens of MB.
DEFAULT_MAX_BYTES = 2 * 1024 ** 3

#: Cached artifacts outlive the process that wrote them, and the key
#: semantics are defined by which packages feed the code-version hash —
#: so that set is a wire contract (RPR010): growing or shrinking it
#: changes what invalidates the cache and must be a reviewed, versioned
#: event in ``wire-contracts.json``.
__wire_contract__ = {"cache-entry": ("CODE_VERSION_PACKAGES",)}


class ColumnarSidecarRef:
    """Pickled placeholder for a value stored as a ``.col`` sidecar file.

    Appears inside cached artifact dicts on disk, read back by later
    runs of different processes — a wire contract (RPR010).
    """

    __wire_contract__ = "columnar-sidecar-ref"

    def __init__(self, name: str) -> None:
        #: The output name within the artifact dict (doubles as the
        #: sidecar file-name component).
        self.name = name


@lru_cache(maxsize=1)
def code_version() -> str:
    """Fingerprint of the analysis-relevant source tree.

    Hashed once per process: the set of ``.py`` files (sorted by
    package-relative path) and their contents under
    :data:`CODE_VERSION_PACKAGES`.
    """
    root = Path(repro.__file__).parent
    paths: list[Path] = []
    for name in CODE_VERSION_PACKAGES:
        target = root / name
        if target.is_file():
            paths.append(target)
        else:
            paths.extend(sorted(target.rglob("*.py")))
    return fp.hash_files(paths)


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache handle's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evicted: int = 0
    #: Corrupt entries deleted and served as misses (self-healing).
    healed: int = 0
    #: Cumulative artifact bytes written by this handle.
    bytes_stored: int = 0
    #: Stage names served from cache, in lookup order.
    hit_stages: list[str] = field(default_factory=list)
    miss_stages: list[str] = field(default_factory=list)


@dataclass
class _Group:
    """One cache entry on disk: its pickle plus columnar sidecars."""

    pickle: Path | None = None
    mtime: float = 0.0
    #: Bytes of every member file.
    size: int = 0
    members: list[Path] = field(default_factory=list)


class ArtifactCache:
    """Disk-backed, content-addressed store for pickled stage outputs."""

    def __init__(self, directory: str | Path,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def key(bundle_fingerprint: str, stage: str, version: str,
            params: str) -> str:
        """Content address of one stage's outputs."""
        return fp.combine(bundle_fingerprint, stage, version, params)

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / (key + ".pkl")

    def _sidecar(self, key: str, name: str) -> Path:
        return self.directory / key[:2] / ("%s.%s.col" % (key, name))

    @staticmethod
    def _group(path: Path) -> list[Path]:
        """The entry's pickle plus its columnar sidecars, pickle first.

        Keys are hex digests, so ``path.stem`` is glob-safe.
        """
        return [path] + sorted(path.parent.glob(path.stem + ".*.col"))

    def _heal(self, path: Path, stage: str, key: str) -> tuple[bool, object]:
        """Delete a broken entry (with sidecars) and serve a miss."""
        for member in self._group(path):
            member.unlink(missing_ok=True)
        # Same confinement argument as the eviction counter below: each
        # runner owns a private handle, and dist-side loads all run under
        # the coordinator's cluster lock.
        self.stats.healed += 1  # repro: noqa[RPR011] -- per-handle accounting; dist accesses are serialized by the coordinator's cluster lock, runtime handles are main-thread-only
        self.stats.misses += 1
        self.stats.miss_stages.append(stage or key)
        return False, None

    # -- store/load ---------------------------------------------------------

    def load(self, key: str, stage: str = "") -> tuple[bool, object]:
        """Fetch an artifact; ``(False, None)`` on miss or corruption."""
        path = self._path(key)
        try:
            with open(path, "rb") as stream:
                value = pickle.load(stream)
        except FileNotFoundError:
            self.stats.misses += 1
            self.stats.miss_stages.append(stage or key)
            return False, None
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError):
            # A truncated or stale entry (e.g. a class that no longer
            # unpickles) must behave exactly like a miss.
            return self._heal(path, stage, key)
        try:
            value = self._resolve_sidecars(key, value)
        except (colpack.ColpackError, OSError):
            # A truncated or missing sidecar: the whole entry behaves
            # like a miss.
            return self._heal(path, stage, key)
        os.utime(path)  # refresh LRU access time
        self.stats.hits += 1
        self.stats.hit_stages.append(stage or key)
        return True, value

    def _resolve_sidecars(self, key: str, value: object) -> object:
        """Swap :class:`ColumnarSidecarRef` placeholders for mmap'd objects."""
        if not isinstance(value, dict):
            return value
        resolved = None
        for name, item in value.items():
            if isinstance(item, ColumnarSidecarRef):
                if resolved is None:
                    resolved = dict(value)
                resolved[name] = colpack.load_object(
                    self._sidecar(key, item.name))
        return value if resolved is None else resolved

    def store(self, key: str, value: object) -> None:
        """Write an artifact atomically, then enforce the size budget.

        Colpack-registered values inside a dict artifact go to ``.col``
        sidecars (written first — the pickle's rename publishes the
        entry, and healing covers a crash in between).
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(value, dict):
            slim = None
            for name, item in value.items():
                if colpack.schema_of(item) is not None:
                    if slim is None:
                        slim = dict(value)
                    self.stats.bytes_stored += colpack.write_object(
                        self._sidecar(key, name), item)
                    slim[name] = ColumnarSidecarRef(name)
            if slim is not None:
                value = slim
        tmp = path.with_suffix(".tmp.%d" % os.getpid())
        with open(tmp, "wb") as stream:
            pickle.dump(value, stream, protocol=pickle.HIGHEST_PROTOCOL)
        self.stats.bytes_stored += tmp.stat().st_size
        os.replace(tmp, path)
        self.stats.stores += 1
        self.evict()

    # -- maintenance --------------------------------------------------------

    def _scan(self) -> dict[str, _Group]:
        """One directory pass: every entry's files and bytes, by key.

        Files that vanish between listing and ``stat`` (a concurrent run
        evicting) are simply skipped.  A key whose pickle is gone keeps
        a group with ``pickle`` unset: orphaned sidecars count toward
        :meth:`total_bytes` but are no eviction candidate.
        """
        groups: dict[str, _Group] = {}
        with os.scandir(self.directory) as buckets:
            for bucket in buckets:
                if bucket.name.startswith(".") or not bucket.is_dir():
                    continue
                with os.scandir(bucket.path) as files:
                    for entry in files:
                        name = entry.name
                        if name.startswith("."):
                            continue
                        if name.endswith(".pkl"):
                            key = name[:-4]
                        elif name.endswith(".col"):
                            key = name.split(".", 1)[0]
                        else:
                            continue
                        try:
                            stat = entry.stat()
                        except FileNotFoundError:
                            continue
                        group = groups.get(key)
                        if group is None:
                            group = groups[key] = _Group()
                        group.size += stat.st_size
                        group.members.append(Path(entry.path))
                        if name.endswith(".pkl"):
                            group.pickle = Path(entry.path)
                            group.mtime = stat.st_mtime
        return groups

    @staticmethod
    def _lru(groups: dict[str, _Group]) -> list[_Group]:
        """Entries with a pickle, oldest access first.

        Ties on ``st_mtime`` — common on filesystems with coarse
        timestamp granularity — break on the file name so the order
        stays deterministic.
        """
        entries = [group for group in groups.values()
                   if group.pickle is not None]
        entries.sort(key=lambda group: (group.mtime, group.pickle.name))
        return entries

    def entries(self) -> list[Path]:
        """All artifact files, oldest access first."""
        return [group.pickle for group in self._lru(self._scan())]

    def total_bytes(self) -> int:
        """Bytes currently stored (pickles and columnar sidecars)."""
        return sum(group.size for group in self._scan().values())

    def evict(self) -> int:
        """Drop least-recently-used artifacts until under ``max_bytes``.

        "Recently used" is ``st_mtime``, which :meth:`load` refreshes via
        ``os.utime`` on every hit — so an entry a warm run just served is
        the *last* eviction candidate even though it was written first.
        An entry's sidecars count toward its size and are removed with
        it.  A store within budget costs one directory pass.
        """
        groups = self._scan()
        total = sum(group.size for group in groups.values()
                    if group.pickle is not None)
        if total <= self.max_bytes:
            return 0
        removed = 0
        for group in self._lru(groups):
            if total <= self.max_bytes:
                break
            total -= group.size
            for member in group.members:
                member.unlink(missing_ok=True)
            removed += 1
        # Each runner owns a private cache handle: ShardedRunner touches
        # it from the main thread only, and in dist mode every access is
        # inside LeaseServer._on_result, which holds the cluster RLock —
        # the two roles never share one instance.
        self.stats.evicted += removed  # repro: noqa[RPR011] -- per-handle accounting; dist accesses are serialized by the coordinator's cluster lock, runtime handles are main-thread-only
        return removed

    def clear(self) -> int:
        """Remove every artifact (``repro-run --clear-cache``)."""
        removed = 0
        for path in self.entries():
            for member in self._group(path):
                member.unlink(missing_ok=True)
            removed += 1
        # Orphaned sidecars (their pickle healed away separately).
        for path in self.directory.glob("*/*.col"):
            path.unlink(missing_ok=True)
        return removed
