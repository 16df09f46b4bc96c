"""Columnar result tables: what the fan-out stages emit (DESIGN.md §21).

The four per-probe stages — ``filter``, ``spans``, ``reboots`` and
``gaps`` — emit one table each, straight from the connection-log and
uptime columns.  The same table is a shard's payload in the pool and on
the dist socket (``colpack`` bytes inside a sealed envelope), the stage
output the executor merges by concatenation, the artifact the cache
stores as a memory-mapped ``.col`` sidecar, and what the results digest
is written from.  Per-record objects (``AddressSpan``, ``AddressChange``,
``GapEvent``, ``Reboot``, ``ProbeVerdict``) are built only when a driver
asks for a per-probe dict, through :meth:`to_map` / :meth:`to_report`.

Every table has the same CSR layout: one row per probe (``probe_ids``
plus per-probe columns, in the order the kernel visited the probes) and
an offsets column slicing the flat per-item columns.  The kernels visit
probes in sorted order and shards are contiguous chunks of sorted ids,
so concatenating shard tables in shard order is the whole-run table.
Column dtypes are declared per class; categorical codes index a name
list carried in ``meta``, so a stored table stays self-describing if an
enum ever gains members.

The registered classes persist across processes and code versions, so
each is a wire contract (RPR010).
"""

from __future__ import annotations

import numpy as np

from repro.core.association import GapCause, GapEvent
from repro.core.changes import AddressChange, AddressSpan
from repro.core.filtering import (
    FilterReport,
    ProbeCategory,
    ProbeVerdict,
    table2_rows,
)
from repro.core.reboots import Reboot
from repro.net.ipv4 import IPv4Address
from repro.util import colpack


def _addresses(*columns: np.ndarray) -> dict[int, IPv4Address]:
    """One shared ``IPv4Address`` per distinct value in ``columns``.

    Decoding builds one address object per *distinct* value instead of
    one per row — addresses repeat heavily across spans and changes,
    and the class is frozen, so sharing is safe.
    """
    values = np.unique(np.concatenate(columns)).tolist()
    return {value: IPv4Address(value) for value in values}


def csr_offsets(counts) -> np.ndarray:
    """CSR offsets (``[0, c0, c0+c1, ...]``) of per-row item counts."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def csr_expand(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray,
                                                         np.ndarray]:
    """The indexes of the ranges ``[lo[k], hi[k])`` laid end to end.

    Returns ``(indexes, offsets)``: ``offsets`` slices ``indexes`` back
    into one range per ``k``.  Empty ranges (``hi <= lo``) contribute
    nothing but keep their row.
    """
    counts = np.maximum(hi - lo, 0)
    offsets = csr_offsets(counts)
    indexes = (np.arange(offsets[-1], dtype=np.int64)
               + np.repeat(lo - offsets[:-1], counts))
    return indexes, offsets


class _Table:
    """Shared plumbing of the per-probe CSR tables.

    ``ROWS`` and ``ITEMS`` declare the per-probe and per-item columns
    with their dtypes (``probe_ids`` is always the first row column);
    ``OFFSETS`` names the offsets column.
    """

    ROWS: dict = {"probe_ids": np.int64}
    ITEMS: dict = {}
    OFFSETS = "offsets"

    __hash__ = None  # mutable-by-convention containers compare by value

    def __init__(self, meta: dict, columns: dict) -> None:
        self.meta = meta
        self.columns = columns

    # -- codec ---------------------------------------------------------------

    def to_columns(self):
        return self.meta, self.columns

    @classmethod
    def from_columns(cls, meta, columns):
        return cls(meta, columns)

    # -- construction ---------------------------------------------------------

    @classmethod
    def default_meta(cls) -> dict:
        return {}

    @classmethod
    def build(cls, counts, meta: dict | None = None,
              **columns) -> "_Table":
        """A table from per-row item ``counts`` and every declared
        column, each cast to its declared dtype."""
        table = {name: np.asarray(columns[name], dtype=dtype)
                 for name, dtype in (*cls.ROWS.items(), *cls.ITEMS.items())}
        table[cls.OFFSETS] = csr_offsets(np.asarray(counts, dtype=np.int64))
        return cls(cls.default_meta() if meta is None else meta, table)

    @classmethod
    def empty(cls) -> "_Table":
        return cls.build([], **{name: () for name in (*cls.ROWS,
                                                      *cls.ITEMS)})

    @classmethod
    def concat(cls, parts) -> "_Table":
        """Tables laid end to end, rows in ``parts`` order.

        This is the shard merge: per-shard kernel tables concatenated in
        shard order equal one kernel call over the whole probe list.
        """
        parts = list(parts)
        if not parts:
            return cls.empty()
        meta = parts[0].meta
        for part in parts[1:]:
            if part.meta != meta:
                raise ValueError("cannot concatenate %s tables with "
                                 "different meta" % (cls.__name__,))
        columns = {name: np.concatenate([part.columns[name]
                                         for part in parts])
                   for name in (*cls.ROWS, *cls.ITEMS)}
        counts = np.concatenate([part.counts() for part in parts])
        return cls.build(counts, meta, **columns)

    # -- access ---------------------------------------------------------------

    @property
    def probe_ids(self) -> np.ndarray:
        return self.columns["probe_ids"]

    @property
    def offsets(self) -> np.ndarray:
        return self.columns[self.OFFSETS]

    def counts(self) -> np.ndarray:
        """Items per row."""
        return np.diff(self.offsets)

    def item_rows(self) -> np.ndarray:
        """The row index of every item."""
        return np.repeat(np.arange(len(self), dtype=np.int64),
                         self.counts())

    def item_positions(self) -> np.ndarray:
        """Every item's position within its row."""
        offsets = self.offsets
        return (np.arange(offsets[-1], dtype=np.int64)
                - np.repeat(offsets[:-1], self.counts()))

    def __len__(self) -> int:
        return len(self.probe_ids)

    def __eq__(self, other: object) -> bool:
        """Same type, meta and columns, compared bit for bit."""
        if type(other) is not type(self):
            return NotImplemented
        if self.meta != other.meta \
                or self.columns.keys() != other.columns.keys():
            return False
        for name, column in self.columns.items():
            theirs = other.columns[name]
            if column.dtype != theirs.dtype or column.shape != theirs.shape \
                    or column.tobytes() != theirs.tobytes():
                return False
        return True

    def __repr__(self) -> str:
        return "%s(%d probes, %d items)" % (type(self).__name__, len(self),
                                            int(self.offsets[-1]))

    def _slices(self):
        """``(probe id, lo, hi)`` per row, as native ints."""
        offsets = self.offsets.tolist()
        for row, pid in enumerate(self.probe_ids.tolist()):
            yield pid, offsets[row], offsets[row + 1]


@colpack.register
class ColumnarFilterArtifact(_Table):
    """Stage ``filter``: one row per classified probe (Table 2).

    ``asns`` uses ``-1`` for "no single AS"; ``change_within`` flags the
    changes whose endpoints map to the same AS.  The query methods
    mirror :class:`~repro.core.filtering.FilterReport`'s, computed from
    the columns; :meth:`to_report` builds the report itself.
    """

    __columnar__ = "filter-artifact-columnar"
    __wire_contract__ = "filter-artifact-columnar"

    ROWS = {"probe_ids": np.int64, "categories": np.uint8,
            "multi_as": np.uint8, "asns": np.int64}
    ITEMS = {"change_old": np.uint32, "change_new": np.uint32,
             "change_gap_start": np.float64, "change_gap_end": np.float64,
             "change_within": np.uint8}
    OFFSETS = "change_offsets"

    @classmethod
    def default_meta(cls) -> dict:
        return {"categories": [category.name for category in ProbeCategory]}

    def _code(self, category: ProbeCategory) -> int:
        return self.meta["categories"].index(category.name)

    def _ids(self, mask: np.ndarray) -> list[int]:
        return sorted(self.probe_ids[mask].tolist())

    def _analyzable(self) -> np.ndarray:
        return self.columns["categories"] == self._code(
            ProbeCategory.ANALYZABLE)

    def _single_as(self) -> np.ndarray:
        return self._analyzable() & (self.columns["multi_as"] == 0)

    # -- the FilterReport queries --------------------------------------------

    @property
    def total(self) -> int:
        """Probes classified, short-lived ones excluded (Table 2)."""
        return int(np.count_nonzero(self.columns["categories"] != self._code(
            ProbeCategory.SHORT_LIVED)))

    def count(self, category: ProbeCategory) -> int:
        return int(np.count_nonzero(
            self.columns["categories"] == self._code(category)))

    def analyzable_geo(self) -> list[int]:
        return self._ids(self._analyzable())

    def analyzable_as(self) -> list[int]:
        return self._ids(self._single_as())

    def multi_as_probes(self) -> list[int]:
        return self._ids(self._analyzable() & (self.columns["multi_as"] != 0))

    def table2_rows(self) -> list[tuple[str, int]]:
        return table2_rows(self)

    # -- derived tables ---------------------------------------------------------

    def single_as_changes(self) -> tuple["ColumnarChangeMap",
                                         dict[int, int]]:
        """Changes and home AS of every single-AS probe, sorted by id.

        A single-AS probe is analyzable, never crossed an AS boundary
        and has an origin AS for its first address.
        """
        rows = np.nonzero(self._single_as() & (self.columns["asns"] >= 0))[0]
        rows = rows[np.argsort(self.probe_ids[rows], kind="stable")]
        offsets = self.offsets
        items, _ = csr_expand(offsets[rows], offsets[rows + 1])
        pick = {name: self.columns["change_" + name][items]
                for name in ("old", "new", "gap_start", "gap_end")}
        changes = ColumnarChangeMap.build(
            self.counts()[rows], probe_ids=self.probe_ids[rows], **pick)
        asn_by_probe = dict(zip(self.probe_ids[rows].tolist(),
                                self.columns["asns"][rows].tolist()))
        return changes, asn_by_probe

    def to_report(self) -> FilterReport:
        """The report as objects, rows in table order (no entry lists)."""
        categories = [ProbeCategory[name]
                      for name in self.meta["categories"]]
        codes = self.columns["categories"].tolist()
        multi = self.columns["multi_as"].tolist()
        asns = self.columns["asns"].tolist()
        old_addrs = self.columns["change_old"].tolist()
        new_addrs = self.columns["change_new"].tolist()
        gap_starts = self.columns["change_gap_start"].tolist()
        gap_ends = self.columns["change_gap_end"].tolist()
        within_flags = self.columns["change_within"].tolist()
        addr = _addresses(self.columns["change_old"],
                          self.columns["change_new"])
        verdicts: dict[int, ProbeVerdict] = {}
        for row, (pid, lo, hi) in enumerate(self._slices()):
            changes = [AddressChange(pid,
                                     addr[old_addrs[index]],
                                     addr[new_addrs[index]],
                                     gap_starts[index], gap_ends[index])
                       for index in range(lo, hi)]
            verdicts[pid] = ProbeVerdict(
                probe_id=pid,
                category=categories[codes[row]],
                changes=changes,
                within_as_changes=[changes[index - lo]
                                   for index in range(lo, hi)
                                   if within_flags[index]],
                multi_as=bool(multi[row]),
                asn=None if asns[row] < 0 else asns[row])
        return FilterReport(verdicts=verdicts, total=self.total)


@colpack.register
class ColumnarSpanMap(_Table):
    """Stage ``spans``: ``spans_by_probe`` (``dict[int,
    list[AddressSpan]]``) as columns."""

    __columnar__ = "span-map-columnar"
    __wire_contract__ = "span-map-columnar"

    ITEMS = {"address": np.uint32, "start": np.float64, "end": np.float64,
             "complete_start": np.uint8, "complete_end": np.uint8}

    def durations(self) -> "ColumnarFloatMap":
        """Known durations: the interior spans of every probe with any.

        Elementwise float64 ``end - start`` is the scalar subtraction
        :attr:`AddressSpan.duration` performs, bit for bit.
        """
        counts = self.counts()
        positions = self.item_positions()
        interior = (positions >= 1) & (
            positions <= np.repeat(counts, counts) - 2)
        known = np.maximum(counts - 2, 0)
        rows = known > 0
        values = (self.columns["end"] - self.columns["start"])[interior]
        return ColumnarFloatMap.build(
            known[rows], probe_ids=self.probe_ids[rows], values=values)

    def to_map(self) -> dict[int, list[AddressSpan]]:
        addrs = self.columns["address"].tolist()
        starts = self.columns["start"].tolist()
        ends = self.columns["end"].tolist()
        complete_start = self.columns["complete_start"].tolist()
        complete_end = self.columns["complete_end"].tolist()
        addr = _addresses(self.columns["address"])
        return {pid: [AddressSpan(pid, addr[addrs[index]], starts[index],
                                  ends[index], bool(complete_start[index]),
                                  bool(complete_end[index]))
                      for index in range(lo, hi)]
                for pid, lo, hi in self._slices()}


@colpack.register
class ColumnarFloatMap(_Table):
    """A ``dict[int, list[float]]`` artifact (``durations_by_probe``)."""

    __columnar__ = "float-map-columnar"
    __wire_contract__ = "float-map-columnar"

    ITEMS = {"values": np.float64}

    def to_map(self) -> dict[int, list[float]]:
        values = self.columns["values"].tolist()
        return {pid: values[lo:hi] for pid, lo, hi in self._slices()}


class ColumnarChangeMap(_Table):
    """Stage ``changes``: ``changes_by_probe`` (``dict[int,
    list[AddressChange]]``) as columns.

    A projection of the filter table the stage recomputes on every run,
    so it is neither cached nor shipped: no wire contract.
    """

    ITEMS = {"old": np.uint32, "new": np.uint32, "gap_start": np.float64,
             "gap_end": np.float64}

    def to_map(self) -> dict[int, list[AddressChange]]:
        old_addrs = self.columns["old"].tolist()
        new_addrs = self.columns["new"].tolist()
        gap_starts = self.columns["gap_start"].tolist()
        gap_ends = self.columns["gap_end"].tolist()
        addr = _addresses(self.columns["old"], self.columns["new"])
        return {pid: [AddressChange(pid, addr[old_addrs[index]],
                                    addr[new_addrs[index]],
                                    gap_starts[index], gap_ends[index])
                      for index in range(lo, hi)]
                for pid, lo, hi in self._slices()}


@colpack.register
class ColumnarRebootMap(_Table):
    """Stage ``reboots``' per-probe half: counter resets per probe."""

    __columnar__ = "reboot-map-columnar"
    __wire_contract__ = "reboot-map-columnar"

    ITEMS = {"time": np.float64, "reported_at": np.float64}

    def to_map(self) -> dict[int, list[Reboot]]:
        times = self.columns["time"].tolist()
        reported = self.columns["reported_at"].tolist()
        return {pid: [Reboot(pid, times[index], reported[index])
                      for index in range(lo, hi)]
                for pid, lo, hi in self._slices()}


@colpack.register
class ColumnarGapEventMap(_Table):
    """Stage ``gaps``: ``gap_events_by_probe`` (``dict[int,
    list[GapEvent]]``) as columns; cause codes index ``meta["causes"]``."""

    __columnar__ = "gap-event-map-columnar"
    __wire_contract__ = "gap-event-map-columnar"

    ITEMS = {"gap_start": np.float64, "gap_end": np.float64,
             "cause": np.uint8, "address_changed": np.uint8,
             "outage_duration": np.float64}

    @classmethod
    def default_meta(cls) -> dict:
        return {"causes": [cause.name for cause in GapCause]}

    def cause_code(self, cause: GapCause) -> int:
        return self.meta["causes"].index(cause.name)

    def to_map(self) -> dict[int, list[GapEvent]]:
        causes = [GapCause[name] for name in self.meta["causes"]]
        gap_starts = self.columns["gap_start"].tolist()
        gap_ends = self.columns["gap_end"].tolist()
        codes = self.columns["cause"].tolist()
        changed = self.columns["address_changed"].tolist()
        outage = self.columns["outage_duration"].tolist()
        return {pid: [GapEvent(pid, gap_starts[index], gap_ends[index],
                               causes[codes[index]], bool(changed[index]),
                               outage[index])
                      for index in range(lo, hi)]
                for pid, lo, hi in self._slices()}
