"""Columnar (structure-of-arrays) form of the hot Atlas datasets.

A :class:`~repro.atlas.connlog.ConnectionLog` or
:class:`~repro.atlas.sosuptime.UptimeDataset` read from text *is* these
columns: the readers parse straight into them (with the helpers at the
end of this module) and build record objects only when asked.  Only
containers filled record by record (the simulator's) derive their
columns, once, via :meth:`ColumnarConnlog.from_connlog` /
:meth:`ColumnarUptime.from_uptime`.  The vectorized stage kernels
(:mod:`repro.core.colkernels`) read nothing else.
Layout is CSR-style: one row per probe in sorted-id order, with
``offsets[i]:offsets[i+1]`` slicing the flat per-entry columns.

Invariants (DESIGN.md §16):

* ``probe_ids`` is strictly increasing; ``offsets`` is non-decreasing
  with ``offsets[0] == 0`` and ``offsets[-1] == len(starts)``;
* within a probe's slice, entries keep the container's time order;
* ``addrs[k]`` is the IPv4 address as a host-order ``uint32`` and is 0
  where ``v6[k]`` is set — IPv6 payloads (textual addresses) stay with
  the container, the kernels only need the *flag*.
"""

from __future__ import annotations

import re
from itertools import compress
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from repro.errors import ParseError
from repro.util import colpack
from repro.util.ingest import IngestReport, ReadPolicy, format_line_error

if TYPE_CHECKING:  # pragma: no cover
    from repro.atlas.connlog import ConnectionLog
    from repro.atlas.sosuptime import UptimeDataset


class _ProbeIndexed:
    """Shared CSR plumbing: sorted probe ids + offsets into flat columns."""

    def __init__(self, probe_ids, offsets) -> None:
        self.probe_ids = probe_ids
        self.offsets = offsets
        self._row: dict[int, int] = {
            int(pid): row for row, pid in enumerate(probe_ids.tolist())}

    def __len__(self) -> int:
        return len(self.probe_ids)

    def has_probe(self, probe_id: int) -> bool:
        return probe_id in self._row

    def slice_of(self, probe_id: int) -> tuple[int, int]:
        """``(lo, hi)`` bounds of one probe's rows in the flat columns."""
        row = self._row[probe_id]
        return int(self.offsets[row]), int(self.offsets[row + 1])


@colpack.register
class ColumnarConnlog(_ProbeIndexed):
    """Array-backed view of a :class:`ConnectionLog`."""

    __columnar__ = "connlog-columnar"

    def __init__(self, probe_ids, offsets, starts, ends, addrs, v6) -> None:
        super().__init__(probe_ids, offsets)
        self.starts = starts
        self.ends = ends
        self.addrs = addrs
        self.v6 = v6
        self._durations = None
        self._durations_list: list[float] | None = None
        self._run_starts = None

    @classmethod
    def from_connlog(cls, connlog: "ConnectionLog") -> "ColumnarConnlog":
        """Build the columnar view (one pass over the record container)."""
        probe_ids = connlog.probe_ids()
        offsets = [0]
        starts: list[float] = []
        ends: list[float] = []
        addrs: list[int] = []
        v6: list[int] = []
        for probe_id in probe_ids:
            for entry in connlog.entries(probe_id):
                starts.append(entry.start)
                ends.append(entry.end)
                if entry.is_ipv6:
                    addrs.append(0)
                    v6.append(1)
                else:
                    addrs.append(entry.address.value)
                    v6.append(0)
            offsets.append(len(starts))
        return cls(
            probe_ids=np.asarray(probe_ids, dtype=np.int64),
            offsets=np.asarray(offsets, dtype=np.int64),
            starts=np.asarray(starts, dtype=np.float64),
            ends=np.asarray(ends, dtype=np.float64),
            addrs=np.asarray(addrs, dtype=np.uint32),
            v6=np.asarray(v6, dtype=np.uint8))

    @property
    def entry_count(self) -> int:
        return len(self.starts)

    def durations(self):
        """Per-entry ``end - start`` (IEEE-identical to the scalar path)."""
        if self._durations is None:
            self._durations = self.ends - self.starts
        return self._durations

    def durations_list(self) -> list[float]:
        """The durations as native floats (for order-sensitive ``sum``)."""
        if self._durations_list is None:
            self._durations_list = self.durations().tolist()
        return self._durations_list

    def run_starts(self):
        """Boolean column: entry opens a new address run within its probe.

        An entry is a run start when it is the first entry of its probe
        or its address value differs from the previous entry's.  Only
        meaningful for pure-IPv4 slices (IPv6 entries share the 0
        placeholder value); the kernels consult it exclusively for
        probes that passed the dual-stack filter.
        """
        if self._run_starts is None:
            mask = np.ones(len(self.addrs), dtype=bool)
            if len(self.addrs):
                mask[1:] = self.addrs[1:] != self.addrs[:-1]
                firsts = self.offsets[:-1]
                mask[firsts[firsts < len(self.addrs)]] = True
            self._run_starts = mask
        return self._run_starts

    # -- codec ---------------------------------------------------------------

    def to_columns(self):
        return {}, {"probe_ids": self.probe_ids, "offsets": self.offsets,
                    "starts": self.starts, "ends": self.ends,
                    "addrs": self.addrs, "v6": self.v6}

    @classmethod
    def from_columns(cls, meta, columns) -> "ColumnarConnlog":
        return cls(probe_ids=columns["probe_ids"],
                   offsets=columns["offsets"],
                   starts=columns["starts"], ends=columns["ends"],
                   addrs=columns["addrs"], v6=columns["v6"])


@colpack.register
class ColumnarUptime(_ProbeIndexed):
    """Array-backed view of an :class:`UptimeDataset`."""

    __columnar__ = "uptime-columnar"

    def __init__(self, probe_ids, offsets, timestamps, uptimes) -> None:
        super().__init__(probe_ids, offsets)
        self.timestamps = timestamps
        self.uptimes = uptimes

    @classmethod
    def from_uptime(cls, uptime: "UptimeDataset") -> "ColumnarUptime":
        probe_ids = uptime.probe_ids()
        offsets = [0]
        timestamps: list[float] = []
        uptimes: list[float] = []
        for probe_id in probe_ids:
            for record in uptime.records(probe_id):
                timestamps.append(record.timestamp)
                uptimes.append(record.uptime)
            offsets.append(len(timestamps))
        return cls(
            probe_ids=np.asarray(probe_ids, dtype=np.int64),
            offsets=np.asarray(offsets, dtype=np.int64),
            timestamps=np.asarray(timestamps, dtype=np.float64),
            uptimes=np.asarray(uptimes, dtype=np.float64))

    def to_columns(self):
        return {}, {"probe_ids": self.probe_ids, "offsets": self.offsets,
                    "timestamps": self.timestamps, "uptimes": self.uptimes}

    @classmethod
    def from_columns(cls, meta, columns) -> "ColumnarUptime":
        return cls(probe_ids=columns["probe_ids"],
                   offsets=columns["offsets"],
                   timestamps=columns["timestamps"],
                   uptimes=columns["uptimes"])


# -- bulk ingest ---------------------------------------------------------------
#
# Shared by the connlog and uptime readers (DESIGN.md §19): admit the lines
# that match a dataset's exact writer grammar in bulk, and assemble rows
# into CSR columns.  Every other line stays with the reader's per-line
# parser, the only source of diagnostics.


def admit_lines(lines: list[str], grammar: re.Pattern, width: int
                ) -> tuple[np.ndarray, list[list[str]]]:
    """Indexes of the lines ``grammar`` matches exactly, and their fields.

    The fields come back as ``width`` lists of text, one entry per
    admitted line, in line order.  ``grammar`` must admit only lines of
    exactly ``width`` tab-separated fields.
    """
    admitted = list(map(bool, map(grammar.fullmatch, lines)))
    indexes = np.flatnonzero(np.asarray(admitted, dtype=bool))
    if not len(indexes):
        return indexes, [[] for _ in range(width)]
    fields = "\t".join(compress(lines, admitted)).split("\t")
    return indexes, [fields[k::width] for k in range(width)]


def parse_rejected(lines: list[str], admitted: np.ndarray,
                   parse: Callable[[str], object], policy: ReadPolicy,
                   report: IngestReport, dataset: str,
                   source: str) -> Iterator[tuple[int, object]]:
    """``(line number, record)`` per record line not in ``admitted``.

    The per-line path, in line order: blank and ``#`` lines are
    skipped, the rest stripped and handed to ``parse``.  A
    :class:`ParseError` raises with its location under ``STRICT`` and
    is quarantined under ``REPAIR``.
    """
    mask = np.ones(len(lines), dtype=bool)
    mask[admitted] = False
    for index in np.flatnonzero(mask).tolist():
        text = lines[index].strip()
        if not text or text.startswith("#"):
            continue
        try:
            record = parse(text)
        except ParseError as error:
            if policy is ReadPolicy.STRICT:
                raise ParseError(
                    format_line_error(source, index + 1, error)) from None
            report.quarantined(dataset, source, index + 1, str(error))
            continue
        yield index + 1, record


def probe_offsets(probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(probe_ids, offsets)`` of a probe column grouped by probe."""
    if not len(probes):
        return np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    cuts = np.flatnonzero(probes[1:] != probes[:-1]) + 1
    offsets = np.concatenate(([0], cuts, [len(probes)])).astype(np.int64)
    return probes[offsets[:-1]], offsets


def strict_order(lines: np.ndarray, probes: np.ndarray,
                 current: np.ndarray, previous: np.ndarray
                 ) -> tuple[np.ndarray, int | None]:
    """STRICT placement: rows grouped by probe in line order, and the
    misplaced row on the earliest line (``None`` when there is none).

    A row is misplaced when its ``current`` value is below the
    ``previous`` value of the row before it in its probe — exactly the
    rows a record-by-record ``add`` would refuse.
    """
    order = np.lexsort((lines, probes))
    grouped = probes[order]
    misplaced = np.flatnonzero((grouped[1:] == grouped[:-1])
                               & (current[order][1:]
                                  < previous[order][:-1])) + 1
    if not len(misplaced):
        return order, None
    rows = order[misplaced]
    return order, int(rows[np.argmin(lines[rows])])


def repair_order(lines: np.ndarray, probes: np.ndarray,
                 keys: Sequence[np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Row orders for REPAIR assembly: ``(grouped, ordered)``.

    ``grouped`` groups rows by ascending probe, in line order within a
    probe; ``ordered`` sorts each group by ``keys`` the way Python's
    stable ``sorted(rows, key=lambda r: (keys...))`` does.  A NaN
    compares false both ways, where numpy sorts it last, so groups
    holding one are re-sorted by Python itself.
    """
    grouped = np.lexsort((lines, probes))
    ordered = np.lexsort((lines,) + tuple(reversed(keys)) + (probes,))
    nan = np.zeros(len(lines), dtype=bool)
    for key in keys:
        nan |= np.isnan(key)
    if nan.any():
        _, offsets = probe_offsets(probes[grouped])
        values = [key.tolist() for key in keys]
        blocks = np.unique(np.searchsorted(
            offsets, np.flatnonzero(nan[grouped]), side="right") - 1)
        for block in blocks.tolist():
            lo, hi = int(offsets[block]), int(offsets[block + 1])
            ordered[lo:hi] = sorted(
                grouped[lo:hi].tolist(),
                key=lambda row: tuple(value[row] for value in values))
    return grouped, ordered
