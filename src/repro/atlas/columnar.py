"""Columnar (structure-of-arrays) views of the hot Atlas datasets.

The per-record dataclass containers (:class:`~repro.atlas.connlog
.ConnectionLog`, :class:`~repro.atlas.sosuptime.UptimeDataset`) are the
source of truth; these classes are derived, array-backed *views* the
vectorized stage kernels (:mod:`repro.core.colkernels`) operate on.
Layout is CSR-style: one row per probe in sorted-id order, with
``offsets[i]:offsets[i+1]`` slicing the flat per-entry columns.

Invariants (DESIGN.md §16):

* ``probe_ids`` is strictly increasing; ``offsets`` is non-decreasing
  with ``offsets[0] == 0`` and ``offsets[-1] == len(starts)``;
* within a probe's slice, entries keep the container's time order;
* ``addrs[k]`` is the IPv4 address as a host-order ``uint32`` and is 0
  where ``v6[k]`` is set — IPv6 payloads (textual addresses) stay in
  the record containers, the kernels only need the *flag*.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.util import colpack

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
