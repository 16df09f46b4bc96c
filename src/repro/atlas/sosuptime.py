"""The SOS-uptime dataset (Section 3.5 of the paper).

Probes report their uptime counter — seconds since boot — every time they
establish a new TCP connection to the controller.  A counter value smaller
than the previous one means the probe rebooted; the reboot instant is the
report timestamp minus the counter value (the paper's Table 4 example).

A dataset read from text is held as :class:`~repro.atlas.columnar
.ColumnarUptime` columns (DESIGN.md §19); a probe's record objects are
built the first time something asks for them.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, TextIO

import numpy as np

from repro.atlas.columnar import (
    ColumnarUptime,
    admit_lines,
    parse_rejected,
    probe_offsets,
    repair_order,
    strict_order,
)
from repro.atlas.types import UptimeRecord
from repro.errors import DatasetError, ParseError
from repro.util.ingest import IngestReport, ReadPolicy, format_line_error

#: Dataset label used in ingest accounting and diagnostics.
DATASET_NAME = "uptime"

#: Uptime counters are 32-bit seconds on the probe; a raw value at or
#: beyond this bound can only be a wrapped/corrupted read-out, since it
#: would mean more than 136 years since boot.
UPTIME_WRAP_MODULUS = float(2 ** 32)

#: The lines :meth:`UptimeDataset.write` produces, admitted in bulk:
#: ``%d<TAB>%.0f<TAB>%.0f``.  Digit counts keep every value exact.
_GRAMMAR = re.compile(r"[0-9]{1,18}\t[0-9]{1,15}\t[0-9]{1,15}")


def _out_of_order_message(probe_id: int, timestamp: float) -> str:
    return ("probe %d: uptime record at %s out of order"
            % (probe_id, timestamp))


class UptimeDataset:
    """Per-probe, time-ordered SOS-uptime records."""

    def __init__(self, records: Iterable[UptimeRecord] = ()) -> None:
        #: Records per probe: the data of a dataset filled by :meth:`add`,
        #: the materialized probes of one read from text.
        self._by_probe: dict[int, list[UptimeRecord]] = {}
        #: The columns of a dataset read from text (its data), else None.
        self._source: ColumnarUptime | None = None
        #: Columns derived from ``_by_probe`` (when ``_source`` is unset).
        self._derived: ColumnarUptime | None = None
        for record in records:
            self.add(record)

    def add(self, record: UptimeRecord) -> None:
        """Append a record, enforcing per-probe time order."""
        if self._source is not None:
            for probe_id in self.probe_ids():
                self._records_of(probe_id)
            self._source = None
        self._derived = None
        log = self._by_probe.setdefault(record.probe_id, [])
        if log and record.timestamp < log[-1].timestamp:
            raise DatasetError(_out_of_order_message(record.probe_id,
                                                     record.timestamp))
        log.append(record)

    def columnar(self) -> ColumnarUptime:
        """The dataset's columns (read datasets hold nothing else)."""
        if self._source is not None:
            return self._source
        if self._derived is None:
            self._derived = ColumnarUptime.from_uptime(self)
        return self._derived

    def _records_of(self, probe_id: int) -> list[UptimeRecord]:
        """One probe's records, built from the columns on first use."""
        records = self._by_probe.get(probe_id)
        if records is not None:
            return records
        source = self._source
        if source is None or not source.has_probe(probe_id):
            return []
        probe_id = int(probe_id)
        lo, hi = source.slice_of(probe_id)
        records = [UptimeRecord(probe_id, timestamp, uptime)
                   for timestamp, uptime in zip(
                       source.timestamps[lo:hi].tolist(),
                       source.uptimes[lo:hi].tolist())]
        self._by_probe[probe_id] = records
        return records

    def probe_ids(self) -> list[int]:
        """All probe ids present, sorted."""
        if self._source is not None:
            return self._source.probe_ids.tolist()
        return sorted(self._by_probe)

    def records(self, probe_id: int) -> list[UptimeRecord]:
        """All records for a probe in time order."""
        return list(self._records_of(probe_id))

    def records_in(self, probe_id: int, window_start: float,
                   window_end: float) -> list[UptimeRecord]:
        """Records with timestamps inside ``[window_start, window_end)``."""
        return [r for r in self._records_of(probe_id)
                if window_start <= r.timestamp < window_end]

    def __iter__(self) -> Iterator[UptimeRecord]:
        for probe_id in self.probe_ids():
            yield from self._records_of(probe_id)

    def write(self, stream: TextIO) -> None:
        """Serialize as ``probe_id<TAB>timestamp<TAB>uptime`` lines."""
        for record in self:
            stream.write("%d\t%.0f\t%.0f\n"
                         % (record.probe_id, record.timestamp, record.uptime))

    @staticmethod
    def _parse_line(text: str) -> UptimeRecord:
        """Parse one record line; raises :class:`ParseError` sans location."""
        fields = text.split("\t")
        if len(fields) != 3:
            raise ParseError("expected 3 fields, got %d" % len(fields))
        try:
            # UptimeRecord itself rejects negative counters (ParseError).
            return UptimeRecord(int(fields[0]), float(fields[1]),
                                float(fields[2]))
        except ValueError:
            raise ParseError("malformed numbers") from None

    @classmethod
    def read(cls, stream: TextIO,
             policy: ReadPolicy = ReadPolicy.STRICT,
             report: IngestReport | None = None,
             source: str | None = None) -> "UptimeDataset":
        """Parse the text format produced by :meth:`write`.

        ``STRICT`` raises on malformed lines, wrapped counters and
        out-of-order records; ``REPAIR`` quarantines garbage, unwraps
        counters modulo 2**32 and re-sorts per-probe timestamps,
        accounting every decision in ``report``.

        Every line is parsed (and its counter checked) before any record
        is placed, so under ``STRICT`` a malformed line or wrapped
        counter anywhere in the file wins over an earlier out-of-order
        record.  Lines in the writer's exact format with an unwrapped
        counter are converted in bulk; every other line goes through
        :meth:`_parse_line`, the only source of diagnostics.
        """
        source = source or getattr(stream, "name", "<uptime>")
        report = report if report is not None else IngestReport()
        lines = stream.read().split("\n")
        admitted, (probe_text, stamp_text, uptime_text) = admit_lines(
            lines, _GRAMMAR, 3)
        probes = np.array(probe_text, dtype=np.int64)
        stamps = np.array(stamp_text, dtype=np.float64)
        uptimes = np.array(uptime_text, dtype=np.float64)
        del probe_text, stamp_text, uptime_text
        # Wrapped counters take the per-line path: its diagnostic under
        # STRICT, its repair accounting under REPAIR.
        keep = np.flatnonzero(uptimes < UPTIME_WRAP_MODULUS)
        probes, stamps, uptimes = probes[keep], stamps[keep], uptimes[keep]
        line_list: list[int] = []
        probe_list: list[int] = []
        stamp_list: list[float] = []
        uptime_list: list[float] = []
        wrapped: list[int] = []
        for line_number, record in parse_rejected(
                lines, admitted[keep], cls._parse_line, policy, report,
                DATASET_NAME, source):
            uptime = record.uptime
            if uptime >= UPTIME_WRAP_MODULUS:
                if policy is ReadPolicy.STRICT:
                    raise ParseError(format_line_error(
                        source, line_number,
                        "uptime counter %r beyond the 32-bit wrap" % uptime))
                uptime = uptime % UPTIME_WRAP_MODULUS
                report.repaired(DATASET_NAME, source, line_number,
                                "wrapped uptime counter reduced modulo 2**32")
                wrapped.append(len(keep) + len(line_list))
            line_list.append(line_number)
            probe_list.append(record.probe_id)
            stamp_list.append(record.timestamp)
            uptime_list.append(uptime)
        del lines
        line_column = np.concatenate((admitted[keep] + 1,
                                      np.asarray(line_list, np.int64)))
        probes = np.concatenate((probes, np.asarray(probe_list, np.int64)))
        stamps = np.concatenate((stamps, np.asarray(stamp_list, np.float64)))
        uptimes = np.concatenate((uptimes,
                                  np.asarray(uptime_list, np.float64)))
        if policy is ReadPolicy.STRICT:
            order, row = strict_order(line_column, probes, stamps, stamps)
            if row is not None:
                raise DatasetError(format_line_error(
                    source, int(line_column[row]), _out_of_order_message(
                        int(probes[row]), float(stamps[row]))))
            report.parsed(DATASET_NAME, len(order))
        else:
            repaired = np.zeros(len(line_column), dtype=bool)
            repaired[wrapped] = True
            order = cls._repair(line_column, probes, stamps, repaired,
                                report, source)
        probe_ids, offsets = probe_offsets(probes[order])
        dataset = cls()
        dataset._source = ColumnarUptime(
            probe_ids=probe_ids, offsets=offsets, timestamps=stamps[order],
            uptimes=uptimes[order])
        return dataset

    @staticmethod
    def _repair(lines: np.ndarray, probes: np.ndarray, stamps: np.ndarray,
                wrapped: np.ndarray, report: IngestReport,
                source: str) -> np.ndarray:
        """REPAIR assembly: sort timestamps per probe, count re-orderings.

        Rows whose counter was unwrapped were already accounted as
        repaired and are not double-counted.  Returns the rows in
        assembled order.
        """
        grouped, order = repair_order(lines, probes, (stamps,))
        displaced = order != grouped
        probe_at = probes[order]
        unwrapped = ~wrapped[order]
        for position in np.flatnonzero(displaced & unwrapped).tolist():
            report.repaired(
                DATASET_NAME, source, int(lines[order[position]]),
                "probe %d: out-of-order record re-sorted"
                % int(probe_at[position]))
        report.parsed(DATASET_NAME,
                      int(np.count_nonzero(~displaced & unwrapped)))
        return order
