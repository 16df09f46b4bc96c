"""The SOS-uptime dataset (Section 3.5 of the paper).

Probes report their uptime counter — seconds since boot — every time they
establish a new TCP connection to the controller.  A counter value smaller
than the previous one means the probe rebooted; the reboot instant is the
report timestamp minus the counter value (the paper's Table 4 example).
"""

from __future__ import annotations

from typing import Iterable, Iterator, TextIO

from repro.atlas.types import UptimeRecord
from repro.errors import DatasetError, ParseError
from repro.util.ingest import (
    IngestReport,
    ReadPolicy,
    format_line_error,
    record_lines,
)

#: Dataset label used in ingest accounting and diagnostics.
DATASET_NAME = "uptime"

#: Uptime counters are 32-bit seconds on the probe; a raw value at or
#: beyond this bound can only be a wrapped/corrupted read-out, since it
#: would mean more than 136 years since boot.
UPTIME_WRAP_MODULUS = float(2 ** 32)


class UptimeDataset:
    """Per-probe, time-ordered SOS-uptime records."""

    def __init__(self, records: Iterable[UptimeRecord] = ()) -> None:
        self._by_probe: dict[int, list[UptimeRecord]] = {}
        for record in records:
            self.add(record)

    def add(self, record: UptimeRecord) -> None:
        """Append a record, enforcing per-probe time order."""
        log = self._by_probe.setdefault(record.probe_id, [])
        if log and record.timestamp < log[-1].timestamp:
            raise DatasetError(
                "probe %d: uptime record at %s out of order"
                % (record.probe_id, record.timestamp)
            )
        log.append(record)

    def probe_ids(self) -> list[int]:
        """All probe ids present, sorted."""
        return sorted(self._by_probe)

    def records(self, probe_id: int) -> list[UptimeRecord]:
        """All records for a probe in time order."""
        return list(self._by_probe.get(probe_id, ()))

    def records_in(self, probe_id: int, window_start: float,
                   window_end: float) -> list[UptimeRecord]:
        """Records with timestamps inside ``[window_start, window_end)``."""
        return [r for r in self._by_probe.get(probe_id, ())
                if window_start <= r.timestamp < window_end]

    def __iter__(self) -> Iterator[UptimeRecord]:
        for probe_id in self.probe_ids():
            yield from self._by_probe[probe_id]

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
        record.
        """
        source = source or getattr(stream, "name", "<uptime>")
        report = report if report is not None else IngestReport()
        # Line numbers and records as two lists, not (line, record)
        # tuples: tens of thousands fewer GC-tracked objects per file,
        # which spares the load a gen-2 collection.
        numbers: list[int] = []
        records: list[UptimeRecord] = []
        for line_number, text in record_lines(stream):
            try:
                record = cls._parse_line(text)
            except ParseError as error:
                if policy is ReadPolicy.STRICT:
                    raise ParseError(
                        format_line_error(source, line_number, error)
                    ) from None
                report.quarantined(DATASET_NAME, source, line_number,
                                   str(error))
                continue
            if record.uptime >= UPTIME_WRAP_MODULUS:
                if policy is ReadPolicy.STRICT:
                    raise ParseError(format_line_error(
                        source, line_number,
                        "uptime counter %r beyond the 32-bit wrap"
                        % record.uptime))
                record = UptimeRecord(record.probe_id, record.timestamp,
                                      record.uptime % UPTIME_WRAP_MODULUS)
                report.repaired(DATASET_NAME, source, line_number,
                                "wrapped uptime counter reduced modulo 2**32")
                numbers.append(-line_number)
                records.append(record)
                continue
            numbers.append(line_number)
            records.append(record)
        if policy is ReadPolicy.STRICT:
            dataset = cls()
            for line_number, record in zip(numbers, records):
                try:
                    dataset.add(record)
                except DatasetError as error:
                    raise DatasetError(
                        format_line_error(source, line_number, error)
                    ) from None
            report.parsed(DATASET_NAME, len(records))
            return dataset
        return cls._assemble_repaired(list(zip(numbers, records)), report,
                                      source)

    @classmethod
    def _assemble_repaired(cls, rows: list[tuple[int, UptimeRecord]],
                           report: IngestReport,
                           source: str) -> "UptimeDataset":
        """REPAIR assembly: sort timestamps per probe, count re-orderings.

        Rows carrying a negative line number were already accounted as
        repaired (counter unwrap) and are not double-counted.
        """
        by_probe: dict[int, list[tuple[int, UptimeRecord]]] = {}
        for line_number, record in rows:
            by_probe.setdefault(record.probe_id, []).append((line_number,
                                                             record))
        dataset = cls()
        parsed = 0
        for probe_id in sorted(by_probe):
            items = by_probe[probe_id]
            ordered = sorted(items, key=lambda item: item[1].timestamp)
            displaced = {ordered[i][0] for i in range(len(items))
                         if ordered[i][0] != items[i][0]}
            for line_number, record in ordered:
                dataset.add(record)
                if line_number < 0:
                    continue  # already accounted as a counter-wrap repair
                if line_number in displaced:
                    report.repaired(
                        DATASET_NAME, source, line_number,
                        "probe %d: out-of-order record re-sorted" % probe_id)
                else:
                    parsed += 1
        report.parsed(DATASET_NAME, parsed)
        return dataset
