"""The RIPE Atlas connection-logs dataset (Section 3.1 of the paper).

:class:`ConnectionLog` stores per-probe sequences of
:class:`~repro.atlas.types.ConnectionLogEntry` in time order, serializes to
a tab-separated text format, and renders samples in the paper's Table 1
style.  Address changes are *detected* from these logs by
:mod:`repro.core.changes`; this module only stores and transports them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, TextIO

from repro.atlas.types import ConnectionLogEntry
from repro.errors import DatasetError, ParseError
from repro.net.ipv4 import IPv4Address, address_parser
from repro.util import timeutil
from repro.util.ingest import (
    IngestReport,
    ReadPolicy,
    format_line_error,
    record_lines,
)

#: Dataset label used in ingest accounting and diagnostics.
DATASET_NAME = "connlog"


class ConnectionLog:
    """Per-probe, time-ordered connection log entries."""

    def __init__(self, entries: Iterable[ConnectionLogEntry] = ()) -> None:
        self._by_probe: dict[int, list[ConnectionLogEntry]] = {}
        for entry in entries:
            self.add(entry)

    def add(self, entry: ConnectionLogEntry) -> None:
        """Append an entry; rejects overlaps/out-of-order per probe."""
        log = self._by_probe.setdefault(entry.probe_id, [])
        if log and entry.start < log[-1].end:
            raise DatasetError(
                "probe %d: connection starting %s overlaps previous one"
                % (entry.probe_id, entry.start)
            )
        log.append(entry)

    def probe_ids(self) -> list[int]:
        """All probe ids present, sorted."""
        return sorted(self._by_probe)

    def entries(self, probe_id: int) -> list[ConnectionLogEntry]:
        """Entries for one probe in time order (empty when unknown)."""
        return list(self._by_probe.get(probe_id, ()))

    def entry_count(self) -> int:
        """Total entries across all probes."""
        return sum(len(log) for log in self._by_probe.values())

    def total_connected_time(self, probe_id: int) -> float:
        """Aggregate connected duration for a probe.

        The paper restricts analysis to probes connected for more than
        30 days in 2015; this is the quantity that threshold applies to.
        """
        return sum(e.duration for e in self._by_probe.get(probe_id, ()))

    def __iter__(self) -> Iterator[ConnectionLogEntry]:
        for probe_id in self.probe_ids():
            yield from self._by_probe[probe_id]

    # -- serialization -----------------------------------------------------

    def write(self, stream: TextIO) -> None:
        """Serialize as ``probe_id<TAB>start<TAB>end<TAB>address`` lines."""
        for entry in self:
            address = (entry.ipv6_address if entry.is_ipv6
                       else str(entry.address))
            stream.write("%d\t%.0f\t%.0f\t%s\n"
                         % (entry.probe_id, entry.start, entry.end, address))

    @staticmethod
    def _parse_line(text: str, parse_address: Callable[[str], IPv4Address]
                    ) -> ConnectionLogEntry:
        """Parse one record line; raises :class:`ParseError` sans location."""
        fields = text.split("\t")
        if len(fields) != 4:
            raise ParseError("expected 4 fields, got %d" % len(fields))
        probe_text, start_text, end_text, address_text = fields
        try:
            probe_id = int(probe_text)
            start = float(start_text)
            end = float(end_text)
        except ValueError:
            raise ParseError("malformed numbers") from None
        if ":" in address_text:
            return ConnectionLogEntry(probe_id, start, end, None,
                                      ipv6_address=address_text)
        return ConnectionLogEntry(
            probe_id, start, end, parse_address(address_text))

    @classmethod
    def read(cls, stream: TextIO,
             policy: ReadPolicy = ReadPolicy.STRICT,
             report: IngestReport | None = None,
             source: str | None = None) -> "ConnectionLog":
        """Parse the text format produced by :meth:`write`.

        ``STRICT`` raises on the first malformed/out-of-order record;
        ``REPAIR`` quarantines malformed lines, re-sorts out-of-order
        entries per probe and quarantines overlapping duplicates,
        accounting every decision in ``report``.

        Every line is parsed before any entry is placed, so under
        ``STRICT`` a malformed line anywhere in the file wins over an
        overlap on an earlier line.
        """
        source = source or getattr(stream, "name", "<connlog>")
        report = report if report is not None else IngestReport()
        parse_address = address_parser()
        # Line numbers and entries as two lists, not (line, record)
        # tuples: tens of thousands fewer GC-tracked objects per file,
        # which spares the load a gen-2 collection.
        numbers: list[int] = []
        entries: list[ConnectionLogEntry] = []
        for line_number, text in record_lines(stream):
            try:
                entry = cls._parse_line(text, parse_address)
            except ParseError as error:
                if policy is ReadPolicy.STRICT:
                    raise ParseError(
                        format_line_error(source, line_number, error)
                    ) from None
                report.quarantined(DATASET_NAME, source, line_number,
                                   str(error))
                continue
            numbers.append(line_number)
            entries.append(entry)
        if policy is ReadPolicy.STRICT:
            log = cls()
            for line_number, entry in zip(numbers, entries):
                try:
                    log.add(entry)
                except DatasetError as error:
                    raise DatasetError(
                        format_line_error(source, line_number, error)
                    ) from None
            report.parsed(DATASET_NAME, len(entries))
            return log
        return cls._assemble_repaired(list(zip(numbers, entries)), report,
                                      source)

    @classmethod
    def _assemble_repaired(cls, rows: list[tuple[int, ConnectionLogEntry]],
                           report: IngestReport,
                           source: str) -> "ConnectionLog":
        """REPAIR assembly: sort per probe, drop overlapping records."""
        by_probe: dict[int, list[tuple[int, ConnectionLogEntry]]] = {}
        for line_number, entry in rows:
            by_probe.setdefault(entry.probe_id, []).append((line_number,
                                                            entry))
        log = cls()
        parsed = 0
        for probe_id in sorted(by_probe):
            items = by_probe[probe_id]
            ordered = sorted(items, key=lambda item: (item[1].start,
                                                      item[1].end))
            # A record is displaced when sorting moved it; compare the
            # original file order with the sorted order positionally.
            displaced = {ordered[i][0] for i in range(len(items))
                         if ordered[i][0] != items[i][0]}
            last_end = float("-inf")
            for line_number, entry in ordered:
                if entry.start < last_end:
                    report.quarantined(
                        DATASET_NAME, source, line_number,
                        "probe %d: connection starting %s overlaps the "
                        "previous one" % (probe_id, entry.start))
                    continue
                log.add(entry)
                last_end = entry.end
                if line_number in displaced:
                    report.repaired(
                        DATASET_NAME, source, line_number,
                        "probe %d: out-of-order entry re-sorted" % probe_id)
                else:
                    parsed += 1
        report.parsed(DATASET_NAME, parsed)
        return log

    # -- presentation ------------------------------------------------------

    def render_paper_style(self, probe_id: int, limit: int | None = None) -> str:
        """Render a probe's log like the paper's Table 1.

        Columns: probe id, start time, end time, address.
        """
        lines = ["ID\tStart time\tEnd time\tIP Address"]
        entries = self._by_probe.get(probe_id, [])
        if limit is not None:
            entries = entries[:limit]
        for entry in entries:
            address = (entry.ipv6_address if entry.is_ipv6
                       else str(entry.address))
            lines.append("%d\t%s\t%s\t%s" % (
                entry.probe_id,
                timeutil.format_log_time(entry.start),
                timeutil.format_log_time(entry.end),
                address,
            ))
        return "\n".join(lines)
