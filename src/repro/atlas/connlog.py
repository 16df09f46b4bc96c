"""The RIPE Atlas connection-logs dataset (Section 3.1 of the paper).

:class:`ConnectionLog` stores per-probe sequences of
:class:`~repro.atlas.types.ConnectionLogEntry` in time order, serializes to
a tab-separated text format, and renders samples in the paper's Table 1
style.  Address changes are *detected* from these logs by
:mod:`repro.core.changes`; this module only stores and transports them.

A log read from text is held as :class:`~repro.atlas.columnar
.ColumnarConnlog` columns (DESIGN.md §19); a probe's entry objects are
built the first time something asks for them.  A log filled by
:meth:`ConnectionLog.add` holds entries and derives its columns once.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from repro.atlas.columnar import (
    ColumnarConnlog,
    admit_lines,
    parse_rejected,
    probe_offsets,
    repair_order,
    strict_order,
)
from repro.atlas.types import ConnectionLogEntry
from repro.errors import DatasetError, ParseError
from repro.net.ipv4 import IPv4Address, address_parser
from repro.util import timeutil
from repro.util.ingest import IngestReport, ReadPolicy, format_line_error

#: Dataset label used in ingest accounting and diagnostics.
DATASET_NAME = "connlog"

#: The lines :meth:`ConnectionLog.write` produces, admitted in bulk:
#: ``%d<TAB>%.0f<TAB>%.0f<TAB>address``.  Digit counts keep every value
#: exact in int64/float64; the address is classified per distinct text.
_GRAMMAR = re.compile(r"[0-9]{1,18}\t[0-9]{1,15}\t[0-9]{1,15}\t[0-9A-Fa-f.:]+")

_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
#: Exactly the dotted quads :meth:`IPv4Address.parse` accepts.
_DOTTED_QUAD = re.compile(r"%s(?:\.%s){3}" % (_OCTET, _OCTET))

#: Address codes beside IPv4 values: IPv6 text, and text
#: :meth:`IPv4Address.parse` rejects.
_IPV6 = -1
_INVALID = -2


def _overlap_message(probe_id: int, start: float) -> str:
    return ("probe %d: connection starting %s overlaps previous one"
            % (probe_id, start))


def _address_codes(texts: list[str]) -> np.ndarray:
    """Per address text: its IPv4 value, ``_IPV6`` or ``_INVALID``."""
    table = dict.fromkeys(texts, _INVALID)
    quads = []
    for text in table:
        if ":" in text:
            table[text] = _IPV6
        elif _DOTTED_QUAD.fullmatch(text):
            quads.append(text)
    if quads:
        octets = np.array(".".join(quads).split("."),
                          dtype=np.int64).reshape(-1, 4)
        values = ((octets[:, 0] << 24) | (octets[:, 1] << 16)
                  | (octets[:, 2] << 8) | octets[:, 3])
        table.update(zip(quads, values.tolist()))
    return np.fromiter(map(table.__getitem__, texts), dtype=np.int64,
                       count=len(texts))


class ConnectionLog:
    """Per-probe, time-ordered connection log entries."""

    def __init__(self, entries: Iterable[ConnectionLogEntry] = ()) -> None:
        #: Entries per probe: the data of a log filled by :meth:`add`,
        #: the materialized probes of a log read from text.
        self._by_probe: dict[int, list[ConnectionLogEntry]] = {}
        #: The columns of a log read from text (its data), else ``None``.
        self._source: ColumnarConnlog | None = None
        #: IPv6 address text by ``_source`` row.
        self._ipv6: dict[int, str] = {}
        #: One shared address object per value for materialized entries.
        self._addresses: dict[int, IPv4Address] = {}
        #: Columns derived from ``_by_probe`` (when ``_source`` is unset).
        self._derived: ColumnarConnlog | None = None
        for entry in entries:
            self.add(entry)

    def add(self, entry: ConnectionLogEntry) -> None:
        """Append an entry; rejects overlaps/out-of-order per probe."""
        if self._source is not None:
            for probe_id in self.probe_ids():
                self._entries_of(probe_id)
            self._source = None
            self._ipv6 = {}
        self._derived = None
        log = self._by_probe.setdefault(entry.probe_id, [])
        if log and entry.start < log[-1].end:
            raise DatasetError(_overlap_message(entry.probe_id, entry.start))
        log.append(entry)

    def columnar(self) -> ColumnarConnlog:
        """The log's columns (read logs hold nothing else)."""
        if self._source is not None:
            return self._source
        if self._derived is None:
            self._derived = ColumnarConnlog.from_connlog(self)
        return self._derived

    def _entries_of(self, probe_id: int) -> list[ConnectionLogEntry]:
        """One probe's entries, built from the columns on first use."""
        entries = self._by_probe.get(probe_id)
        if entries is not None:
            return entries
        source = self._source
        if source is None or not source.has_probe(probe_id):
            return []
        probe_id = int(probe_id)
        lo, hi = source.slice_of(probe_id)
        addresses = self._addresses
        entries = []
        for row, start, end, value, v6 in zip(
                range(lo, hi), source.starts[lo:hi].tolist(),
                source.ends[lo:hi].tolist(), source.addrs[lo:hi].tolist(),
                source.v6[lo:hi].tolist()):
            if v6:
                entries.append(ConnectionLogEntry(
                    probe_id, start, end, None,
                    ipv6_address=self._ipv6[row]))
                continue
            address = addresses.get(value)
            if address is None:
                address = addresses[value] = IPv4Address(value)
            entries.append(ConnectionLogEntry(probe_id, start, end, address))
        self._by_probe[probe_id] = entries
        return entries

    def probe_ids(self) -> list[int]:
        """All probe ids present, sorted."""
        if self._source is not None:
            return self._source.probe_ids.tolist()
        return sorted(self._by_probe)

    def entries(self, probe_id: int) -> list[ConnectionLogEntry]:
        """Entries for one probe in time order (empty when unknown)."""
        return list(self._entries_of(probe_id))

    def entry_count(self) -> int:
        """Total entries across all probes."""
        if self._source is not None:
            return self._source.entry_count
        return sum(len(log) for log in self._by_probe.values())

    def total_connected_time(self, probe_id: int) -> float:
        """Aggregate connected duration for a probe.

        The paper restricts analysis to probes connected for more than
        30 days in 2015; this is the quantity that threshold applies to.
        """
        return sum(e.duration for e in self._entries_of(probe_id))

    def __iter__(self) -> Iterator[ConnectionLogEntry]:
        for probe_id in self.probe_ids():
            yield from self._entries_of(probe_id)

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
        overlap on an earlier line.  Lines in the writer's exact format
        are converted in bulk; every other line goes through
        :meth:`_parse_line`, the only source of diagnostics.
        """
        source = source or getattr(stream, "name", "<connlog>")
        report = report if report is not None else IngestReport()
        lines = stream.read().split("\n")
        admitted, (probe_text, start_text, end_text, address_text) = (
            admit_lines(lines, _GRAMMAR, 4))
        probes = np.array(probe_text, dtype=np.int64)
        starts = np.array(start_text, dtype=np.float64)
        ends = np.array(end_text, dtype=np.float64)
        codes = _address_codes(address_text)
        del probe_text, start_text, end_text
        # Rows _parse_line would reject go back to it for the diagnostic.
        valid = (codes != _INVALID) & (ends >= starts)
        keep = np.flatnonzero(valid)
        ipv6 = {row: address_text[keep[row]] for row in np.flatnonzero(
            codes[keep] == _IPV6).tolist()}
        del address_text
        probes, starts, ends, codes = (
            probes[keep], starts[keep], ends[keep], codes[keep])
        line_list: list[int] = []
        probe_list: list[int] = []
        start_list: list[float] = []
        end_list: list[float] = []
        code_list: list[int] = []
        for line_number, entry in parse_rejected(
                lines, admitted[keep],
                partial(cls._parse_line, parse_address=address_parser()),
                policy, report, DATASET_NAME, source):
            if entry.is_ipv6:
                ipv6[len(keep) + len(line_list)] = entry.ipv6_address
                code_list.append(_IPV6)
            else:
                code_list.append(entry.address.value)
            line_list.append(line_number)
            probe_list.append(entry.probe_id)
            start_list.append(entry.start)
            end_list.append(entry.end)
        del lines
        line_column = np.concatenate((admitted[keep] + 1,
                                      np.asarray(line_list, np.int64)))
        probes = np.concatenate((probes, np.asarray(probe_list, np.int64)))
        starts = np.concatenate((starts, np.asarray(start_list, np.float64)))
        ends = np.concatenate((ends, np.asarray(end_list, np.float64)))
        codes = np.concatenate((codes, np.asarray(code_list, np.int64)))
        if policy is ReadPolicy.STRICT:
            order, row = strict_order(line_column, probes, starts, ends)
            if row is not None:
                raise DatasetError(format_line_error(
                    source, int(line_column[row]), _overlap_message(
                        int(probes[row]), float(starts[row]))))
            report.parsed(DATASET_NAME, len(order))
        else:
            order = cls._repair(line_column, probes, starts, ends, report,
                                source)
        codes = codes[order]
        v6 = codes == _IPV6
        probe_ids, offsets = probe_offsets(probes[order])
        log = cls()
        log._source = ColumnarConnlog(
            probe_ids=probe_ids, offsets=offsets, starts=starts[order],
            ends=ends[order], addrs=np.where(v6, 0, codes).astype(np.uint32),
            v6=v6.astype(np.uint8))
        log._ipv6 = {position: ipv6[row] for position, row in zip(
            np.flatnonzero(v6).tolist(), order[v6].tolist())}
        return log

    @staticmethod
    def _repair(lines: np.ndarray, probes: np.ndarray, starts: np.ndarray,
                ends: np.ndarray, report: IngestReport,
                source: str) -> np.ndarray:
        """REPAIR assembly: sort per probe, drop overlapping records.

        Returns the kept rows in assembled order.
        """
        grouped, order = repair_order(lines, probes, (starts, ends))
        # A record is displaced when sorting moved it; compare the
        # original file order with the sorted order positionally.
        displaced = order != grouped
        probe_at = probes[order]
        start_at = starts[order]
        end_at = ends[order]
        kept = np.ones(len(order), dtype=bool)
        clash = np.flatnonzero((probe_at[1:] == probe_at[:-1])
                               & (start_at[1:] < end_at[:-1])) + 1
        if len(clash):
            # Only probes with a clash need the sequential sweep: one
            # dropped record changes what the next one is checked against.
            _, offsets = probe_offsets(probe_at)
            blocks = np.unique(np.searchsorted(offsets, clash,
                                               side="right") - 1)
            starts_list = start_at.tolist()
            ends_list = end_at.tolist()
            for block in blocks.tolist():
                last_end = float("-inf")
                for position in range(int(offsets[block]),
                                      int(offsets[block + 1])):
                    if starts_list[position] < last_end:
                        kept[position] = False
                    else:
                        last_end = ends_list[position]
        for position in np.flatnonzero(~kept | displaced).tolist():
            row = int(order[position])
            probe_id = int(probe_at[position])
            if not kept[position]:
                report.quarantined(
                    DATASET_NAME, source, int(lines[row]),
                    "probe %d: connection starting %s overlaps the "
                    "previous one" % (probe_id, float(start_at[position])))
            else:
                report.repaired(
                    DATASET_NAME, source, int(lines[row]),
                    "probe %d: out-of-order entry re-sorted" % probe_id)
        report.parsed(DATASET_NAME, int(np.count_nonzero(kept & ~displaced)))
        return order[kept]

    # -- presentation ------------------------------------------------------

    def render_paper_style(self, probe_id: int, limit: int | None = None) -> str:
        """Render a probe's log like the paper's Table 1.

        Columns: probe id, start time, end time, address.
        """
        lines = ["ID\tStart time\tEnd time\tIP Address"]
        entries = self._entries_of(probe_id)
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
