"""The per-line connlog and uptime readers, kept as the ingest oracle.

Production parses connection-log and SOS-uptime text straight into
columns (DESIGN.md §19): lines in the writer's exact format are
converted in bulk and only the rest go through the per-line parsers.
The readers here are the original ones — every line parsed into a
record object, then placed with ``add`` (STRICT) or sorted and
de-overlapped record by record (REPAIR).  They return record-built
containers, and the differential ingest tests hold the production
readers to them: same exception type and message, same records per
probe, same :class:`~repro.util.ingest.IngestReport`.
"""

from __future__ import annotations

from typing import TextIO

from repro.atlas.connlog import DATASET_NAME as CONNLOG
from repro.atlas.connlog import ConnectionLog
from repro.atlas.sosuptime import DATASET_NAME as UPTIME
from repro.atlas.sosuptime import UPTIME_WRAP_MODULUS, UptimeDataset
from repro.atlas.types import UptimeRecord
from repro.errors import DatasetError, ParseError
from repro.net.ipv4 import address_parser
from repro.util.ingest import (
    IngestReport,
    ReadPolicy,
    format_line_error,
    record_lines,
)


def read_connlog(stream: TextIO, policy: ReadPolicy = ReadPolicy.STRICT,
                 report: IngestReport | None = None,
                 source: str = "<connlog>") -> ConnectionLog:
    """The record-at-a-time :meth:`ConnectionLog.read`."""
    report = report if report is not None else IngestReport()
    parse_address = address_parser()
    rows = []
    for line_number, text in record_lines(stream):
        try:
            entry = ConnectionLog._parse_line(text, parse_address)
        except ParseError as error:
            if policy is ReadPolicy.STRICT:
                raise ParseError(
                    format_line_error(source, line_number, error)
                ) from None
            report.quarantined(CONNLOG, source, line_number, str(error))
            continue
        rows.append((line_number, entry))
    if policy is ReadPolicy.STRICT:
        log = ConnectionLog()
        for line_number, entry in rows:
            try:
                log.add(entry)
            except DatasetError as error:
                raise DatasetError(
                    format_line_error(source, line_number, error)
                ) from None
        report.parsed(CONNLOG, len(rows))
        return log
    by_probe: dict = {}
    for line_number, entry in rows:
        by_probe.setdefault(entry.probe_id, []).append((line_number, entry))
    log = ConnectionLog()
    parsed = 0
    for probe_id in sorted(by_probe):
        items = by_probe[probe_id]
        ordered = sorted(items, key=lambda item: (item[1].start,
                                                  item[1].end))
        displaced = {ordered[i][0] for i in range(len(items))
                     if ordered[i][0] != items[i][0]}
        last_end = float("-inf")
        for line_number, entry in ordered:
            if entry.start < last_end:
                report.quarantined(
                    CONNLOG, source, line_number,
                    "probe %d: connection starting %s overlaps the "
                    "previous one" % (probe_id, entry.start))
                continue
            log.add(entry)
            last_end = entry.end
            if line_number in displaced:
                report.repaired(
                    CONNLOG, source, line_number,
                    "probe %d: out-of-order entry re-sorted" % probe_id)
            else:
                parsed += 1
    report.parsed(CONNLOG, parsed)
    return log


def read_uptime(stream: TextIO, policy: ReadPolicy = ReadPolicy.STRICT,
                report: IngestReport | None = None,
                source: str = "<uptime>") -> UptimeDataset:
    """The record-at-a-time :meth:`UptimeDataset.read`."""
    report = report if report is not None else IngestReport()
    rows = []
    for line_number, text in record_lines(stream):
        try:
            record = UptimeDataset._parse_line(text)
        except ParseError as error:
            if policy is ReadPolicy.STRICT:
                raise ParseError(
                    format_line_error(source, line_number, error)
                ) from None
            report.quarantined(UPTIME, source, line_number, str(error))
            continue
        if record.uptime >= UPTIME_WRAP_MODULUS:
            if policy is ReadPolicy.STRICT:
                raise ParseError(format_line_error(
                    source, line_number,
                    "uptime counter %r beyond the 32-bit wrap"
                    % record.uptime))
            record = UptimeRecord(record.probe_id, record.timestamp,
                                  record.uptime % UPTIME_WRAP_MODULUS)
            report.repaired(UPTIME, source, line_number,
                            "wrapped uptime counter reduced modulo 2**32")
            rows.append((-line_number, record))
            continue
        rows.append((line_number, record))
    if policy is ReadPolicy.STRICT:
        dataset = UptimeDataset()
        for line_number, record in rows:
            try:
                dataset.add(record)
            except DatasetError as error:
                raise DatasetError(
                    format_line_error(source, line_number, error)
                ) from None
        report.parsed(UPTIME, len(rows))
        return dataset
    by_probe: dict = {}
    for line_number, record in rows:
        by_probe.setdefault(record.probe_id, []).append((line_number,
                                                         record))
    dataset = UptimeDataset()
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
                    UPTIME, source, line_number,
                    "probe %d: out-of-order record re-sorted" % probe_id)
            else:
                parsed += 1
    report.parsed(UPTIME, parsed)
    return dataset
