"""The record-at-a-time stage kernels, kept as the differential oracle.

Production runs the four hot stages (``filter``, ``spans``, ``reboots``,
``gaps``) through the columnar kernels of :mod:`repro.core.colkernels`.
The functions here are the original record wrappers over the primitives
that stay in ``src`` — :class:`~repro.core.filtering.ProbeFilter`,
:func:`~repro.core.changes.extract_spans`,
:func:`~repro.core.reboots.detect_reboots` and
:func:`~repro.core.association.associate_probe_gaps` — walking one
probe's records at a time.  They are the implementation the pinned
digests were first computed with, and the differential tests hold every
production path (serial, sharded, cached, REPAIR bundles) to them.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.association import GapEvent, associate_probe_gaps
from repro.core.changes import (
    AddressSpan,
    extract_spans,
    known_durations,
    strip_testing_entry,
)
from repro.core.filtering import FilterReport, ProbeCategory, ProbeFilter
from repro.core.pipeline import (
    AnalysisResults,
    aggregate_reboots,
    stage_changes,
    stage_stats,
    stage_v3,
)
from repro.core.reboots import detect_all_reboots
from repro.net.ipv4 import TESTING_ADDRESS
from repro.util import timeutil
from repro.util.ordering import ordered


def stage_filter(connlog, archive, ip2as,
                 min_connected: float = 30 * timeutil.DAY) -> FilterReport:
    """Stage ``filter``: classify every probe (Table 2)."""
    return ProbeFilter(connlog, archive, ip2as,
                       min_connected=min_connected).run()


def probe_spans(entries) -> tuple[list[AddressSpan], list[float]]:
    """Per-probe kernel for stage ``spans``: spans and known durations."""
    spans = extract_spans(entries)
    return spans, known_durations(spans)


def stage_spans(filter_report: FilterReport
                ) -> tuple[dict[int, list[AddressSpan]],
                           dict[int, list[float]]]:
    """Stage ``spans``: address spans/durations per geography probe."""
    spans_by_probe: dict[int, list[AddressSpan]] = {}
    durations_by_probe: dict[int, list[float]] = {}
    for probe_id in filter_report.analyzable_geo():
        spans, durations = probe_spans(
            filter_report.verdicts[probe_id].entries)
        spans_by_probe[probe_id] = spans
        if durations:
            durations_by_probe[probe_id] = durations
    return spans_by_probe, durations_by_probe


def stage_reboots(uptime
                  ) -> tuple[dict[int, int], list[int], dict[int, list]]:
    """Stage ``reboots``: day counts, firmware days, filtered reboots."""
    return aggregate_reboots(detect_all_reboots(uptime))


def probe_gap_events(entries, series, reboots) -> list[GapEvent]:
    """Per-probe kernel for stage ``gaps``: classify one probe's gaps."""
    return associate_probe_gaps(entries, series, reboots)


def stage_gaps(filter_report: FilterReport, kroot,
               filtered_reboots: Mapping[int, list]
               ) -> dict[int, list[GapEvent]]:
    """Stage ``gaps``: associate connection gaps with observed outages."""
    gap_events_by_probe: dict[int, list[GapEvent]] = {}
    for probe_id in ordered(filter_report.analyzable_as()):
        if not kroot.has_probe(probe_id):
            continue
        gap_events_by_probe[probe_id] = probe_gap_events(
            filter_report.verdicts[probe_id].entries, kroot.series(probe_id),
            filtered_reboots.get(probe_id, []))
    return gap_events_by_probe


#: Categories whose verdicts carry entry lists; every other category
#: stores ``entries=[]`` by construction.
_ENTRY_CATEGORIES = (ProbeCategory.TESTING_ONLY, ProbeCategory.NEVER_CHANGED,
                     ProbeCategory.ANALYZABLE)


def restore_entries(report: FilterReport, connlog) -> FilterReport:
    """Rebuild the entry lists a slim (cached or shard) report dropped.

    A verdict's entries are always ``strip_testing_entry`` of the
    probe's connection-log entries, so a slim report plus the log
    reconstructs what :func:`stage_filter` builds.  Mutates ``report``
    in place and returns it.
    """
    for verdict in report.verdicts.values():
        if verdict.category in _ENTRY_CATEGORIES and not verdict.entries:
            verdict.entries, _ = strip_testing_entry(
                connlog.entries(verdict.probe_id), TESTING_ADDRESS)
    return report


def oracle_results(connlog, archive, kroot, uptime, ip2as,
                   as_names: Mapping[int, str] | None = None,
                   as_countries: Mapping[int, str] | None = None,
                   min_connected: float = 30 * timeutil.DAY
                   ) -> AnalysisResults:
    """The whole analysis with the record kernels in the hot stages.

    The cheap aggregate stages are production's own functions; only the
    four hot stages differ from :meth:`AnalysisPipeline.run`.
    """
    out: dict[str, object] = {"archive": archive, "ip2as": ip2as}
    report = out["filter_report"] = stage_filter(connlog, archive, ip2as,
                                                 min_connected)
    out["spans_by_probe"], out["durations_by_probe"] = stage_spans(report)
    out["changes_by_probe"], out["asn_by_probe"] = stage_changes(report)
    (out["reboot_day_counts"], out["firmware_days"],
     filtered_reboots) = stage_reboots(uptime)
    out["gap_events_by_probe"] = stage_gaps(report, kroot, filtered_reboots)
    out["stats_by_probe"] = stage_stats(out["gap_events_by_probe"])
    out["v3_probes"] = stage_v3(out["asn_by_probe"], archive)
    return AnalysisResults.from_artifacts(out, as_names or {},
                                          as_countries or {})


def oracle_results_for_bundle(bundle) -> AnalysisResults:
    """:func:`oracle_results` over a loaded bundle, with the same
    ``min_connected`` default as ``runner_for_bundle``."""
    window = bundle.end - bundle.start
    return oracle_results(
        bundle.connlog, bundle.archive, bundle.kroot, bundle.uptime,
        bundle.ip2as, as_names=bundle.as_names,
        as_countries=bundle.as_countries,
        min_connected=min(30 * timeutil.DAY, window / 10))
