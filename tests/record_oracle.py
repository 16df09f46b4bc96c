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

from repro.core.association import GapCause, GapEvent, associate_probe_gaps
from repro.core.changes import (
    AddressSpan,
    extract_spans,
    known_durations,
    strip_testing_entry,
)
from repro.core.colartifact import (
    ColumnarFilterArtifact,
    ColumnarFloatMap,
    ColumnarGapEventMap,
    ColumnarRebootMap,
    ColumnarSpanMap,
)
from repro.core.conditional import ProbeOutageStats, probe_outage_stats
from repro.core.filtering import FilterReport, ProbeCategory, ProbeFilter
from repro.core.pipeline import (
    AnalysisResults,
    aggregate_reboots,
    stage_changes,
    stage_v3,
)
from repro.core.reboots import detect_all_reboots
from repro.net.ipv4 import TESTING_ADDRESS
from repro.util import timeutil
from repro.util.ordering import ordered, ordered_items


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
    return aggregate_reboots(reboot_table(detect_all_reboots(uptime)))


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


def stage_stats(gap_events_by_probe: Mapping[int, list[GapEvent]]
                ) -> dict[int, ProbeOutageStats]:
    """Stage ``stats``: tally every probe's classified gaps, one by one."""
    return {probe_id: probe_outage_stats(probe_id, events)
            for probe_id, events in ordered_items(gap_events_by_probe)}


# -- objects -> tables ---------------------------------------------------------
#
# The record kernels build per-probe dicts of objects; production stages
# emit colartifact tables.  These encoders lay the oracle's objects out in
# the tables' columns, field by field, so the two meet at the table and
# ``to_map()`` / ``to_report()`` can be checked against the originals.

def filter_table(report: FilterReport) -> ColumnarFilterArtifact:
    """A report's verdicts as a filter table (entry lists dropped)."""
    code_of = {category: code for code, category in enumerate(ProbeCategory)}
    counts, old, new, gap_start, gap_end, within = [], [], [], [], [], []
    for verdict in report.verdicts.values():
        pending = list(verdict.within_as_changes)
        for change in verdict.changes:
            old.append(change.old_address.value)
            new.append(change.new_address.value)
            gap_start.append(change.gap_start)
            gap_end.append(change.gap_end)
            matched = bool(pending) and pending[0] == change
            if matched:
                pending.pop(0)
            within.append(matched)
        # within_as_changes is an ordered subset of changes.
        assert not pending, verdict.probe_id
        counts.append(len(verdict.changes))
    verdicts = list(report.verdicts.values())
    return ColumnarFilterArtifact.build(
        counts, probe_ids=[v.probe_id for v in verdicts],
        categories=[code_of[v.category] for v in verdicts],
        multi_as=[v.multi_as for v in verdicts],
        asns=[-1 if v.asn is None else v.asn for v in verdicts],
        change_old=old, change_new=new, change_gap_start=gap_start,
        change_gap_end=gap_end, change_within=within)


def _items(by_probe: Mapping[int, list]) -> tuple[list[int], list]:
    """Keys in dict order and every item, each checked against its key."""
    items = [item for values in by_probe.values() for item in values]
    for probe_id, values in by_probe.items():
        for item in values:
            if item.probe_id != probe_id:
                # A table row's items all take the row's probe id.
                raise ValueError("item probe_id %d under key %d cannot be "
                                 "encoded" % (item.probe_id, probe_id))
    return list(by_probe), items


def span_table(spans_by_probe: Mapping[int, list[AddressSpan]]
               ) -> ColumnarSpanMap:
    probe_ids, spans = _items(spans_by_probe)
    return ColumnarSpanMap.build(
        [len(values) for values in spans_by_probe.values()],
        probe_ids=probe_ids, address=[span.address.value for span in spans],
        start=[span.start for span in spans],
        end=[span.end for span in spans],
        complete_start=[span.complete_start for span in spans],
        complete_end=[span.complete_end for span in spans])


def float_table(values_by_probe: Mapping[int, list[float]]
                ) -> ColumnarFloatMap:
    return ColumnarFloatMap.build(
        [len(values) for values in values_by_probe.values()],
        probe_ids=list(values_by_probe),
        values=[value for values in values_by_probe.values()
                for value in values])


def reboot_table(reboots_by_probe: Mapping[int, list]) -> ColumnarRebootMap:
    probe_ids, reboots = _items(reboots_by_probe)
    return ColumnarRebootMap.build(
        [len(values) for values in reboots_by_probe.values()],
        probe_ids=probe_ids, time=[reboot.time for reboot in reboots],
        reported_at=[reboot.reported_at for reboot in reboots])


def gap_table(events_by_probe: Mapping[int, list[GapEvent]]
              ) -> ColumnarGapEventMap:
    code_of = {cause: code for code, cause in enumerate(GapCause)}
    probe_ids, events = _items(events_by_probe)
    return ColumnarGapEventMap.build(
        [len(values) for values in events_by_probe.values()],
        probe_ids=probe_ids, gap_start=[event.gap_start for event in events],
        gap_end=[event.gap_end for event in events],
        cause=[code_of[event.cause] for event in events],
        address_changed=[event.address_changed for event in events],
        outage_duration=[event.outage_duration for event in events])


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

    The four hot stages and the stats tally are the record kernels
    here; the cheap aggregate stages are production's own functions, fed
    the record outputs laid out as tables.
    """
    out: dict[str, object] = {"archive": archive, "ip2as": ip2as}
    report = stage_filter(connlog, archive, ip2as, min_connected)
    out["filter_report"] = filter_table(report)
    spans, durations = stage_spans(report)
    out["spans_by_probe"] = span_table(spans)
    out["durations_by_probe"] = float_table(durations)
    out["changes_by_probe"], out["asn_by_probe"] = stage_changes(
        out["filter_report"])
    (out["reboot_day_counts"], out["firmware_days"],
     filtered_reboots) = stage_reboots(uptime)
    events = stage_gaps(report, kroot, filtered_reboots)
    out["gap_events_by_probe"] = gap_table(events)
    out["stats_by_probe"] = stage_stats(events)
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
