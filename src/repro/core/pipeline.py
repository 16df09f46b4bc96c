"""End-to-end analysis pipeline.

Stitches the stages together in the paper's order: filter probes (Table 2),
extract spans/changes/durations, detect reboots and firmware campaigns,
associate gaps with outages, and compute per-probe outage statistics.
:class:`AnalysisResults` then exposes one method per table/figure, which
the experiment drivers and benchmarks call.

Each stage is a named, module-level pure function (``stage_filter``,
``stage_spans``, ``stage_changes``, ``stage_reboots``, ``stage_gaps``,
``stage_stats``, ``stage_v3``) of its declared inputs only.  The four
hot ones run the columnar kernels of :mod:`repro.core.colkernels` over
the array views of :mod:`repro.atlas.columnar`, and those kernels are
per-probe, so they fan out over shards.  :class:`AnalysisPipeline`
chains the stages serially; :mod:`repro.runtime` wires the same
functions into a stage graph, and both assemble their results through
:meth:`AnalysisResults.from_artifacts`, so the two paths cannot drift
apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.atlas.archive import ProbeArchive
from repro.atlas.columnar import ColumnarConnlog, ColumnarUptime
from repro.atlas.connlog import ConnectionLog
from repro.atlas.kroot import KRootDataset
from repro.atlas.sosuptime import UptimeDataset
from repro.atlas.types import ProbeVersion
from repro.core import colkernels, geography
from repro.core.association import GapEvent
from repro.core.changes import AddressChange, AddressSpan
from repro.core.conditional import (
    OutageRenumberingRow,
    ProbeOutageStats,
    conditional_cdf_network,
    conditional_cdf_power,
    outage_renumbering_table,
    probe_outage_stats,
    stats_for_asn,
)
from repro.core.filtering import FilterReport, report_from_verdicts
from repro.core.hourofday import hour_histogram, periodic_change_hours
from repro.core.outage_buckets import DurationBucket, bucket_outages
from repro.core.periodicity import (
    PeriodicityRow,
    all_probes_row,
    as_periodicity_table,
    classify_probe,
)
from repro.core.prefixes import PrefixChangeRow, prefix_change_table
from repro.core.reboots import (
    detect_firmware_days,
    firmware_filtered_reboots,
    reboots_per_day,
)
from repro.core.timefraction import DEFAULT_BIN
from repro.net.pfx2as import IpToAsDataset
from repro.util import timeutil
from repro.util.ordering import ordered, ordered_items
from repro.util.stats import CdfPoint


@dataclass
class AnalysisResults:
    """All per-stage outputs plus table/figure builders."""

    filter_report: FilterReport
    archive: ProbeArchive
    ip2as: IpToAsDataset
    as_names: dict[int, str]
    as_countries: dict[int, str]
    #: Spans per analyzable (geography) probe, testing entry removed.
    spans_by_probe: dict[int, list[AddressSpan]]
    #: Known durations per analyzable (geography) probe.
    durations_by_probe: dict[int, list[float]]
    #: All changes per single-AS (AS-level) probe.
    changes_by_probe: dict[int, list[AddressChange]]
    #: Home AS per single-AS probe.
    asn_by_probe: dict[int, int]
    #: Classified gaps per single-AS probe.
    gap_events_by_probe: dict[int, list[GapEvent]]
    #: Outage statistics per single-AS probe.
    stats_by_probe: dict[int, ProbeOutageStats]
    #: Unique probes rebooting per day of year (raw, Figure 6).
    reboot_day_counts: dict[int, int]
    #: Inferred firmware distribution days (day of year).
    firmware_days: list[int]
    #: Sorted ids (membership-tested only; sorted so the digest and any
    #: future serialization see a deterministic order).
    _v3_probes: tuple[int, ...] = ()

    @classmethod
    def from_artifacts(cls, artifacts: Mapping[str, object],
                       as_names: Mapping[int, str],
                       as_countries: Mapping[int, str]
                       ) -> "AnalysisResults":
        """Assemble the results of a finished run.

        ``artifacts`` maps the stage graph's artifact names — the
        ``archive`` and ``ip2as`` sources plus every stage output — to
        their values.  The one constructor both execution tiers use.
        """
        return cls(
            filter_report=artifacts["filter_report"],
            archive=artifacts["archive"],
            ip2as=artifacts["ip2as"],
            as_names=dict(as_names),
            as_countries=dict(as_countries),
            spans_by_probe=artifacts["spans_by_probe"],
            durations_by_probe=artifacts["durations_by_probe"],
            changes_by_probe=artifacts["changes_by_probe"],
            asn_by_probe=artifacts["asn_by_probe"],
            gap_events_by_probe=artifacts["gap_events_by_probe"],
            stats_by_probe=artifacts["stats_by_probe"],
            reboot_day_counts=artifacts["reboot_day_counts"],
            firmware_days=artifacts["firmware_days"],
            _v3_probes=artifacts["v3_probes"],
        )

    # -- subsets -----------------------------------------------------------

    def as_level_durations(self) -> dict[int, list[float]]:
        """Durations restricted to single-AS probes (Table 5 input)."""
        return {pid: durations
                for pid, durations in self.durations_by_probe.items()
                if pid in self.asn_by_probe}

    def changed_probes(self) -> set[int]:
        """Single-AS probes with at least one address change."""
        return {pid for pid, changes in self.changes_by_probe.items()
                if changes}

    def v3_stats(self) -> dict[int, ProbeOutageStats]:
        """Outage stats restricted to v3 probes (power analysis)."""
        return {pid: stats for pid, stats in self.stats_by_probe.items()
                if pid in self._v3_probes}

    # -- tables -------------------------------------------------------------

    def table2_rows(self) -> list[tuple[str, int]]:
        """Table 2: probe filtering summary."""
        return self.filter_report.table2_rows()

    def table5_rows(self, min_probes: int = 5,
                    min_periodic: int = 3) -> list[PeriodicityRow]:
        """Table 5: per-(AS, period) periodicity rows."""
        return as_periodicity_table(
            self.as_level_durations(), self.asn_by_probe, self.as_names,
            self.as_countries, min_probes=min_probes,
            min_periodic=min_periodic)

    def table5_all_rows(self) -> list[PeriodicityRow]:
        """Table 5's 'All' rows at 24 h and 168 h."""
        durations = self.as_level_durations()
        return [all_probes_row(durations, 24 * timeutil.HOUR),
                all_probes_row(durations, 168 * timeutil.HOUR)]

    def table6_rows(self, min_outages: int = 3,
                    min_qualifying_probes: int = 5
                    ) -> list[OutageRenumberingRow]:
        """Table 6: ASes renumbering on most outages (v3 probes)."""
        return outage_renumbering_table(
            self.v3_stats(), self.asn_by_probe, self.as_names,
            self.as_countries, min_outages=min_outages,
            min_qualifying_probes=min_qualifying_probes)

    def table7(self, top: int | None = 10
               ) -> tuple[PrefixChangeRow, list[PrefixChangeRow]]:
        """Table 7: cross-prefix change counts ('All' row + per-AS rows)."""
        return prefix_change_table(
            self.changes_by_probe, self.asn_by_probe, self.ip2as,
            self.as_names, self.as_countries, top=top)

    # -- figures ------------------------------------------------------------

    def figure1_groups(self) -> list[geography.GroupDurations]:
        """Figure 1: pooled durations per continent."""
        return geography.durations_by_continent(self.durations_by_probe,
                                                self.archive)

    def figure2_cdf(self, asn: int,
                    bin_width: float = DEFAULT_BIN) -> list[CdfPoint]:
        """Figures 2-3 series: one AS's total-time-fraction CDF."""
        group = self.as_group_durations(asn)
        return group.cdf(bin_width)

    def as_group_durations(self, asn: int) -> geography.GroupDurations:
        """Pooled durations of one AS's single-AS probes."""
        pooled: list[float] = []
        for pid, durations in self.as_level_durations().items():
            if self.asn_by_probe[pid] == asn:
                pooled.extend(durations)
        return geography.GroupDurations(
            self.as_names.get(asn, "AS%d" % asn), tuple(pooled))

    def figure3_groups(self, country: str = "DE",
                       min_total_years: float = 3.0
                       ) -> list[geography.GroupDurations]:
        """Figure 3: per-AS breakdown inside one country."""
        return geography.country_as_breakdown(
            self.as_level_durations(), self.asn_by_probe, self.archive,
            country, self.as_names, min_total_years=min_total_years)

    def figure45_histogram(self, asn: int, period: float) -> list[int]:
        """Figures 4-5: hour-of-day histogram of periodic changes."""
        hours: list[int] = []
        for pid, spans in self.spans_by_probe.items():
            if self.asn_by_probe.get(pid) != asn:
                continue
            verdict = classify_probe(pid,
                                     self.durations_by_probe.get(pid, []))
            if verdict.is_periodic and verdict.period == period:
                hours.extend(periodic_change_hours(spans, period))
        return hour_histogram(hours)

    def figure6_series(self) -> tuple[dict[int, int], list[int]]:
        """Figure 6: reboots per day plus inferred firmware days."""
        return self.reboot_day_counts, self.firmware_days

    def figure7_cdf(self, asn: int, min_outages: int = 3) -> list[CdfPoint]:
        """Figure 7: CDF of P(ac|nw) for one AS's changed probes."""
        stats = stats_for_asn(self.stats_by_probe, self.asn_by_probe, asn,
                              changed_probes=self.changed_probes())
        return conditional_cdf_network(stats, min_outages=min_outages)

    def figure8_cdf(self, asn: int, min_outages: int = 3) -> list[CdfPoint]:
        """Figure 8: CDF of P(ac|pw) for one AS's v3 changed probes."""
        stats = stats_for_asn(self.v3_stats(), self.asn_by_probe, asn,
                              changed_probes=self.changed_probes())
        return conditional_cdf_power(stats, min_outages=min_outages)

    def churn_series(self, start: float, end: float):
        """Daily active-address churn (Section 8 / Richter et al.)."""
        from repro.core.churn import churn_series, daily_active_addresses
        daily = daily_active_addresses(self.spans_by_probe, start, end)
        return churn_series(daily)

    def administrative_renumberings(self, start: float,
                                    min_probes: int = 5):
        """Mass prefix migrations detected per AS (Section 8)."""
        from repro.core.churn import detect_administrative_renumbering
        return detect_administrative_renumbering(
            self.changes_by_probe, self.asn_by_probe, self.ip2as, start,
            min_probes=min_probes)

    def figure9_buckets(self, asn: int) -> list[DurationBucket]:
        """Figure 9: renumbering by outage duration for one AS.

        Network outages come from probes of all versions; power outages
        only from v3 probes, per Section 5.4.
        """
        events: list[GapEvent] = []
        from repro.core.association import GapCause
        for pid, gaps in self.gap_events_by_probe.items():
            if self.asn_by_probe.get(pid) != asn:
                continue
            is_v3 = pid in self._v3_probes
            for event in gaps:
                if event.cause is GapCause.NETWORK or (
                        event.cause is GapCause.POWER and is_v3):
                    events.append(event)
        return bucket_outages(events)


# -- named pure stage functions ---------------------------------------------
#
# The decomposition of the analysis.  Every function depends only on its
# arguments, so results are a pure function of the input datasets; the
# columnar kernels behind the hot stages are additionally independent
# across probes, which is what makes shard-parallel execution
# (repro.runtime) bit-identical to the serial path.

def stage_filter(col: ColumnarConnlog, connlog: ConnectionLog,
                 archive: ProbeArchive, ip2as: IpToAsDataset,
                 min_connected: float = 30 * timeutil.DAY) -> FilterReport:
    """Stage ``filter``: classify every probe (Table 2)."""
    return report_from_verdicts(colkernels.classify_probes(
        col, connlog, archive, ip2as, min_connected))


def stage_spans(col: ColumnarConnlog, connlog: ConnectionLog,
                filter_report: FilterReport
                ) -> tuple[dict[int, list[AddressSpan]],
                           dict[int, list[float]]]:
    """Stage ``spans``: address spans/durations per geography probe."""
    return split_spans(colkernels.probe_spans_col(
        col, connlog, filter_report.analyzable_geo()))


def split_spans(payload: Mapping[int, tuple[list[AddressSpan], list[float]]]
                ) -> tuple[dict[int, list[AddressSpan]],
                           dict[int, list[float]]]:
    """Per-probe ``(spans, durations)`` pairs as stage ``spans``' outputs.

    Probes without a known duration get no ``durations_by_probe`` key.
    """
    spans_by_probe: dict[int, list[AddressSpan]] = {}
    durations_by_probe: dict[int, list[float]] = {}
    for probe_id, (spans, durations) in payload.items():
        spans_by_probe[probe_id] = spans
        if durations:
            durations_by_probe[probe_id] = durations
    return spans_by_probe, durations_by_probe


def stage_changes(filter_report: FilterReport
                  ) -> tuple[dict[int, list[AddressChange]], dict[int, int]]:
    """Stage ``changes``: changes and home AS per single-AS probe."""
    changes_by_probe: dict[int, list[AddressChange]] = {}
    asn_by_probe: dict[int, int] = {}
    for probe_id in filter_report.analyzable_as():
        verdict = filter_report.verdicts[probe_id]
        if verdict.asn is None:
            continue
        changes_by_probe[probe_id] = verdict.changes
        asn_by_probe[probe_id] = verdict.asn
    return changes_by_probe, asn_by_probe


def aggregate_reboots(raw_reboots: Mapping[int, list]
                      ) -> tuple[dict[int, int], list[int], dict[int, list]]:
    """Aggregation half of stage ``reboots``.

    Per-probe detection is shard-parallel; this global barrier (firmware
    campaigns are inferred from the all-probe day histogram) is what the
    sharded executor runs in the parent after merging shard results.
    """
    day_counts = reboots_per_day(raw_reboots)
    firmware_days = detect_firmware_days(day_counts)
    campaign_times = [timeutil.YEAR_2015_START + (day - 1) * timeutil.DAY
                      for day in firmware_days]
    filtered = firmware_filtered_reboots(raw_reboots, campaign_times)
    return day_counts, firmware_days, filtered


def stage_reboots(colup: ColumnarUptime
                  ) -> tuple[dict[int, int], list[int], dict[int, list]]:
    """Stage ``reboots``: day counts, firmware days, filtered reboots."""
    return aggregate_reboots(colkernels.detect_reboots_col(colup))


def gap_items(filter_report: FilterReport, kroot: KRootDataset,
              filtered_reboots: Mapping[int, list]
              ) -> list[tuple[int, list]]:
    """Stage ``gaps``' work items: ``(probe id, filtered reboots)`` for
    every single-AS probe the k-root dataset covers, in sorted order."""
    # analyzable_as() is sorted already; the explicit barrier lets
    # RPR009 prove the output's key order without trusting that.
    return [(probe_id, filtered_reboots.get(probe_id, []))
            for probe_id in ordered(filter_report.analyzable_as())
            if kroot.has_probe(probe_id)]


def stage_gaps(col: ColumnarConnlog, kroot: KRootDataset,
               filter_report: FilterReport,
               filtered_reboots: Mapping[int, list]
               ) -> dict[int, list[GapEvent]]:
    """Stage ``gaps``: associate connection gaps with observed outages."""
    return colkernels.gap_events_col(
        col, kroot, gap_items(filter_report, kroot, filtered_reboots))


def stage_stats(gap_events_by_probe: Mapping[int, list[GapEvent]]
                ) -> dict[int, ProbeOutageStats]:
    """Stage ``stats``: per-probe conditional outage statistics.

    Iterates in sorted-key order rather than insertion order: the input
    mapping is sorted however it was produced (serial loop or shard
    merge), but this stage's output feeds the digest, so its order must
    not *depend* on that (RPR009).
    """
    return {probe_id: probe_outage_stats(probe_id, events)
            for probe_id, events in ordered_items(gap_events_by_probe)}


def stage_v3(asn_by_probe: Mapping[int, int],
             archive: ProbeArchive) -> tuple[int, ...]:
    """Stage ``v3``: single-AS probes with v3 hardware (power analysis).

    Returned sorted: the ids land in ``AnalysisResults`` and flow into
    the results digest, so their order is part of the reproducibility
    contract (RPR009).
    """
    return tuple(sorted(
        pid for pid in asn_by_probe
        if archive.has_probe(pid)
        and archive.get(pid).version is ProbeVersion.V3
    ))


class AnalysisPipeline:
    """Runs the full analysis over one set of input datasets.

    Degradation contract: the three auxiliary datasets are treated as
    *partial* — the paper's probes were routinely missing from one of
    them.  A probe absent from the k-root dataset contributes no outage
    stats (it still feeds periodicity and prefix analysis); a probe
    absent from SOS-uptime simply has no reboots; a probe absent from
    the archive is skipped by geography and the v3 power analysis.
    Only the connection log decides which probes exist at all.
    """

    def __init__(self, connlog: ConnectionLog, archive: ProbeArchive,
                 kroot: KRootDataset, uptime: UptimeDataset,
                 ip2as: IpToAsDataset,
                 as_names: Mapping[int, str] | None = None,
                 as_countries: Mapping[int, str] | None = None,
                 min_connected: float = 30 * timeutil.DAY) -> None:
        self._connlog = connlog
        self._archive = archive
        self._kroot = kroot
        self._uptime = uptime
        self._ip2as = ip2as
        self._as_names = dict(as_names or {})
        self._as_countries = dict(as_countries or {})
        self._min_connected = min_connected

    def run(self) -> AnalysisResults:
        """Execute all stages serially and return the results object."""
        col = ColumnarConnlog.from_connlog(self._connlog)
        out: dict[str, object] = {"archive": self._archive,
                                  "ip2as": self._ip2as}
        report = out["filter_report"] = stage_filter(
            col, self._connlog, self._archive, self._ip2as,
            self._min_connected)
        out["spans_by_probe"], out["durations_by_probe"] = stage_spans(
            col, self._connlog, report)
        out["changes_by_probe"], out["asn_by_probe"] = stage_changes(report)
        (out["reboot_day_counts"], out["firmware_days"],
         filtered_reboots) = stage_reboots(
            ColumnarUptime.from_uptime(self._uptime))
        out["gap_events_by_probe"] = stage_gaps(
            col, self._kroot, report, filtered_reboots)
        out["stats_by_probe"] = stage_stats(out["gap_events_by_probe"])
        out["v3_probes"] = stage_v3(out["asn_by_probe"], self._archive)
        return AnalysisResults.from_artifacts(out, self._as_names,
                                              self._as_countries)


def pipeline_for_world(world,
                       min_connected: float | None = None
                       ) -> AnalysisPipeline:
    """Convenience: build a pipeline from a simulated WorldData.

    AS names and countries come from the scenario's ISP specs, mirroring
    how the paper labels its tables.  ``min_connected`` defaults to the
    paper's 30 days, capped at a tenth of the scenario window so short
    test scenarios keep their probes.
    """
    as_names: dict[int, str] = {}
    as_countries: dict[int, str] = {}
    for profile in world.config.profiles:
        as_names[profile.spec.asn] = profile.spec.name
        as_countries[profile.spec.asn] = profile.spec.country
    if min_connected is None:
        window = world.config.end - world.config.start
        min_connected = min(30 * timeutil.DAY, window / 10)
    return AnalysisPipeline(world.connlog, world.archive, world.kroot,
                            world.uptime, world.ip2as,
                            as_names=as_names, as_countries=as_countries,
                            min_connected=min_connected)


def pipeline_for_bundle(bundle,
                        min_connected: float | None = None
                        ) -> AnalysisPipeline:
    """Convenience: build a pipeline from a loaded on-disk dataset bundle.

    Mirror of :func:`pipeline_for_world` for the write-once, analyze-many
    workflow (:class:`repro.sim.io.DatasetBundle`); AS names and countries
    were stored in the bundle's ``meta.json`` at simulation time.  Lives
    here rather than in :mod:`repro.sim.io` because constructing the
    analysis pipeline is a core-layer concern — sim must not import core.
    """
    if min_connected is None:
        window = bundle.end - bundle.start
        min_connected = min(30 * timeutil.DAY, window / 10)
    return AnalysisPipeline(
        bundle.connlog, bundle.archive, bundle.kroot, bundle.uptime,
        bundle.ip2as, as_names=bundle.as_names,
        as_countries=bundle.as_countries, min_connected=min_connected)
