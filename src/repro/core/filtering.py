"""Probe filtering pipeline (Sections 3.2-3.3, Table 2).

Classifies every probe into exactly one category.  The paper's Table 2 is
presentational; we document an explicit precedence:

1. insufficient data (connected < 30 days — excluded from the total);
2. IPv6-only;
3. dual-stack;
4. tagged multihomed / datacentre / core;
5. behaviourally multihomed (address-alternation heuristic);
6. testing-address-only (first entry from 193.0.0.78, no further changes);
7. never changed;
8. analyzable — split into single-AS (AS-level analysis) and multi-AS
   (geography only), using monthly IP-to-AS snapshots.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from repro.atlas.archive import ProbeArchive
from repro.atlas.connlog import ConnectionLog
from repro.atlas.types import ConnectionLogEntry
from repro.core.changes import AddressChange, extract_changes, strip_testing_entry
from repro.net.ipv4 import TESTING_ADDRESS, IPv4Address
from repro.net.pfx2as import IpToAsDataset
from repro.util.timeutil import DAY

#: An address seen in this many separate runs marks a probe as alternating
#: between concurrently held addresses (behavioural multihoming).  The
#: threshold is high enough that an ISP re-granting a previously held
#: address by chance (the paper's 'Harmonics') never trips it.
MULTIHOMED_MIN_RUNS = 5


class ProbeCategory(enum.Enum):
    """The Table 2 bucket a probe falls into."""

    SHORT_LIVED = "connected under 30 days"
    IPV6_ONLY = "IPv6"
    DUAL_STACK = "dual stack"
    TAGGED = "multihomed/core/datacenter (tags)"
    MULTIHOMED = "multihomed (alternating addresses)"
    TESTING_ONLY = "only address change from 193.0.0.78"
    NEVER_CHANGED = "never changed"
    ANALYZABLE = "analyzable"


@dataclass
class ProbeVerdict:
    """Classification outcome for one probe.

    Verdicts are pickled twice over: inside shard payloads crossing the
    worker boundary, and (entry-stripped) inside the cached
    ``FilterReport`` artifact — so the field layout is a wire contract
    (RPR010).
    """

    __wire_contract__ = "probe-verdict"

    probe_id: int
    category: ProbeCategory
    #: Entries after testing-entry removal (empty for filtered probes).
    entries: list[ConnectionLogEntry] = field(default_factory=list)
    #: All observed changes (for analyzable probes).
    changes: list[AddressChange] = field(default_factory=list)
    #: Changes whose endpoints map to the same AS.
    within_as_changes: list[AddressChange] = field(default_factory=list)
    #: True when some change crossed autonomous systems.
    multi_as: bool = False
    #: The AS the probe's addresses map to (single-AS probes only).
    asn: int | None = None


@dataclass
class FilterReport:
    """Aggregate filtering outcome, the reproduction of Table 2.

    The slim (entry-stripped) form of this report is the cached filter
    artifact, read back by later runs — a wire contract (RPR010).
    """

    __wire_contract__ = "filter-artifact"

    verdicts: dict[int, ProbeVerdict]
    total: int

    def probes_in(self, category: ProbeCategory) -> list[int]:
        """Probe ids classified into a category."""
        return sorted(v.probe_id for v in self.verdicts.values()
                      if v.category is category)

    def count(self, category: ProbeCategory) -> int:
        """Number of probes in a category."""
        return sum(1 for v in self.verdicts.values()
                   if v.category is category)

    def analyzable_geo(self) -> list[int]:
        """Probes usable for geographic analysis (Section 4.2)."""
        return self.probes_in(ProbeCategory.ANALYZABLE)

    def analyzable_as(self) -> list[int]:
        """Single-AS probes usable for AS-level analysis (Section 4.3)."""
        return sorted(v.probe_id for v in self.verdicts.values()
                      if v.category is ProbeCategory.ANALYZABLE
                      and not v.multi_as)

    def multi_as_probes(self) -> list[int]:
        """Analyzable probes whose changes span multiple ASes."""
        return sorted(v.probe_id for v in self.verdicts.values()
                      if v.category is ProbeCategory.ANALYZABLE
                      and v.multi_as)

    def table2_rows(self) -> list[tuple[str, int]]:
        """Rows in the paper's Table 2 ordering."""
        return [
            ("Total Probes", self.total),
            ("Never changed", self.count(ProbeCategory.NEVER_CHANGED)),
            ("Dual Stack", self.count(ProbeCategory.DUAL_STACK)),
            ("IPv6", self.count(ProbeCategory.IPV6_ONLY)),
            ("Multihomed / Core / Data-center (tags)",
             self.count(ProbeCategory.TAGGED)),
            ("Multihomed (alternating addresses)",
             self.count(ProbeCategory.MULTIHOMED)),
            ("Only address change from 193.0.0.78",
             self.count(ProbeCategory.TESTING_ONLY)),
            ("Analyzable (geography)", len(self.analyzable_geo())),
            ("Multiple ASes", len(self.multi_as_probes())),
            ("Analyzable (AS-level)", len(self.analyzable_as())),
        ]


def report_from_verdicts(verdicts: dict[int, ProbeVerdict]) -> FilterReport:
    """Assemble the Table 2 report from per-probe verdicts.

    The total excludes short-lived probes, matching the paper's Table 2
    denominator.  Split out from :meth:`ProbeFilter.run` so a sharded
    executor can merge per-shard verdict maps into the identical report.
    """
    total = sum(1 for v in verdicts.values()
                if v.category is not ProbeCategory.SHORT_LIVED)
    return FilterReport(verdicts=verdicts, total=total)


def looks_multihomed(addresses: Sequence[IPv4Address],
                     min_runs: int = MULTIHOMED_MIN_RUNS) -> bool:
    """Heuristic from Section 3.2: one address recurs in many separate runs.

    A probe alternating between a fixed and a changing address produces a
    run of the fixed address between every pair of dynamic connections.
    """
    runs: dict[int, int] = {}
    previous: int | None = None
    for address in addresses:
        if address.value != previous:
            runs[address.value] = runs.get(address.value, 0) + 1
            previous = address.value
    return bool(runs) and max(runs.values()) >= min_runs


class ProbeFilter:
    """Runs the classification over a connection log."""

    def __init__(self, connlog: ConnectionLog, archive: ProbeArchive,
                 ip2as: IpToAsDataset,
                 min_connected: float = 30 * DAY) -> None:
        self._connlog = connlog
        self._archive = archive
        self._ip2as = ip2as
        self._min_connected = min_connected

    def run(self) -> FilterReport:
        """Classify every probe in the log."""
        verdicts = {probe_id: self.classify(probe_id)
                    for probe_id in self._connlog.probe_ids()}
        return report_from_verdicts(verdicts)

    def classify(self, probe_id: int) -> ProbeVerdict:
        """Classify one probe; pure per-probe kernel, shard-safe."""
        entries = self._connlog.entries(probe_id)
        if self._connlog.total_connected_time(probe_id) < self._min_connected:
            return ProbeVerdict(probe_id, ProbeCategory.SHORT_LIVED)

        has_v6 = any(e.is_ipv6 for e in entries)
        has_v4 = any(not e.is_ipv6 for e in entries)
        if has_v6 and not has_v4:
            return ProbeVerdict(probe_id, ProbeCategory.IPV6_ONLY)
        if has_v6:
            return ProbeVerdict(probe_id, ProbeCategory.DUAL_STACK)

        if (self._archive.has_probe(probe_id)
                and self._archive.get(probe_id).has_filtered_tag):
            return ProbeVerdict(probe_id, ProbeCategory.TAGGED)

        if looks_multihomed([e.address for e in entries]):
            return ProbeVerdict(probe_id, ProbeCategory.MULTIHOMED)

        entries, had_testing = strip_testing_entry(entries, TESTING_ADDRESS)
        changes = extract_changes(entries)
        if not changes:
            category = (ProbeCategory.TESTING_ONLY if had_testing
                        else ProbeCategory.NEVER_CHANGED)
            return ProbeVerdict(probe_id, category, entries=entries)

        within, multi_as, asn = self._split_by_as(changes, entries)
        return ProbeVerdict(
            probe_id, ProbeCategory.ANALYZABLE, entries=entries,
            changes=changes, within_as_changes=within, multi_as=multi_as,
            asn=asn)

    def _split_by_as(self, changes: list[AddressChange],
                     entries: list[ConnectionLogEntry]
                     ) -> tuple[list[AddressChange], bool, int | None]:
        """Partition changes into within-AS and cross-AS (Section 3.3)."""
        within: list[AddressChange] = []
        multi_as = False
        for change in changes:
            old_asn = self._ip2as.origin_asn(change.old_address, change.time)
            new_asn = self._ip2as.origin_asn(change.new_address, change.time)
            if old_asn is not None and new_asn is not None \
                    and old_asn != new_asn:
                multi_as = True
            else:
                within.append(change)
        asn: int | None = None
        if not multi_as:
            first_v4 = next((e for e in entries if not e.is_ipv6), None)
            if first_v4 is not None:
                asn = self._ip2as.origin_asn(first_v4.address, first_v4.start)
        return within, multi_as, asn
