"""Prefix-level analysis of address changes (Section 6, Table 7).

For every address change, compare the old and new address at three
granularities: the routed BGP prefix (via the monthly IP-to-AS snapshot in
force when the new address appeared), the enclosing /16, and the enclosing
/8.  The paper's headline: nearly half of all changes cross BGP prefixes,
and even /8-level blacklist widening fails for a third of them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.changes import AddressChange
from repro.net.pfx2as import UNROUTED, IpToAsDataset
from repro.util.stats import fraction


@dataclass(frozen=True)
class PrefixComparison:
    """Prefix relationships between an old and new address."""

    change: AddressChange
    diff_bgp: bool | None  # None when either address is unrouted
    diff_slash16: bool
    diff_slash8: bool


def _diff_flags(changes: Sequence[AddressChange], ip2as: IpToAsDataset
                ) -> Iterator[tuple[bool | None, bool, bool]]:
    """``(diff_bgp, diff_slash16, diff_slash8)`` for each change, in order.

    Both addresses of every change go through one batched prefix lookup
    in the month of the change; the /16 and /8 tests are bit tests on
    ``old ^ new``.  ``diff_bgp`` is None when either address is unrouted.
    """
    values: list[int] = []
    times: list[float] = []
    for change in changes:
        values += (change.old_address.value, change.new_address.value)
        times += (change.time, change.time)
    ids = ip2as.prefix_ids(values, times)
    for index, change in enumerate(changes):
        old_id = ids[2 * index]
        new_id = ids[2 * index + 1]
        crossed = change.old_address.value ^ change.new_address.value
        yield (None if old_id == UNROUTED or new_id == UNROUTED
               else old_id != new_id,
               crossed >> 16 != 0, crossed >> 24 != 0)


def compare_change(change: AddressChange,
                   ip2as: IpToAsDataset) -> PrefixComparison:
    """Classify one change at BGP / /16 / /8 granularity."""
    diff_bgp, diff_slash16, diff_slash8 = next(_diff_flags([change], ip2as))
    return PrefixComparison(change=change, diff_bgp=diff_bgp,
                            diff_slash16=diff_slash16,
                            diff_slash8=diff_slash8)


@dataclass(frozen=True)
class PrefixChangeRow:
    """One Table 7 row: cross-prefix counts for an AS (or 'All')."""

    as_name: str
    asn: int | None
    country: str
    total_changes: int
    diff_bgp: int
    diff_slash16: int
    diff_slash8: int

    @property
    def pct_bgp(self) -> float:
        """Fraction of changes that crossed BGP prefixes."""
        return fraction(self.diff_bgp, self.total_changes)

    @property
    def pct_slash16(self) -> float:
        """Fraction of changes that crossed /16 boundaries."""
        return fraction(self.diff_slash16, self.total_changes)

    @property
    def pct_slash8(self) -> float:
        """Fraction of changes that crossed /8 boundaries."""
        return fraction(self.diff_slash8, self.total_changes)


def _tally(name: str, asn: int | None, country: str,
           flags: Sequence[tuple[bool | None, bool, bool]]
           ) -> PrefixChangeRow:
    return PrefixChangeRow(
        as_name=name, asn=asn, country=country,
        total_changes=len(flags),
        diff_bgp=sum(1 for diff_bgp, _, _ in flags if diff_bgp),
        diff_slash16=sum(1 for _, diff_slash16, _ in flags if diff_slash16),
        diff_slash8=sum(1 for _, _, diff_slash8 in flags if diff_slash8),
    )


def prefix_change_table(changes_by_probe: Mapping[int, Iterable[AddressChange]],
                        asn_by_probe: Mapping[int, int],
                        ip2as: IpToAsDataset,
                        as_names: Mapping[int, str],
                        as_countries: Mapping[int, str] | None = None,
                        top: int | None = None
                        ) -> tuple[PrefixChangeRow, list[PrefixChangeRow]]:
    """Build Table 7: the 'All' row plus per-AS rows.

    Per-AS rows are ordered by the number of probes contributing changes
    (the paper lists the ten ASes with the most changed probes); ``top``
    truncates the list.
    """
    changes: list[AddressChange] = []
    change_asns: list[int] = []
    probes_by_asn: dict[int, set[int]] = defaultdict(set)
    for probe_id, probe_changes in changes_by_probe.items():
        asn = asn_by_probe[probe_id]
        for change in probe_changes:
            changes.append(change)
            change_asns.append(asn)
            probes_by_asn[asn].add(probe_id)
    all_flags = list(_diff_flags(changes, ip2as))
    by_asn: dict[int, list[tuple[bool | None, bool, bool]]] = defaultdict(
        list)
    for asn, flags in zip(change_asns, all_flags):
        by_asn[asn].append(flags)

    overall = _tally("All", None, "", all_flags)
    rows = [
        _tally(as_names.get(asn, "AS%d" % asn), asn,
               (as_countries or {}).get(asn, ""), flags)
        for asn, flags in by_asn.items()
    ]
    rows.sort(key=lambda row: -len(probes_by_asn[row.asn]))
    if top is not None:
        rows = rows[:top]
    return overall, rows
