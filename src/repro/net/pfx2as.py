"""IP-to-AS mapping with monthly snapshots (CAIDA pfx2as equivalent).

Section 3.3 of the paper maps each newly assigned address to its autonomous
system using CAIDA's *monthly* Routeviews pfx2as dataset: the snapshot for
the month in which the address was assigned is the one consulted.
:class:`IpToAsDataset` reproduces that interface.

Snapshots serialize to the pfx2as text format (``network<TAB>length<TAB>asn``
per line) so tests can exercise round-trips and malformed-input handling.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from repro.errors import DatasetError, ParseError
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.util import timeutil
from repro.util.ingest import (
    IngestReport,
    ReadPolicy,
    format_line_error,
    record_lines,
)

#: Dataset label used in ingest accounting and diagnostics.
DATASET_NAME = "pfx2as"


@dataclass(frozen=True)
class AsMapping:
    """One routed prefix and its origin AS number."""

    prefix: IPv4Prefix
    asn: int

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ParseError("ASN must be positive, got %r" % (self.asn,))


#: Sentinel in flattened stab tables for unrouted address space, both
#: as an ASN and as a prefix id.
UNROUTED = -1


def prefix_id(prefix: IPv4Prefix) -> int:
    """A prefix as one integer: ``network << 6 | length``.

    Ids are equal exactly when the prefixes are, and order like the
    prefixes themselves (by network, then length), so batched lookups
    can compare, dedupe and sort plain ints.
    """
    return prefix.network << 6 | prefix.length


def prefix_of_id(pid: int) -> IPv4Prefix:
    """The prefix a :func:`prefix_id` value stands for."""
    return IPv4Prefix(pid >> 6, pid & 63)


class Pfx2AsSnapshot:
    """A single month's prefix-to-AS table with longest-prefix lookup.

    Every lookup goes through one flattened stab table (see
    :meth:`prefix_table`), built on first use and dropped by :meth:`add`.
    """

    def __init__(self, mappings: Iterable[AsMapping] = ()) -> None:
        self._mappings: dict[IPv4Prefix, AsMapping] = {}
        #: ``(bounds, prefix ids, asns)``, per segment.
        self._table: tuple[list[int], list[int], list[int]] | None = None
        self._stab_arrays: tuple | None = None
        for mapping in mappings:
            self.add(mapping)

    def __len__(self) -> int:
        return len(self._mappings)

    def add(self, mapping: AsMapping) -> None:
        """Insert a mapping, replacing any previous entry for the prefix."""
        self._mappings[mapping.prefix] = mapping
        self._table = None  # flattened table (and its arrays) are stale
        self._stab_arrays = None

    def _segment(self, address: IPv4Address) -> int:
        bounds = self._stab()[0]
        return bisect_right(bounds, address.value) - 1

    def origin_asn(self, address: IPv4Address) -> int | None:
        """Return the origin ASN for ``address`` or None when unrouted."""
        asn = self._stab()[2][self._segment(address)]
        return None if asn == UNROUTED else asn

    def bgp_prefix(self, address: IPv4Address) -> IPv4Prefix | None:
        """Return the longest routed prefix covering ``address``.

        This is the 'BGP prefix' granularity of Table 7.
        """
        pid = self._stab()[1][self._segment(address)]
        return None if pid == UNROUTED else prefix_of_id(pid)

    def mappings(self) -> Iterator[AsMapping]:
        """Yield all mappings in address order."""
        for prefix in sorted(self._mappings):
            yield self._mappings[prefix]

    def prefix_table(self) -> tuple[list[int], list[int]]:
        """The mappings flattened into a longest-prefix-match stab table.

        Returns ``(bounds, ids)``: ``bounds`` is a sorted list of segment
        start addresses beginning at 0, and ``ids[i]`` is the
        :func:`prefix_id` of the most specific prefix covering
        ``[bounds[i], bounds[i+1])`` — :data:`UNROUTED` where no prefix
        covers the segment.  Lookup is ``ids[bisect_right(bounds, addr)
        - 1]``.  Distinct prefixes keep distinct segments even when they
        share an origin AS.
        """
        bounds, ids, _ = self._stab()
        return bounds, ids

    def stab_table(self) -> tuple[list[int], list[int]]:
        """:meth:`prefix_table` with each segment's origin ASN for its id.

        ``asns[bisect_right(bounds, addr) - 1]`` equals
        :meth:`origin_asn` for every address (:data:`UNROUTED` for
        None).
        """
        bounds, _, asns = self._stab()
        return bounds, asns

    def _stab(self) -> tuple[list[int], list[int], list[int]]:
        """Build (once per :meth:`add`) the segment table of every lookup.

        One sweep over the prefixes in address order, where parents
        precede their more-specifics: a stack of open prefixes paints
        most-specific-wins segments, and each segment's ASN is read off
        its prefix id afterwards.
        """
        if self._table is not None:
            return self._table
        bounds: list[int] = [0]
        ids: list[int] = [UNROUTED]

        def paint(start: int, pid: int) -> None:
            # Segments arrive with non-decreasing starts; drop zero-width
            # segments and merge neighbours of the same prefix.
            if bounds[-1] == start:
                if len(bounds) > 1 and ids[-2] == pid:
                    bounds.pop()
                    ids.pop()
                else:
                    ids[-1] = pid
            elif ids[-1] != pid:
                bounds.append(start)
                ids.append(pid)

        asn_of = {UNROUTED: UNROUTED}
        stack: list[tuple[int, int]] = []  # (end address, id), nested
        for prefix in sorted(self._mappings):
            pid = prefix_id(prefix)
            asn_of[pid] = self._mappings[prefix].asn
            start = prefix.network
            while stack and stack[-1][0] <= start:
                resumed, _ = stack.pop()
                paint(resumed, stack[-1][1] if stack else UNROUTED)
            paint(start, pid)
            stack.append((start + prefix.size, pid))
        while stack:
            resumed, _ = stack.pop()
            paint(resumed, stack[-1][1] if stack else UNROUTED)
        self._table = (bounds, ids, [asn_of[pid] for pid in ids])
        return self._table

    def stab_arrays(self):
        """The stab table as int64 numpy arrays ``(bounds, ids, asns)``.

        Batched lookups (:meth:`IpToAsDataset.prefix_ids`,
        :meth:`IpToAsDataset.origin_asns`) ``searchsorted`` these, so the
        conversion is memoized next to the table itself and invalidated
        by the same :meth:`add` — a mutated snapshot can never serve
        stale arrays.
        """
        if self._stab_arrays is None:
            self._stab_arrays = tuple(np.asarray(column, dtype=np.int64)
                                 for column in self._stab())
        return self._stab_arrays

    def write(self, stream: TextIO) -> None:
        """Serialize in pfx2as text format."""
        for mapping in self.mappings():
            stream.write(
                "%s\t%d\t%d\n"
                % (IPv4Address(mapping.prefix.network), mapping.prefix.length,
                   mapping.asn)
            )

    @staticmethod
    def _parse_line(text: str) -> AsMapping:
        """Parse one record line; raises :class:`ParseError` sans location."""
        fields = text.split("\t")
        if len(fields) != 3:
            raise ParseError("expected 3 fields, got %d" % len(fields))
        network_text, length_text, asn_text = fields
        if not length_text.isdigit() or not asn_text.isdigit():
            raise ParseError("non-numeric length or ASN")
        network = IPv4Address.parse(network_text)
        prefix = IPv4Prefix.containing(network, int(length_text))
        if prefix.network != network.value:
            raise ParseError("host bits set in prefix")
        # AsMapping rejects non-positive ASNs (ParseError).
        return AsMapping(prefix, int(asn_text))

    @classmethod
    def read(cls, stream: TextIO,
             policy: ReadPolicy = ReadPolicy.STRICT,
             report: IngestReport | None = None,
             source: str | None = None) -> "Pfx2AsSnapshot":
        """Parse the pfx2as text format.

        ``STRICT`` rejects the whole snapshot on the first malformed
        line; ``REPAIR`` quarantines bad lines (those prefixes simply go
        unmapped) and accounts them in ``report``.
        """
        source = source or getattr(stream, "name", "<pfx2as>")
        report = report if report is not None else IngestReport()
        snapshot = cls()
        parsed = 0
        for line_number, text in record_lines(stream):
            try:
                snapshot.add(cls._parse_line(text))
            except ParseError as error:
                if policy is ReadPolicy.STRICT:
                    raise ParseError(
                        format_line_error(source, line_number, error)
                    ) from None
                report.quarantined(DATASET_NAME, source, line_number,
                                   str(error))
                continue
            parsed += 1
        report.parsed(DATASET_NAME, parsed)
        return snapshot


class IpToAsDataset:
    """Monthly pfx2as snapshots keyed by ``(year, month)``.

    Lookups take the timestamp of the address assignment and consult the
    snapshot published for that month, as the paper does.  By default a
    missing month raises :class:`DatasetError` — the analysis must not
    *silently* fall back to a different month's routing table.  Under
    ``ReadPolicy.REPAIR`` the bundle loader constructs the dataset with
    ``fallback=True`` after recording the gap, and lookups then use the
    nearest earlier snapshot (or the earliest later one before the first
    registered month), mirroring how the paper coped with gaps in
    CAIDA's monthly archive.
    """

    def __init__(self, fallback: bool = False) -> None:
        self._snapshots: dict[tuple[int, int], Pfx2AsSnapshot] = {}
        self.fallback = fallback

    def __len__(self) -> int:
        return len(self._snapshots)

    def add_snapshot(self, year: int, month: int,
                     snapshot: Pfx2AsSnapshot) -> None:
        """Register the snapshot for a month."""
        if not 1 <= month <= 12:
            raise DatasetError("month out of range: %r" % (month,))
        self._snapshots[(year, month)] = snapshot

    def months(self) -> list[tuple[int, int]]:
        """Return registered ``(year, month)`` keys in order."""
        return sorted(self._snapshots)

    def snapshot_for(self, timestamp: float) -> Pfx2AsSnapshot:
        """Return the snapshot for the month containing ``timestamp``.

        With ``fallback`` enabled a missing month resolves to the nearest
        earlier registered snapshot (or the earliest later one); without
        it, or when no snapshot exists at all, raises
        :class:`DatasetError`.
        """
        key = timeutil.month_of(timestamp)
        try:
            return self._snapshots[key]
        except KeyError:
            if self.fallback and self._snapshots:
                return self._snapshots[self._nearest_month(key)]
            raise DatasetError(
                "no pfx2as snapshot for %04d-%02d" % key
            ) from None

    def _nearest_month(self, key: tuple[int, int]) -> tuple[int, int]:
        """Nearest earlier registered month, else the earliest later one."""
        earlier = [month for month in self._snapshots if month <= key]
        if earlier:
            return max(earlier)
        return min(self._snapshots)

    def origin_asn(self, address: IPv4Address, timestamp: float) -> int | None:
        """ASN originating ``address`` in the month of ``timestamp``."""
        return self.snapshot_for(timestamp).origin_asn(address)

    def bgp_prefix(self, address: IPv4Address,
                   timestamp: float) -> IPv4Prefix | None:
        """Routed prefix covering ``address`` in the month of ``timestamp``."""
        return self.snapshot_for(timestamp).bgp_prefix(address)

    def prefix_ids(self, values: Sequence[int],
                   times: Sequence[float]) -> list[int]:
        """Batched :meth:`bgp_prefix` over parallel address values/times.

        Returns each address's covering :func:`prefix_id` in the month
        of its time, :data:`UNROUTED` standing in for None, as native
        ints.
        """
        return self._stab_batch(values, times, 1).tolist()

    def origin_asns(self, values: Sequence[int], times: Sequence[float]):
        """Batched :meth:`origin_asn` over parallel address values/times.

        Returns an int64 array, :data:`UNROUTED` standing in for None.
        """
        return self._stab_batch(values, times, 2)

    def _stab_batch(self, values: Sequence[int], times: Sequence[float],
                    column: int):
        """One stab-table column (1 = prefix ids, 2 = ASNs) per lookup.

        Lookups are grouped by calendar month.  Every month resolves its
        snapshot through :meth:`snapshot_for` once, in the order of its
        first lookup, so fallback and missing-month :class:`DatasetError`
        semantics (and which month fails first) are exactly the
        per-call ones.
        """
        out = np.empty(len(values), dtype=np.int64)
        if not len(values):
            return out
        addrs = np.asarray(values, dtype=np.int64)
        when = np.asarray(times, dtype=np.float64)
        last = timeutil.month_of(float(when.max()))
        keys = [timeutil.month_of(float(when.min()))]
        while keys[-1] < last:
            year, month = keys[-1]
            keys.append((year + 1, 1) if month == 12 else (year, month + 1))
        starts = [timeutil.epoch(year, month, 1) for year, month in keys]
        group = np.searchsorted(np.asarray(starts, dtype=np.float64), when,
                                side="right") - 1
        _, firsts = np.unique(group, return_index=True)
        firsts.sort()  # months in the order of their first lookup
        for index in group[firsts].tolist():
            mask = group == index
            table = self.snapshot_for(starts[index]).stab_arrays()
            out[mask] = table[column][np.searchsorted(
                table[0], addrs[mask], side="right") - 1]
        return out
