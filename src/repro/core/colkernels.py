"""Vectorized stage kernels over the columnar Atlas views.

The hot per-probe kernels behind :mod:`repro.core.pipeline`'s stage
functions: probe classification (stage ``filter``, including change
extraction and the batched IP-to-AS lookups), span extraction (stage
``spans``), uptime-reset detection (stage ``reboots``) and gap
association (stage ``gaps``).  Each must produce objects
**bit-identical** to the record primitives (``ProbeFilter``,
``extract_spans``, ``detect_reboots``, ``associate_probe_gaps``) run
probe by probe — the differential tests pin this against the record
oracle in ``tests/record_oracle.py``.

Exactness rules the implementations follow:

* every float that reaches a result dataclass is taken from the
  columns via ``tolist()`` (bit-identical to the source records) or
  computed with the same scalar IEEE operation the record kernel used
  (elementwise float64 add/sub equals the CPython scalar op);
* order-sensitive reductions (the 30-day connected-time threshold)
  use sequential ``sum`` over native floats, never pairwise numpy
  summation;
* numpy scalars never escape: indexes and values are converted with
  ``int()``/``tolist()`` before constructing result objects, so
  ``repr``-canonicalized digests cannot observe the backend.

The gap kernel avoids materializing ping records entirely: a
:class:`KRootOutageIndex` enumerates only the *all-lost* ticks of a
probe's generative series (the overwhelming majority of gaps touch
none, and classify as NONE straight from two ``searchsorted`` calls);
the few gaps near an outage or reboot fall back to an exact per-gap
path that reuses the record path's LTS-run rules and reboot bracketing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.atlas.columnar import ColumnarConnlog, ColumnarUptime
from repro.atlas.kroot import DEFAULT_CADENCE, HEALTHY_LTS, KRootSeries
from repro.core import association
from repro.core.association import WINDOW_MARGIN, GapCause, GapEvent
from repro.core.changes import AddressChange, AddressSpan
from repro.core.filtering import (
    MULTIHOMED_MIN_RUNS,
    ProbeCategory,
    ProbeVerdict,
)
from repro.core.reboots import Reboot
from repro.net.ipv4 import TESTING_ADDRESS
from repro.net.pfx2as import UNROUTED, IpToAsDataset

_TESTING_VALUE = TESTING_ADDRESS.value


def _strip_offset(col: ColumnarConnlog, lo: int, hi: int) -> int:
    """Start offset after the testing-entry strip (Section 3.3).

    The strip is a pure function of the raw entries — first entry is
    IPv4 and carries the RIPE testing address — so the spans and gaps
    kernels recompute it from the columns instead of needing the
    stripped entry lists a fat ``FilterReport`` would carry.
    """
    if (hi > lo and int(col.v6[lo]) == 0
            and int(col.addrs[lo]) == _TESTING_VALUE):
        return lo + 1
    return lo


# -- stage ``filter`` ---------------------------------------------------------

def classify_probes(col: ColumnarConnlog, connlog, archive,
                    ip2as: IpToAsDataset, min_connected: float,
                    probe_ids: Sequence[int] | None = None,
                    with_entries: bool = True) -> dict[int, ProbeVerdict]:
    """Columnar :meth:`~repro.core.filtering.ProbeFilter.classify` over
    many probes, in the same precedence order.

    ``with_entries=False`` leaves ``verdict.entries`` empty (the slim
    IPC/cache form).
    """
    if probe_ids is None:
        pids = col.probe_ids.tolist()
    else:
        pids = [int(pid) for pid in probe_ids]
    durations = col.durations_list()
    run_starts = col.run_starts()
    v6_cumsum = np.concatenate((np.zeros(1, dtype=np.int64),
                                np.cumsum(col.v6, dtype=np.int64)))
    verdicts: dict[int, ProbeVerdict] = {}
    pending: list[tuple[int, list, list]] = []
    lookup_addrs: list[int] = []
    lookup_times: list[float] = []
    for pid in pids:
        lo, hi = col.slice_of(pid)
        # Sequential native-float sum: the 30-day threshold compare must
        # see the exact value the record path's ordered sum produces.
        if sum(durations[lo:hi]) < min_connected:
            verdicts[pid] = ProbeVerdict(pid, ProbeCategory.SHORT_LIVED)
            continue
        v6_count = int(v6_cumsum[hi] - v6_cumsum[lo])
        if v6_count:
            category = (ProbeCategory.IPV6_ONLY if v6_count == hi - lo
                        else ProbeCategory.DUAL_STACK)
            verdicts[pid] = ProbeVerdict(pid, category)
            continue
        if archive.has_probe(pid) and archive.get(pid).has_filtered_tag:
            verdicts[pid] = ProbeVerdict(pid, ProbeCategory.TAGGED)
            continue
        run_values = col.addrs[lo:hi][run_starts[lo:hi]]
        if run_values.size:
            _, counts = np.unique(run_values, return_counts=True)
            if int(counts.max()) >= MULTIHOMED_MIN_RUNS:
                verdicts[pid] = ProbeVerdict(pid, ProbeCategory.MULTIHOMED)
                continue
        slo = _strip_offset(col, lo, hi)
        entries = connlog.entries(pid)
        if slo > lo:
            entries = entries[1:]
        change_at = (np.nonzero(run_starts[slo + 1:hi])[0] + 1).tolist()
        if not change_at:
            category = (ProbeCategory.TESTING_ONLY if slo > lo
                        else ProbeCategory.NEVER_CHANGED)
            verdicts[pid] = ProbeVerdict(
                pid, category, entries=entries if with_entries else [])
            continue
        changes: list[AddressChange] = []
        for at in change_at:
            previous = entries[at - 1]
            current = entries[at]
            changes.append(AddressChange(pid, previous.address,
                                         current.address, previous.end,
                                         current.start))
            lookup_addrs.append(previous.address.value)
            lookup_times.append(current.start)
            lookup_addrs.append(current.address.value)
            lookup_times.append(current.start)
        # Placeholder keeps dict order; the AS split fills it in below.
        verdicts[pid] = ProbeVerdict(pid, ProbeCategory.ANALYZABLE)
        pending.append((pid, entries, changes))

    if not pending:
        return verdicts
    asns = ip2as.origin_asns(lookup_addrs, lookup_times)
    cursor = 0
    first_addrs: list[int] = []
    first_times: list[float] = []
    resolved: list[tuple[int, list, list, list, bool]] = []
    for pid, entries, changes in pending:
        span = asns[cursor:cursor + 2 * len(changes)]
        cursor += 2 * len(changes)
        old_asns = span[0::2]
        new_asns = span[1::2]
        crossed = ((old_asns != UNROUTED) & (new_asns != UNROUTED)
                   & (old_asns != new_asns))
        multi_as = bool(crossed.any())
        within = [change for change, crossing
                  in zip(changes, crossed.tolist()) if not crossing]
        resolved.append((pid, entries, changes, within, multi_as))
        if not multi_as:
            # Analyzable probes are pure IPv4 here, so the first v4
            # entry the record kernel scans for is simply entries[0].
            first_addrs.append(entries[0].address.value)
            first_times.append(entries[0].start)
    first_asns = ip2as.origin_asns(first_addrs, first_times)
    first_cursor = 0
    for pid, entries, changes, within, multi_as in resolved:
        asn = None
        if not multi_as:
            value = int(first_asns[first_cursor])
            first_cursor += 1
            asn = None if value == UNROUTED else value
        verdicts[pid] = ProbeVerdict(
            pid, ProbeCategory.ANALYZABLE,
            entries=entries if with_entries else [],
            changes=changes, within_as_changes=within,
            multi_as=multi_as, asn=asn)
    return verdicts


# -- stage ``spans`` ----------------------------------------------------------

def probe_spans_col(col: ColumnarConnlog, connlog,
                    probe_ids: Sequence[int]
                    ) -> dict[int, tuple[list[AddressSpan], list[float]]]:
    """Spans and known durations per probe (:func:`~repro.core.changes
    .extract_spans` and :func:`~repro.core.changes.known_durations`).

    Only valid for analyzable (pure-IPv4) probes: runs of equal
    addresses merge into spans, the first/last span of a probe has an
    unknown boundary, interior spans are the known durations.
    """
    run_starts = col.run_starts()
    starts = col.starts.tolist()
    ends = col.ends.tolist()
    out: dict[int, tuple[list[AddressSpan], list[float]]] = {}
    for pid in probe_ids:
        pid = int(pid)
        lo, hi = col.slice_of(pid)
        slo = _strip_offset(col, lo, hi)
        if slo >= hi:
            out[pid] = ([], [])
            continue
        entries = connlog.entries(pid)
        heads = [slo] + (np.nonzero(run_starts[slo + 1:hi])[0]
                         + (slo + 1)).tolist()
        last = len(heads) - 1
        spans: list[AddressSpan] = []
        for position, head in enumerate(heads):
            tail = (heads[position + 1] if position < last else hi) - 1
            spans.append(AddressSpan(
                probe_id=pid,
                address=entries[head - lo].address,
                start=starts[head],
                end=ends[tail],
                complete_start=position > 0,
                complete_end=position < last))
        durations = [span.end - span.start for span in spans[1:-1]]
        out[pid] = (spans, durations)
    return out


# -- stage ``reboots`` --------------------------------------------------------

def detect_reboots_col(colup: ColumnarUptime,
                       probe_ids: Sequence[int] | None = None
                       ) -> dict[int, list[Reboot]]:
    """Columnar :func:`~repro.core.reboots.detect_reboots` over a batch.

    Every requested probe gets a key (possibly an empty list), matching
    :func:`~repro.core.reboots.detect_all_reboots`.
    """
    if probe_ids is None:
        pids = colup.probe_ids.tolist()
    else:
        pids = [int(pid) for pid in probe_ids]
    total = len(colup.uptimes)
    resets = np.zeros(total, dtype=bool)
    if total:
        resets[1:] = colup.uptimes[1:] < colup.uptimes[:-1]
        firsts = colup.offsets[:-1]
        resets[firsts[firsts < total]] = False
    # Elementwise f64 subtract matches UptimeRecord.boot_time exactly.
    boots = (colup.timestamps - colup.uptimes).tolist()
    stamps = colup.timestamps.tolist()
    out: dict[int, list[Reboot]] = {}
    for pid in pids:
        lo, hi = colup.slice_of(pid)
        hits = (np.nonzero(resets[lo:hi])[0] + lo).tolist()
        out[pid] = [Reboot(pid, boots[at], stamps[at]) for at in hits]
    return out


# -- stage ``gaps`` -----------------------------------------------------------

def _tick_of(series: KRootSeries, index: int) -> float:
    # Must mirror KRootSeries._tick_time bit-for-bit (same expression).
    return series.observed_start + series.phase + index * series.cadence


def _first_tick_at_or_after(series: KRootSeries, timestamp: float) -> int:
    index = int((timestamp - series.observed_start - series.phase)
                // series.cadence)
    if _tick_of(series, index) < timestamp:
        index += 1
    return index


def _live_tick_between(series: KRootSeries, left: int, right: int) -> bool:
    """A present (not powered-off) tick strictly between two tick indexes.

    Such a tick is a healthy reported round, which breaks an all-lost
    run; powered-off ticks are absent from the record stream and do not.
    """
    holes = series.power_off.gaps_within(_tick_of(series, left),
                                         _tick_of(series, right))
    for hole in holes:
        index = _first_tick_at_or_after(series, hole.start)
        if index <= left:
            index = left + 1
        if index < right and _tick_of(series, index) < hole.end:
            return True
    return False


class KRootOutageIndex:
    """All-lost tick timeline of one generative k-root series.

    ``times`` holds every tick the series would report as all-pings-lost
    (present, inside a network-down interval), with the LTS value the
    materialized record would carry.  ``run`` assigns consecutive ticks
    the same id exactly when no healthy reported round separates them —
    i.e. when they belong to one all-lost run of the record stream — and
    ``grow[k]`` is the earliest index of the strictly-growing LTS chain
    ending at ``k`` inside its run.  Any window ``[a, b)`` of a run is
    then strictly growing iff ``grow[b - 1] <= a``, which is all
    :func:`~repro.core.outages.detect_network_outages` needs: window
    truncation can shorten a run but never merge two (the separating
    healthy tick lies between in-window ticks, hence in-window).
    """

    __slots__ = ("times", "times_list", "lts", "run", "grow")

    def __init__(self, series: KRootSeries) -> None:
        times: list[float] = []
        ticks: list[int] = []
        lts: list[float] = []
        for outage in series.network_down:
            start = max(outage.start, series.observed_start)
            stop = min(outage.end, series.observed_end)
            if stop <= start:
                continue
            index = _first_tick_at_or_after(series, start)
            tick = _tick_of(series, index)
            while tick < stop:
                if not series.power_off.contains(tick):
                    times.append(tick)
                    ticks.append(index)
                    lts.append(HEALTHY_LTS + (tick - outage.start))
                index += 1
                tick = _tick_of(series, index)
        run = [0] * len(times)
        grow = [0] * len(times)
        for k in range(1, len(times)):
            joined = (ticks[k] == ticks[k - 1] + 1
                      or not _live_tick_between(series, ticks[k - 1],
                                                ticks[k]))
            run[k] = run[k - 1] if joined else run[k - 1] + 1
            grow[k] = (grow[k - 1] if joined and lts[k] > lts[k - 1]
                       else k)
        self.times = np.asarray(times, dtype=np.float64)
        self.times_list = times
        self.lts = lts
        self.run = run
        self.grow = grow


def _classify_slow(pid: int, gap_start: float, gap_end: float,
                   changed: bool, index: KRootOutageIndex, j0: int, j1: int,
                   series: KRootSeries, ordered_reboots: list[Reboot],
                   i0: int, i1: int) -> GapEvent:
    """Exact classification of one gap that is near lost ticks/reboots."""
    run = index.run
    a = j0
    while a < j1:
        b = a + 1
        while b < j1 and run[b] == run[a]:
            b += 1
        if index.grow[b - 1] <= a and (b - a > 1
                                       or index.lts[a] > DEFAULT_CADENCE):
            start = index.times_list[a]
            end = index.times_list[b - 1]
            if start <= gap_end and gap_start <= end:
                return GapEvent(pid, gap_start, gap_end, GapCause.NETWORK,
                                changed, end - start)
        a = b
    for reboot in ordered_reboots[i0:i1]:
        # The record round-bracketing scan stays the oracle for power
        # outage durations; only ~a few thousand gaps reach it.
        missing, duration = association._missing_rounds_around(
            series, reboot.time)
        if missing:
            return GapEvent(pid, gap_start, gap_end, GapCause.POWER,
                            changed, duration)
    return GapEvent(pid, gap_start, gap_end, GapCause.NONE, changed, 0.0)


def gap_events_col(col: ColumnarConnlog, kroot,
                   items: Sequence[tuple[int, list[Reboot]]]
                   ) -> dict[int, list[GapEvent]]:
    """Columnar :func:`~repro.core.association.associate_probe_gaps` over
    a batch.

    ``items`` pairs each probe id with its firmware-filtered reboots,
    exactly like the gap shard payloads.  The fast path proves NONE for
    every gap whose corroboration window contains no all-lost tick and
    no reboot; the remainder go through :func:`_classify_slow`.
    """
    out: dict[int, list[GapEvent]] = {}
    for pid, reboots in items:
        pid = int(pid)
        series = kroot.series(pid)
        lo, hi = col.slice_of(pid)
        slo = _strip_offset(col, lo, hi)
        count = hi - slo - 1
        if count < 1:
            out[pid] = []
            continue
        gap_starts = col.ends[slo:hi - 1]
        gap_ends = col.starts[slo + 1:hi]
        changed = ((col.v6[slo:hi - 1] == 0) & (col.v6[slo + 1:hi] == 0)
                   & (col.addrs[slo:hi - 1] != col.addrs[slo + 1:hi]))
        index = KRootOutageIndex(series)
        window_lo = np.maximum(gap_starts - WINDOW_MARGIN,
                               series.observed_start)
        window_hi = np.minimum(gap_ends + WINDOW_MARGIN,
                               series.observed_end)
        lost_lo = np.searchsorted(index.times, window_lo, side="left")
        lost_hi = np.searchsorted(index.times, window_hi, side="left")
        ordered = sorted(reboots, key=lambda reboot: reboot.time)
        if ordered:
            reboot_times = np.asarray(
                [reboot.time for reboot in ordered], dtype=np.float64)
            rb_lo = np.searchsorted(reboot_times,
                                    gap_starts - WINDOW_MARGIN, side="left")
            rb_hi = np.searchsorted(reboot_times, gap_ends, side="right")
        else:
            rb_lo = rb_hi = np.zeros(count, dtype=np.int64)
        quiet = ((lost_hi <= lost_lo) & (rb_hi <= rb_lo)).tolist()
        gs_list = gap_starts.tolist()
        ge_list = gap_ends.tolist()
        changed_list = changed.tolist()
        jlo = lost_lo.tolist()
        jhi = lost_hi.tolist()
        ilo = rb_lo.tolist()
        ihi = rb_hi.tolist()
        events: list[GapEvent] = []
        for k in range(count):
            if quiet[k]:
                events.append(GapEvent(pid, gs_list[k], ge_list[k],
                                       GapCause.NONE, changed_list[k], 0.0))
            else:
                events.append(_classify_slow(
                    pid, gs_list[k], ge_list[k], changed_list[k], index,
                    jlo[k], max(jlo[k], jhi[k]), series, ordered,
                    ilo[k], max(ilo[k], ihi[k])))
        out[pid] = events
    return out
