"""Vectorized stage kernels over the columnar Atlas views.

The hot per-probe kernels behind :mod:`repro.core.pipeline`'s stage
functions: probe classification (stage ``filter``, including change
extraction and the batched IP-to-AS lookups), span extraction (stage
``spans``), uptime-reset detection (stage ``reboots``) and gap
association (stage ``gaps``).  Each emits one
:mod:`~repro.core.colartifact` table straight from the columns, and the
table's :meth:`to_map` / :meth:`to_report` must be **bit-identical** to
the record primitives (``ProbeFilter``, ``extract_spans``,
``detect_reboots``, ``associate_probe_gaps``) run probe by probe — the
differential tests pin this against the record oracle in
``tests/record_oracle.py``.

Exactness rules the implementations follow:

* every float that lands in a table is gathered from the source columns
  or computed with the same elementwise IEEE operation the record
  kernel performs as a scalar (float64 add/sub equals the CPython op);
* order-sensitive reductions (the 30-day connected-time threshold)
  use sequential ``sum`` over native floats, never pairwise numpy
  summation.

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
from repro.core.association import WINDOW_MARGIN, GapCause
from repro.core.colartifact import (
    ColumnarFilterArtifact,
    ColumnarGapEventMap,
    ColumnarRebootMap,
    ColumnarSpanMap,
    csr_expand,
    csr_offsets,
)
from repro.core.filtering import MULTIHOMED_MIN_RUNS, ProbeCategory
from repro.core.reboots import Reboot
from repro.net.ipv4 import TESTING_ADDRESS
from repro.net.pfx2as import UNROUTED, IpToAsDataset

_TESTING_VALUE = TESTING_ADDRESS.value

_CATEGORY = {category: code for code, category in enumerate(ProbeCategory)}
_CAUSE = {cause: code for code, cause in enumerate(GapCause)}


def _bounds(col: ColumnarConnlog, probe_ids: Sequence[int]
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each probe's rows ``[lo, hi)`` and ``slo``, where they start after
    the testing-entry strip (Section 3.3).

    The strip is a pure function of the raw entries — first entry is
    IPv4 and carries the RIPE testing address — so every kernel
    recomputes it from the columns.
    """
    bounds = [col.slice_of(int(pid)) for pid in probe_ids]
    lo = np.asarray([low for low, _ in bounds], dtype=np.int64)
    hi = np.asarray([high for _, high in bounds], dtype=np.int64)
    slo = lo
    if len(col.addrs):
        head = np.minimum(lo, len(col.addrs) - 1)
        slo = lo + ((hi > lo) & (col.v6[head] == 0)
                    & (col.addrs[head] == _TESTING_VALUE))
    return lo, slo, hi


# -- stage ``filter`` ---------------------------------------------------------

def classify_probes(col: ColumnarConnlog, archive, ip2as: IpToAsDataset,
                    min_connected: float,
                    probe_ids: Sequence[int] | None = None
                    ) -> ColumnarFilterArtifact:
    """Columnar :meth:`~repro.core.filtering.ProbeFilter.classify` over
    many probes, in the same precedence order, as one filter table."""
    if probe_ids is None:
        pids = col.probe_ids.tolist()
    else:
        pids = [int(pid) for pid in probe_ids]
    durations = col.durations_list()
    run_starts = col.run_starts()
    v6_cumsum = np.concatenate((np.zeros(1, dtype=np.int64),
                                np.cumsum(col.v6, dtype=np.int64)))
    categories = np.empty(len(pids), dtype=np.uint8)
    counts = np.zeros(len(pids), dtype=np.int64)
    # Per analyzable probe: its table row, first stripped row, and the
    # rows at which a new address starts.
    analyzable: list[int] = []
    firsts: list[int] = []
    change_rows: list[np.ndarray] = []
    bounds = zip(*(column.tolist() for column in _bounds(col, pids)))
    for row, (pid, (lo, slo, hi)) in enumerate(zip(pids, bounds)):
        # Sequential native-float sum: the 30-day threshold compare must
        # see the exact value the record path's ordered sum produces.
        if sum(durations[lo:hi]) < min_connected:
            categories[row] = _CATEGORY[ProbeCategory.SHORT_LIVED]
            continue
        v6_count = int(v6_cumsum[hi] - v6_cumsum[lo])
        if v6_count:
            categories[row] = _CATEGORY[
                ProbeCategory.IPV6_ONLY if v6_count == hi - lo
                else ProbeCategory.DUAL_STACK]
            continue
        if archive.has_probe(pid) and archive.get(pid).has_filtered_tag:
            categories[row] = _CATEGORY[ProbeCategory.TAGGED]
            continue
        run_values = col.addrs[lo:hi][run_starts[lo:hi]]
        if run_values.size:
            _, runs = np.unique(run_values, return_counts=True)
            if int(runs.max()) >= MULTIHOMED_MIN_RUNS:
                categories[row] = _CATEGORY[ProbeCategory.MULTIHOMED]
                continue
        change_at = np.nonzero(run_starts[slo + 1:hi])[0] + (slo + 1)
        if not change_at.size:
            categories[row] = _CATEGORY[
                ProbeCategory.TESTING_ONLY if slo > lo
                else ProbeCategory.NEVER_CHANGED]
            continue
        categories[row] = _CATEGORY[ProbeCategory.ANALYZABLE]
        counts[row] = change_at.size
        analyzable.append(row)
        firsts.append(slo)
        change_rows.append(change_at)

    at = (np.concatenate(change_rows) if change_rows
          else np.zeros(0, dtype=np.int64))
    gap_ends = col.starts[at]  # the change time
    old = col.addrs[at - 1]
    new = col.addrs[at]
    # One batched lookup, old/new interleaved per change in probe order
    # (the record path's order, which decides which missing month fails
    # first).
    lookups = np.empty(2 * len(at), dtype=np.int64)
    lookups[0::2] = old
    lookups[1::2] = new
    asns = ip2as.origin_asns(lookups, np.repeat(gap_ends, 2))
    old_asns = asns[0::2]
    new_asns = asns[1::2]
    crossed = ((old_asns != UNROUTED) & (new_asns != UNROUTED)
               & (old_asns != new_asns))
    multi_as = np.zeros(len(pids), dtype=bool)
    home = np.full(len(pids), -1, dtype=np.int64)
    if analyzable:
        rows = np.asarray(analyzable, dtype=np.int64)
        multi_as[rows] = np.logical_or.reduceat(
            crossed, csr_offsets(counts[rows])[:-1])
        # Analyzable probes are pure IPv4 here, so the first v4 entry
        # the record kernel scans for is simply the first stripped row.
        single = ~multi_as[rows]
        first = np.asarray(firsts, dtype=np.int64)[single]
        home[rows[single]] = ip2as.origin_asns(col.addrs[first],
                                               col.starts[first])
    return ColumnarFilterArtifact.build(
        counts, probe_ids=pids, categories=categories, multi_as=multi_as,
        asns=home, change_old=old, change_new=new,
        change_gap_start=col.ends[at - 1], change_gap_end=gap_ends,
        change_within=~crossed)


# -- stage ``spans`` ----------------------------------------------------------

def probe_spans_col(col: ColumnarConnlog, probe_ids: Sequence[int]
                    ) -> ColumnarSpanMap:
    """Spans per probe (:func:`~repro.core.changes.extract_spans`), as
    one span table; :meth:`ColumnarSpanMap.durations` derives the known
    durations (:func:`~repro.core.changes.known_durations`).

    Only valid for analyzable (pure-IPv4) probes: runs of equal
    addresses merge into spans, the first/last span of a probe has an
    unknown boundary.
    """
    _, lo, hi = _bounds(col, probe_ids)
    rows, row_offsets = csr_expand(lo, hi)
    heads = col.run_starts()[rows]
    heads[row_offsets[:-1][lo < hi]] = True  # every probe opens a span
    at = np.nonzero(heads)[0]
    # A span ends where the next one starts: within a probe that is the
    # next head, and the next probe's first head ends the last span.
    tails = rows[np.concatenate((at[1:], [len(rows)]))[:len(at)] - 1]
    cumulative = np.concatenate(([0], np.cumsum(heads, dtype=np.int64)))
    counts = cumulative[row_offsets[1:]] - cumulative[row_offsets[:-1]]
    positions = (np.arange(len(at), dtype=np.int64)
                 - np.repeat(csr_offsets(counts)[:-1], counts))
    heads_at = rows[at]
    return ColumnarSpanMap.build(
        counts, probe_ids=[int(pid) for pid in probe_ids],
        address=col.addrs[heads_at], start=col.starts[heads_at],
        end=col.ends[tails], complete_start=positions > 0,
        complete_end=positions < np.repeat(counts, counts) - 1)


# -- stage ``reboots`` --------------------------------------------------------

def detect_reboots_col(colup: ColumnarUptime,
                       probe_ids: Sequence[int] | None = None
                       ) -> ColumnarRebootMap:
    """Columnar :func:`~repro.core.reboots.detect_reboots` over a batch.

    Every requested probe gets a row (possibly with no reboots),
    matching :func:`~repro.core.reboots.detect_all_reboots`.
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
    bounds = [colup.slice_of(pid) for pid in pids]
    rows, row_offsets = csr_expand(
        np.asarray([lo for lo, _ in bounds], dtype=np.int64),
        np.asarray([hi for _, hi in bounds], dtype=np.int64))
    hit = resets[rows]
    cumulative = np.concatenate(([0], np.cumsum(hit, dtype=np.int64)))
    at = rows[hit]
    # Elementwise f64 subtract matches UptimeRecord.boot_time exactly.
    return ColumnarRebootMap.build(
        cumulative[row_offsets[1:]] - cumulative[row_offsets[:-1]],
        probe_ids=pids, time=colup.timestamps[at] - colup.uptimes[at],
        reported_at=colup.timestamps[at])


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


def _classify_slow(gap_start: float, gap_end: float,
                   index: KRootOutageIndex, j0: int, j1: int,
                   series: KRootSeries, ordered_reboots: list[Reboot],
                   i0: int, i1: int) -> tuple[GapCause, float]:
    """Exact cause and outage duration of one gap that is near lost
    ticks or reboots."""
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
                return GapCause.NETWORK, end - start
        a = b
    for reboot in ordered_reboots[i0:i1]:
        # The record round-bracketing scan stays the oracle for power
        # outage durations; only ~a few thousand gaps reach it.
        missing, duration = association._missing_rounds_around(
            series, reboot.time)
        if missing:
            return GapCause.POWER, duration
    return GapCause.NONE, 0.0


def gap_events_col(col: ColumnarConnlog, kroot,
                   items: Sequence[tuple[int, list[Reboot]]]
                   ) -> ColumnarGapEventMap:
    """Columnar :func:`~repro.core.association.associate_probe_gaps` over
    a batch, as one gap-event table.

    ``items`` pairs each probe id with its firmware-filtered reboots,
    exactly like the gap shard work items.  The fast path proves NONE
    for every gap whose corroboration window contains no all-lost tick
    and no reboot; the remainder go through :func:`_classify_slow`.
    """
    pids = [int(pid) for pid, _ in items]
    _, lo, hi = _bounds(col, pids)
    # A probe's gaps sit between consecutive stripped rows.
    gap_rows, gap_offsets = csr_expand(lo, hi - 1)
    gap_starts = col.ends[gap_rows]
    gap_ends = col.starts[gap_rows + 1]
    changed = ((col.v6[gap_rows] == 0) & (col.v6[gap_rows + 1] == 0)
               & (col.addrs[gap_rows] != col.addrs[gap_rows + 1]))
    causes = np.full(len(gap_rows), _CAUSE[GapCause.NONE], dtype=np.uint8)
    outage = np.zeros(len(gap_rows), dtype=np.float64)
    for row, (pid, reboots) in enumerate(items):
        first, last = int(gap_offsets[row]), int(gap_offsets[row + 1])
        if first == last:
            continue
        series = kroot.series(pid)
        starts = gap_starts[first:last]
        ends = gap_ends[first:last]
        index = KRootOutageIndex(series)
        window_lo = np.maximum(starts - WINDOW_MARGIN, series.observed_start)
        window_hi = np.minimum(ends + WINDOW_MARGIN, series.observed_end)
        lost_lo = np.searchsorted(index.times, window_lo, side="left")
        lost_hi = np.searchsorted(index.times, window_hi, side="left")
        ordered = sorted(reboots, key=lambda reboot: reboot.time)
        if ordered:
            reboot_times = np.asarray(
                [reboot.time for reboot in ordered], dtype=np.float64)
            rb_lo = np.searchsorted(reboot_times, starts - WINDOW_MARGIN,
                                    side="left")
            rb_hi = np.searchsorted(reboot_times, ends, side="right")
        else:
            rb_lo = rb_hi = np.zeros(last - first, dtype=np.int64)
        busy = np.nonzero((lost_hi > lost_lo) | (rb_hi > rb_lo))[0]
        for k in busy.tolist():
            jlo, ilo = int(lost_lo[k]), int(rb_lo[k])
            cause, duration = _classify_slow(
                float(starts[k]), float(ends[k]), index,
                jlo, max(jlo, int(lost_hi[k])), series, ordered,
                ilo, max(ilo, int(rb_hi[k])))
            causes[first + k] = _CAUSE[cause]
            outage[first + k] = duration
    return ColumnarGapEventMap.build(
        gap_offsets[1:] - gap_offsets[:-1], probe_ids=pids,
        gap_start=gap_starts, gap_end=gap_ends, cause=causes,
        address_changed=changed, outage_duration=outage)
