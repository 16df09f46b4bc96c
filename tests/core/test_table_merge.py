"""The shard merge is concatenation: per-shard kernel tables laid end to
end in shard order equal one kernel call over the whole probe list.

This is what lets the pool, the dist socket and the cache carry result
tables as they are.  Each of the four fan-out kernels is checked over a
seeded world with hypothesis-drawn cuts (empty shards included), and
the spans, reboots and gaps kernels also over synthetic logs whose
probes may contribute no rows at all: a lone testing entry has no span,
a probe may never reboot, a lone connection has no gap.  On the
synthetic logs the whole-run tables are also held to the record oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atlas.columnar import ColumnarConnlog, ColumnarUptime
from repro.atlas.connlog import ConnectionLog
from repro.atlas.kroot import KRootSeries
from repro.atlas.sosuptime import UptimeDataset
from repro.atlas.types import ConnectionLogEntry, UptimeRecord
from repro.core import colkernels
from repro.core.association import associate_probe_gaps
from repro.core.changes import extract_spans, strip_testing_entry
from repro.core.colartifact import (
    ColumnarFilterArtifact,
    ColumnarGapEventMap,
    ColumnarRebootMap,
    ColumnarSpanMap,
)
from repro.core.pipeline import gap_items, stage_reboots
from repro.core.reboots import Reboot, detect_all_reboots
from repro.experiments.scenarios import small_world
from repro.net.ipv4 import TESTING_ADDRESS, IPv4Address
from repro.util import timeutil
from repro.util.intervals import Interval, IntervalSet

MIN_CONNECTED = 4 * timeutil.DAY

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def shardings(draw, items):
    """``items`` cut into contiguous shards; any shard may be empty."""
    cuts = sorted(draw(st.lists(st.integers(0, len(items)), max_size=6)))
    bounds = [0, *cuts, len(items)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def merged(cls, kernel, shards):
    return cls.concat([kernel(shard) for shard in shards])


@pytest.fixture(scope="module")
def world():
    return small_world(seed=31, days=40)


@pytest.fixture(scope="module")
def col(world):
    return ColumnarConnlog.from_connlog(world.connlog)


@pytest.fixture(scope="module")
def filter_table(world, col):
    return colkernels.classify_probes(col, world.archive, world.ip2as,
                                      MIN_CONNECTED)


class TestWorldShards:
    @SETTINGS
    @given(data=st.data())
    def test_filter(self, world, col, filter_table, data):
        def kernel(shard):
            return colkernels.classify_probes(
                col, world.archive, world.ip2as, MIN_CONNECTED, shard)

        shards = data.draw(shardings(col.probe_ids.tolist()))
        assert merged(ColumnarFilterArtifact, kernel, shards) == filter_table

    @SETTINGS
    @given(data=st.data())
    def test_spans(self, col, filter_table, data):
        pids = filter_table.analyzable_geo()
        shards = data.draw(shardings(pids))
        assert merged(ColumnarSpanMap,
                      lambda shard: colkernels.probe_spans_col(col, shard),
                      shards) == colkernels.probe_spans_col(col, pids)

    @SETTINGS
    @given(data=st.data())
    def test_reboots(self, world, data):
        colup = ColumnarUptime.from_uptime(world.uptime)
        whole = colkernels.detect_reboots_col(colup)
        shards = data.draw(shardings(colup.probe_ids.tolist()))
        assert merged(
            ColumnarRebootMap,
            lambda shard: colkernels.detect_reboots_col(colup, shard),
            shards) == whole

    @SETTINGS
    @given(data=st.data())
    def test_gaps(self, world, col, filter_table, data):
        *_, filtered = stage_reboots(ColumnarUptime.from_uptime(world.uptime))
        items = gap_items(filter_table, world.kroot, filtered)
        shards = data.draw(shardings(items))
        assert merged(
            ColumnarGapEventMap,
            lambda shard: colkernels.gap_events_col(col, world.kroot, shard),
            shards) == colkernels.gap_events_col(col, world.kroot, items)


# -- synthetic logs -------------------------------------------------------------

ADDRESSES = [IPv4Address(0x0A000001 + k) for k in range(3)]
WINDOW_END = 400 * timeutil.HOUR


@st.composite
def connlogs(draw, ipv6: bool):
    """A log of 1-6 probes; a probe may hold only the testing entry, or
    a single connection."""
    entries = []
    for pid in range(1, draw(st.integers(1, 6)) + 1):
        clock = 0.0
        testing = draw(st.booleans())
        for position in range(draw(st.integers(1, 6))):
            start = clock + draw(st.floats(1.0, 20 * timeutil.HOUR))
            end = start + draw(st.floats(0.0, 20 * timeutil.HOUR))
            clock = end
            if position == 0 and testing:
                entries.append(ConnectionLogEntry(pid, start, end,
                                                  TESTING_ADDRESS))
            elif ipv6 and draw(st.booleans()):
                entries.append(ConnectionLogEntry(
                    pid, start, end, None, ipv6_address="2001:db8::1"))
            else:
                entries.append(ConnectionLogEntry(
                    pid, start, end, draw(st.sampled_from(ADDRESSES))))
    return ConnectionLog(entries)


def stripped(connlog, pid):
    return strip_testing_entry(connlog.entries(pid), TESTING_ADDRESS)[0]


class _KRoot:
    def __init__(self, series):
        self._series = series

    def series(self, pid):
        return self._series[pid]


@st.composite
def outages(draw, pid):
    """One probe's k-root series with random network outages, plus
    random reboots."""
    spans = draw(st.lists(st.tuples(st.floats(0.0, WINDOW_END),
                                    st.floats(0.0, 10 * timeutil.HOUR)),
                          max_size=4))
    series = KRootSeries(pid, 0.0, WINDOW_END, network_down=IntervalSet(
        Interval(start, start + length) for start, length in spans))
    reboots = [Reboot(pid, time, time + 60.0) for time in draw(
        st.lists(st.floats(0.0, WINDOW_END), max_size=3))]
    return series, reboots


@st.composite
def uptimes(draw):
    """1-6 probes' uptime reports; a probe may never reboot."""
    records = []
    for pid in range(1, draw(st.integers(1, 6)) + 1):
        clock = 0.0
        for _ in range(draw(st.integers(1, 6))):
            clock += draw(st.floats(1.0, timeutil.DAY))
            records.append(UptimeRecord(pid, clock, draw(
                st.floats(0.0, clock))))
    return UptimeDataset(records)


class TestSyntheticShards:
    @SETTINGS
    @given(data=st.data())
    def test_reboots(self, data):
        uptime = data.draw(uptimes())
        colup = ColumnarUptime.from_uptime(uptime)
        pids = uptime.probe_ids()
        whole = colkernels.detect_reboots_col(colup, pids)
        assert whole.to_map() == detect_all_reboots(uptime)
        shards = data.draw(shardings(pids))
        assert merged(
            ColumnarRebootMap,
            lambda shard: colkernels.detect_reboots_col(colup, shard),
            shards) == whole

    @SETTINGS
    @given(data=st.data())
    def test_spans(self, data):
        connlog = data.draw(connlogs(ipv6=False))
        col = ColumnarConnlog.from_connlog(connlog)
        pids = connlog.probe_ids()
        whole = colkernels.probe_spans_col(col, pids)
        assert whole.to_map() == {
            pid: extract_spans(stripped(connlog, pid)) for pid in pids}
        shards = data.draw(shardings(pids))
        assert merged(ColumnarSpanMap,
                      lambda shard: colkernels.probe_spans_col(col, shard),
                      shards) == whole

    @SETTINGS
    @given(data=st.data())
    def test_gaps(self, data):
        connlog = data.draw(connlogs(ipv6=True))
        col = ColumnarConnlog.from_connlog(connlog)
        pids = connlog.probe_ids()
        drawn = {pid: data.draw(outages(pid)) for pid in pids}
        kroot = _KRoot({pid: series for pid, (series, _) in drawn.items()})
        items = [(pid, reboots) for pid, (_, reboots) in drawn.items()]
        whole = colkernels.gap_events_col(col, kroot, items)
        assert whole.to_map() == {
            pid: associate_probe_gaps(stripped(connlog, pid),
                                      kroot.series(pid), reboots)
            for pid, reboots in items}
        shards = data.draw(shardings(items))
        assert merged(
            ColumnarGapEventMap,
            lambda shard: colkernels.gap_events_col(col, kroot, shard),
            shards) == whole
