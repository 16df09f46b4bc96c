"""Differential tests: the production stage functions vs the record oracle.

Every hot stage of :mod:`repro.core.pipeline` (columnar kernels from
:mod:`repro.core.colkernels`) is pinned bit-identical to its record-path
twin in :mod:`tests.record_oracle` over a seeded simulated world — the
kernel's table decodes to the same verdicts in the same dict order, the
same spans, reboots and gap events.  A randomized property pins the
flattened pfx2as stab table (what batched lookups ``searchsorted`` over)
to the per-address lookup.
"""

from __future__ import annotations

import random
from bisect import bisect_right

import pytest

from repro.atlas.columnar import ColumnarConnlog, ColumnarUptime
from repro.core import pipeline
from repro.core.colkernels import detect_reboots_col
from repro.core.reboots import detect_all_reboots
from repro.experiments.scenarios import small_world
from repro.net.ipv4 import IPv4Address, IPv4Prefix
from repro.net.pfx2as import UNROUTED, AsMapping, Pfx2AsSnapshot
from repro.util import timeutil
from tests import record_oracle as oracle

MIN_CONNECTED = 4 * timeutil.DAY


@pytest.fixture(scope="module")
def world():
    return small_world(seed=23, days=40)


@pytest.fixture(scope="module")
def col(world):
    return ColumnarConnlog.from_connlog(world.connlog)


@pytest.fixture(scope="module")
def legacy_report(world):
    return oracle.stage_filter(world.connlog, world.archive, world.ip2as,
                               min_connected=MIN_CONNECTED)


@pytest.fixture(scope="module")
def columnar_table(world, col):
    return pipeline.stage_filter(col, world.archive, world.ip2as,
                                 min_connected=MIN_CONNECTED)


@pytest.fixture(scope="module")
def columnar_report(world, columnar_table):
    """The kernel's verdicts, entry lists rebuilt from the log."""
    return oracle.restore_entries(columnar_table.to_report(),
                                  world.connlog)


class TestFilterDifferential:
    def test_same_probes_in_same_order(self, legacy_report, columnar_report):
        assert list(columnar_report.verdicts) == list(legacy_report.verdicts)
        assert columnar_report.total == legacy_report.total

    def test_every_verdict_field_identical(self, legacy_report,
                                           columnar_report):
        matched = 0
        for pid, legacy in legacy_report.verdicts.items():
            got = columnar_report.verdicts[pid]
            assert got.category is legacy.category, pid
            assert got.entries == legacy.entries, pid
            assert got.changes == legacy.changes, pid
            assert got.within_as_changes == legacy.within_as_changes, pid
            assert got.multi_as == legacy.multi_as, pid
            assert got.asn == legacy.asn, pid
            matched += 1
        assert matched == legacy_report.total

    def test_all_categories_exercised(self, legacy_report):
        # The differential only means something if the seeded world hits
        # the interesting classification branches.
        seen = {verdict.category.name
                for verdict in legacy_report.verdicts.values()}
        assert "ANALYZABLE" in seen
        assert "NEVER_CHANGED" in seen

    def test_slim_form_restores_entries_exactly(self, world,
                                                columnar_table,
                                                legacy_report):
        slim = columnar_table.to_report()
        assert all(not verdict.entries
                   for verdict in slim.verdicts.values())
        oracle.restore_entries(slim, world.connlog)
        for pid, legacy in legacy_report.verdicts.items():
            assert slim.verdicts[pid].entries == legacy.entries, pid

    def test_table_is_the_encoded_record_report(self, legacy_report,
                                                columnar_table):
        assert columnar_table == oracle.filter_table(legacy_report)
        assert columnar_table.table2_rows() == legacy_report.table2_rows()


class TestStageDifferentials:
    def test_spans_identical(self, world, col, legacy_report,
                             columnar_table):
        legacy = oracle.stage_spans(legacy_report)
        spans, durations = pipeline.stage_spans(col, columnar_table)
        columnar = (spans.to_map(), durations.to_map())
        assert columnar == legacy
        assert [list(columnar[0]), list(columnar[1])] == \
               [list(legacy[0]), list(legacy[1])]

    def test_reboots_identical(self, world):
        legacy = oracle.stage_reboots(world.uptime)
        colup = ColumnarUptime.from_uptime(world.uptime)
        columnar = pipeline.stage_reboots(colup)
        assert columnar == legacy
        raw = detect_reboots_col(colup).to_map()
        assert raw == detect_all_reboots(world.uptime)
        assert list(raw) == list(detect_all_reboots(world.uptime))

    def test_gaps_identical(self, world, col, legacy_report,
                            columnar_table):
        *_, legacy_filtered = oracle.stage_reboots(world.uptime)
        legacy = oracle.stage_gaps(legacy_report, world.kroot,
                                   legacy_filtered)
        table = pipeline.stage_gaps(col, world.kroot, columnar_table,
                                    legacy_filtered)
        columnar = table.to_map()
        assert columnar == legacy
        assert list(columnar) == list(legacy)
        assert pipeline.stage_stats(table) == oracle.stage_stats(legacy)
        assert table == oracle.gap_table(legacy)


class TestWindowEdgeChange:
    """Regression: a change timed by an entry starting at/after the
    observation window's end (a session segment crossing the year edge,
    first seen at paper scale 8) must classify — identically — in both
    kernels instead of raising ``DatasetError: no pfx2as snapshot``."""

    def test_both_kernels_resolve_boundary_month_lookup(self):
        from repro.atlas.archive import ProbeArchive
        from repro.atlas.connlog import ConnectionLog
        from repro.atlas.types import ConnectionLogEntry
        from repro.net.bgpgen import AddressSpaceAllocator, AddressSpacePlan

        allocator = AddressSpaceAllocator(seed=41)
        plan = AddressSpacePlan(num_prefixes=1, slash16_groups=1)
        prefix = allocator.allocate(64499, plan)[0]
        ip2as = allocator.build_dataset(timeutil.YEAR_2015_START,
                                        timeutil.YEAR_2015_END)
        base = prefix.first_address().value
        end = timeutil.YEAR_2015_END
        connlog = ConnectionLog([
            ConnectionLogEntry(1, end - 30 * timeutil.DAY, end - timeutil.DAY,
                               IPv4Address(base + 1)),
            ConnectionLogEntry(1, end + 60.0, end + 3600.0,
                               IPv4Address(base + 2)),
        ])
        legacy = oracle.stage_filter(connlog, ProbeArchive(), ip2as,
                                     min_connected=timeutil.DAY)
        columnar = pipeline.stage_filter(
            ColumnarConnlog.from_connlog(connlog), ProbeArchive(),
            ip2as, min_connected=timeutil.DAY).to_report()
        verdict = legacy.verdicts[1]
        assert verdict.category.name == "ANALYZABLE"
        assert len(verdict.changes) == 1
        assert verdict.changes[0].time >= end  # really past the edge
        assert verdict.asn == 64499
        got = columnar.verdicts[1]
        assert got.category is verdict.category
        assert got.changes == verdict.changes
        assert got.within_as_changes == verdict.within_as_changes
        assert got.asn == verdict.asn


def random_snapshot(rng: random.Random, prefixes: int) -> Pfx2AsSnapshot:
    snapshot = Pfx2AsSnapshot()
    for _ in range(prefixes):
        length = rng.randint(4, 28)
        network = rng.getrandbits(32) >> (32 - length) << (32 - length)
        snapshot.add(AsMapping(IPv4Prefix(network, length),
                               rng.randint(1, 70000)))
    return snapshot


class TestStabTable:
    """The flattened stab table is exactly the trie, address by address."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_tries_agree_with_bisect_lookup(self, seed):
        rng = random.Random(seed)
        snapshot = random_snapshot(rng, prefixes=rng.randint(1, 120))
        bounds, asns = snapshot.stab_table()
        assert bounds[0] == 0
        assert bounds == sorted(bounds)
        probes = [rng.getrandbits(32) for _ in range(600)]
        probes += [b for b in bounds[:50]]          # segment edges
        probes += [b - 1 for b in bounds[:50] if b]  # just before edges
        for value in probes:
            expected = snapshot.origin_asn(IPv4Address(value))
            got = asns[bisect_right(bounds, value) - 1]
            assert got == (UNROUTED if expected is None else expected), value

    def test_arrays_mirror_table_and_invalidate_on_add(self):
        rng = random.Random(99)
        snapshot = random_snapshot(rng, prefixes=30)
        bounds_arr, ids_arr, asns_arr = snapshot.stab_arrays()
        bounds, asns = snapshot.stab_table()
        assert bounds_arr.tolist() == bounds
        assert ids_arr.tolist() == snapshot.prefix_table()[1]
        assert asns_arr.tolist() == asns
        assert snapshot.stab_arrays() is snapshot.stab_arrays()  # memoized

        snapshot.add(AsMapping(IPv4Prefix(0, 8), 64512))
        fresh_bounds, _, fresh_asns = snapshot.stab_arrays()
        assert fresh_asns[0].item() == 64512
        fresh_table = snapshot.stab_table()
        assert fresh_bounds.tolist() == fresh_table[0]
        assert fresh_asns.tolist() == fresh_table[1]
        assert snapshot.origin_asn(IPv4Address(1)) == 64512
