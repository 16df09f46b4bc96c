"""Differential tests: the production stage functions vs the record oracle.

Every hot stage of :mod:`repro.core.pipeline` (columnar kernels from
:mod:`repro.core.colkernels`) is pinned bit-identical to its record-path
twin in :mod:`tests.record_oracle` over a seeded simulated world — same
verdicts in the same dict order, same spans, reboots and gap events.  A
randomized property pins the flattened pfx2as stab table (what batched
lookups ``searchsorted`` over) to the per-address lookup.
"""

from __future__ import annotations

import random
from bisect import bisect_right

import pytest

from repro.atlas.columnar import ColumnarConnlog, ColumnarUptime
from repro.core import pipeline
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
def columnar_report(world, col):
    return pipeline.stage_filter(col, world.connlog, world.archive,
                                 world.ip2as, min_connected=MIN_CONNECTED)


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

    def test_slim_form_restores_entries_exactly(self, world, col,
                                                legacy_report):
        from repro.core.colkernels import classify_probes
        from repro.core.filtering import report_from_verdicts
        slim = report_from_verdicts(classify_probes(
            col, world.connlog, world.archive, world.ip2as, MIN_CONNECTED,
            with_entries=False))
        oracle.restore_entries(slim, world.connlog)
        for pid, legacy in legacy_report.verdicts.items():
            assert slim.verdicts[pid].entries == legacy.entries, pid


class TestStageDifferentials:
    def test_spans_identical(self, world, col, legacy_report,
                             columnar_report):
        legacy = oracle.stage_spans(legacy_report)
        columnar = pipeline.stage_spans(col, world.connlog, columnar_report)
        assert columnar == legacy
        assert [list(columnar[0]), list(columnar[1])] == \
               [list(legacy[0]), list(legacy[1])]

    def test_reboots_identical(self, world):
        legacy = oracle.stage_reboots(world.uptime)
        columnar = pipeline.stage_reboots(
            ColumnarUptime.from_uptime(world.uptime))
        assert columnar == legacy

    def test_gaps_identical(self, world, col, legacy_report,
                            columnar_report):
        *_, legacy_filtered = oracle.stage_reboots(world.uptime)
        legacy = oracle.stage_gaps(legacy_report, world.kroot,
                                   legacy_filtered)
        columnar = pipeline.stage_gaps(col, world.kroot, columnar_report,
                                       legacy_filtered)
        assert columnar == legacy
        assert list(columnar) == list(legacy)


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
            ColumnarConnlog.from_connlog(connlog), connlog, ProbeArchive(),
            ip2as, min_connected=timeutil.DAY)
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
