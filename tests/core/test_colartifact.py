"""Tests for repro.core.colartifact: the per-probe result tables.

Round-trip contract under test: a table holding a per-probe dict's
objects (laid out by the record oracle's encoders) decodes back into
that dict exactly — same iteration order, equal values,
``within_as_changes`` aliasing the matching ``changes`` objects — both
in memory and through a colpack file (the shape the artifact cache's
sidecars and the shard envelopes carry).  Entry lists are not part of
the filter table; the record oracle's
:func:`tests.record_oracle.restore_entries` rebuilds them exactly.
"""

from __future__ import annotations

import pytest

from repro.core.association import GapCause, GapEvent
from repro.core.changes import AddressSpan
from repro.core.colartifact import (
    ColumnarFilterArtifact,
    ColumnarFloatMap,
    ColumnarGapEventMap,
    ColumnarSpanMap,
)
from repro.experiments.scenarios import small_world
from repro.net.ipv4 import IPv4Address
from repro.util import colpack, timeutil
from tests import record_oracle as oracle

MIN_CONNECTED = 4 * timeutil.DAY


@pytest.fixture(scope="module")
def world():
    return small_world(seed=29, days=40)


@pytest.fixture(scope="module")
def report(world):
    return oracle.stage_filter(world.connlog, world.archive, world.ip2as,
                               min_connected=MIN_CONNECTED)


class TestFilterArtifact:
    def test_round_trip_preserves_everything_but_entries(self, report):
        back = oracle.filter_table(report).to_report()
        assert back.total == report.total
        assert list(back.verdicts) == list(report.verdicts)
        for pid, original in report.verdicts.items():
            got = back.verdicts[pid]
            assert got.category is original.category
            assert got.entries == []          # not part of the table
            assert got.changes == original.changes
            assert got.within_as_changes == original.within_as_changes
            assert got.multi_as == original.multi_as
            assert got.asn == original.asn

    def test_within_as_changes_alias_changes_objects(self, report):
        back = oracle.filter_table(report).to_report()
        aliased = 0
        for verdict in back.verdicts.values():
            for change in verdict.within_as_changes:
                assert any(change is candidate
                           for candidate in verdict.changes)
                aliased += 1
        assert aliased  # the seeded world has within-AS changes

    def test_restore_entries_round_trips_through_artifact(self, world,
                                                          report):
        back = oracle.filter_table(report).to_report()
        oracle.restore_entries(back, world.connlog)
        for pid, original in report.verdicts.items():
            assert back.verdicts[pid].entries == original.entries, pid

    def test_colpack_file_round_trip(self, report, tmp_path):
        artifact = oracle.filter_table(report)
        path = tmp_path / "filter.col"
        colpack.write_object(path, artifact)
        loaded = colpack.load_object(path)
        assert isinstance(loaded, ColumnarFilterArtifact)
        assert loaded == artifact
        decoded = loaded.to_report()
        assert list(decoded.verdicts) == list(report.verdicts)
        assert all(decoded.verdicts[pid].changes == v.changes
                   for pid, v in report.verdicts.items())

    def test_queries_match_the_report(self, report):
        table = oracle.filter_table(report)
        assert table.total == report.total
        assert table.table2_rows() == report.table2_rows()
        assert table.analyzable_geo() == report.analyzable_geo()
        assert table.analyzable_as() == report.analyzable_as()
        assert table.multi_as_probes() == report.multi_as_probes()


class TestSpanMap:
    def test_round_trip_preserves_order_and_values(self):
        a = IPv4Address.parse("10.0.0.1")
        b = IPv4Address.parse("10.0.0.2")
        spans = {7: [AddressSpan(7, a, 0.0, 10.0, False, True),
                     AddressSpan(7, b, 10.0, 30.0, True, False)],
                 3: [],  # empty list must survive
                 5: [AddressSpan(5, a, 1.5, 2.5, True, True)]}
        back = oracle.span_table(spans).to_map()
        assert back == spans
        assert list(back) == [7, 3, 5]  # row order, never re-sorted

    def test_mismatched_probe_id_rejected(self):
        a = IPv4Address.parse("10.0.0.1")
        with pytest.raises(ValueError, match="probe_id"):
            oracle.span_table(
                {1: [AddressSpan(2, a, 0.0, 1.0, True, True)]})

    def test_shared_addresses_decode_to_shared_objects(self):
        a = IPv4Address.parse("10.9.8.7")
        spans = {1: [AddressSpan(1, a, 0.0, 1.0, True, True),
                     AddressSpan(1, a, 2.0, 3.0, True, True)]}
        back = oracle.span_table(spans).to_map()
        assert back[1][0].address is back[1][1].address

    def test_durations_are_the_interior_spans(self):
        a = IPv4Address.parse("10.0.0.1")
        spans = {4: [AddressSpan(4, a, float(k), k + 0.5 * k, k > 0, k < 3)
                     for k in range(4)],
                 6: [AddressSpan(6, a, 0.0, 1.0, False, True),
                     AddressSpan(6, a, 2.0, 3.0, True, False)],
                 9: []}
        durations = oracle.span_table(spans).durations()
        assert durations.to_map() == {
            4: [span.duration for span in spans[4][1:-1]]}


class TestFloatMap:
    def test_round_trip(self):
        durations = {4: [1.0, 2.5, 3.25], 2: [], 9: [0.125]}
        back = oracle.float_table(durations).to_map()
        assert back == durations
        assert list(back) == [4, 2, 9]

    def test_empty_map(self):
        assert oracle.float_table({}).to_map() == {}
        assert ColumnarFloatMap.empty().to_map() == {}


class TestGapEventMap:
    def test_round_trip_all_causes(self):
        events = {6: [GapEvent(6, 0.0, 5.0, GapCause.NETWORK, True, 5.0),
                      GapEvent(6, 9.0, 12.0, GapCause.POWER, False, 3.0)],
                  8: [GapEvent(8, 1.0, 2.0, GapCause.NONE, False, 0.0)]}
        back = oracle.gap_table(events).to_map()
        assert back == events
        assert list(back) == [6, 8]

    def test_mismatched_probe_id_rejected(self):
        with pytest.raises(ValueError, match="probe_id"):
            oracle.gap_table(
                {1: [GapEvent(2, 0.0, 1.0, GapCause.NONE, False, 0.0)]})

    def test_colpack_file_round_trip(self, tmp_path):
        events = {3: [GapEvent(3, 0.0, 4.0, GapCause.NETWORK, True, 4.0)]}
        path = tmp_path / "gaps.col"
        colpack.write_object(path, oracle.gap_table(events))
        assert colpack.load_object(path).to_map() == events


class TestTableEquality:
    def test_equal_means_bit_equal(self):
        plus = oracle.float_table({1: [0.0]})
        minus = oracle.float_table({1: [-0.0]})
        assert plus == oracle.float_table({1: [0.0]})
        assert plus != minus  # == on the floats, yet not the same bits
        assert plus != oracle.float_table({2: [0.0]})

    def test_concat_refuses_foreign_meta(self):
        table = oracle.gap_table({})
        foreign = ColumnarGapEventMap({"causes": ["OTHER"]}, table.columns)
        with pytest.raises(ValueError, match="meta"):
            ColumnarGapEventMap.concat([table, foreign])

    def test_empty_concat_is_the_empty_table(self):
        for cls in (ColumnarFilterArtifact, ColumnarSpanMap,
                    ColumnarFloatMap, ColumnarGapEventMap):
            assert cls.concat([]) == cls.empty()
            assert len(cls.empty()) == 0
