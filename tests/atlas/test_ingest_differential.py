"""Columnar ingest vs the per-line readers of :mod:`tests.ingest_oracle`.

The production connlog and uptime readers admit writer-format lines in
bulk and send every other line through the per-line parser.  On any
text — clean, dirty or malformed — they must agree with the original
readers exactly: the same STRICT exception and message, the same
records per probe, the same REPAIR :class:`IngestReport`, and columns
equal to the record-derived :mod:`repro.atlas.columnar` views.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atlas.columnar import ColumnarConnlog, ColumnarUptime
from repro.atlas.connlog import ConnectionLog
from repro.atlas.sosuptime import UptimeDataset
from repro.atlas.types import ConnectionLogEntry, UptimeRecord
from repro.errors import DatasetError, ParseError
from repro.util.ingest import IngestReport, ReadPolicy
from tests import ingest_oracle

PROBES = st.sampled_from(["1", "2", "7", "1001", "07", "123456789012345678"])
TIMES = st.integers(min_value=0, max_value=60).map(str)
ODD_NUMBERS = st.sampled_from([
    "x", "", "1.5", "2e1", "-3", "nan", "inf", "-0", " 4",
    "1234567890123456", "99999999999999999999"])
ADDRESSES = st.sampled_from([
    "10.0.0.1", "10.0.0.2", "193.0.0.78", "255.255.255.255", "0.0.0.0",
    "2001:db8::1", "fe80::1%eth0", "::"])
BAD_ADDRESSES = st.sampled_from([
    "10.0.0.300", "10.01.0.1", "1.2.3", "1.2.3.4.5", "a.b.c.d", "10.0.0.",
    "256.1.1.1", "00.1.1.1", "1..2.3"])
JUNK = st.sampled_from([
    "", "   ", "# comment", "#1\t2\t3\t10.0.0.1", "garbage", "\t\t\t",
    "1\t2", "1\t2\t3\t4\t5"])
WRAPPED = st.sampled_from(["4294967296", "4294967305", "99999999999",
                           "4294967295"])


def connlog_lines():
    clean = st.builds(lambda p, s, e, a: "%s\t%s\t%s\t%s" % (p, s, e, a),
                      PROBES, TIMES, TIMES, ADDRESSES)
    bad_address = st.builds(
        lambda p, s, e, a: "%s\t%s\t%s\t%s" % (p, s, e, a),
        PROBES, TIMES, TIMES, BAD_ADDRESSES)
    odd_number = st.builds(
        lambda p, s, e, a: "%s\t%s\t%s\t%s" % (p, s, e, a),
        PROBES, st.one_of(TIMES, ODD_NUMBERS),
        st.one_of(TIMES, ODD_NUMBERS), ADDRESSES)
    padded = st.builds(lambda line, pad: pad + line + pad, clean,
                       st.sampled_from([" ", "\r", "  \t", "\t"]))
    return st.lists(st.one_of(clean, clean, clean, bad_address, odd_number,
                              padded, JUNK), max_size=40)


def uptime_lines():
    clean = st.builds(lambda p, t, u: "%s\t%s\t%s" % (p, t, u),
                      PROBES, TIMES, TIMES)
    odd = st.builds(lambda p, t, u: "%s\t%s\t%s" % (p, t, u),
                    PROBES, st.one_of(TIMES, ODD_NUMBERS),
                    st.one_of(TIMES, ODD_NUMBERS, WRAPPED))
    padded = st.builds(lambda line, pad: pad + line + pad, clean,
                       st.sampled_from([" ", "\r", "\t"]))
    return st.lists(st.one_of(clean, clean, clean, odd, padded, JUNK),
                    max_size=40)


def outcome(read, text, policy):
    """``("ok", container, report)`` or ``("error", type, message)``."""
    report = IngestReport()
    try:
        container = read(io.StringIO(text), policy, report, "f.tsv")
    except (ParseError, DatasetError) as error:
        return ("error", type(error), str(error))
    return ("ok", container, report)


def assert_same_columns(got, expected):
    """Equal CSR columns, dtypes included, floats compared bit for bit."""
    got_names, got_columns = got.to_columns()
    expected_names, expected_columns = expected.to_columns()
    assert got_names == expected_names
    assert list(got_columns) == list(expected_columns)
    for name, column in expected_columns.items():
        assert got_columns[name].dtype == column.dtype, name
        assert (got_columns[name].tobytes() == column.tobytes()), name


def check(read, oracle_read, records, derive, text, policy):
    expected = outcome(oracle_read, text, policy)
    got = outcome(read, text, policy)
    if expected[0] == "error":
        assert got == expected
        return
    assert got[0] == "ok", got
    container, report = got[1], got[2]
    oracle, oracle_report = expected[1], expected[2]
    assert report.to_dict() == oracle_report.to_dict()
    assert container.probe_ids() == oracle.probe_ids()
    for probe_id in oracle.probe_ids():
        # repr: NaN fields compare unequal as values but print alike.
        assert (repr(records(container, probe_id))
                == repr(records(oracle, probe_id)))
    assert_same_columns(container.columnar(), derive(oracle))


POLICIES = st.sampled_from([ReadPolicy.STRICT, ReadPolicy.REPAIR])


@settings(max_examples=300, deadline=None)
@given(connlog_lines(), POLICIES, st.booleans())
def test_connlog_matches_per_line_reader(lines, policy, trailing_newline):
    text = "\n".join(lines) + ("\n" if trailing_newline else "")
    check(ConnectionLog.read, ingest_oracle.read_connlog,
          ConnectionLog.entries, ColumnarConnlog.from_connlog, text, policy)


@settings(max_examples=300, deadline=None)
@given(uptime_lines(), POLICIES, st.booleans())
def test_uptime_matches_per_line_reader(lines, policy, trailing_newline):
    text = "\n".join(lines) + ("\n" if trailing_newline else "")
    check(UptimeDataset.read, ingest_oracle.read_uptime,
          UptimeDataset.records, ColumnarUptime.from_uptime, text, policy)


@pytest.mark.parametrize("policy", [ReadPolicy.STRICT, ReadPolicy.REPAIR])
def test_writer_output_round_trips(policy):
    text = ("5\t10\t20\t10.0.0.1\n5\t30\t40\t2001:db8::1\n"
            "5\t20\t30\t10.0.0.2\n3\t0\t9\t10.0.0.1\n")
    check(ConnectionLog.read, ingest_oracle.read_connlog,
          ConnectionLog.entries, ColumnarConnlog.from_connlog, text, policy)


class TestRecordsOnDemand:
    """A read container builds record objects only when asked."""

    @staticmethod
    def count_builds(monkeypatch, cls):
        built = []
        original = cls.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
        return built

    def test_connlog_builds_entries_per_probe_on_first_ask(self,
                                                           monkeypatch):
        built = self.count_builds(monkeypatch, ConnectionLogEntry)
        log = ConnectionLog.read(io.StringIO(
            "1\t0\t5\t10.0.0.1\n1\t6\t9\t10.0.0.1\n2\t0\t5\t::1\n"))
        log.columnar()
        assert log.entry_count() == 3 and log.probe_ids() == [1, 2]
        assert built == []
        first = log.entries(1)
        assert len(built) == 2
        # Memoized, and one address object per value.
        assert log.entries(1) == first and len(built) == 2
        assert first[0].address is first[1].address
        assert log.entries(2)[0].ipv6_address == "::1"
        assert len(built) == 3

    def test_uptime_builds_records_on_first_ask(self, monkeypatch):
        built = self.count_builds(monkeypatch, UptimeRecord)
        dataset = UptimeDataset.read(io.StringIO("1\t5\t3\n1\t9\t7\n"))
        dataset.columnar()
        assert built == []
        assert [r.uptime for r in dataset.records(1)] == [3.0, 7.0]
        assert len(built) == 2

    def test_add_after_read_keeps_every_entry(self):
        log = ConnectionLog.read(io.StringIO("1\t0\t5\t10.0.0.1\n"))
        log.add(ConnectionLogEntry(1, 6.0, 9.0, None, ipv6_address="::1"))
        assert [e.end for e in log.entries(1)] == [5.0, 9.0]
        assert np.array_equal(log.columnar().v6, [0, 1])
