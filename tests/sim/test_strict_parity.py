"""STRICT ingest errors: type, message and line number, exactly.

The bundle readers parse each file in one pass and place records
afterwards.  These tests pin the diagnostics that contract produces for
connlog, uptime, archive and kroot files: which error a bad file raises,
its message, and which line it names — including the precedence rule
that, in connlog and uptime files, a malformed line anywhere wins over
an overlap or out-of-order record on an *earlier* line.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import DatasetError, ParseError
from repro.sim.io import load_bundle
from repro.util import timeutil

START = timeutil.epoch(2015, 1, 1)
END = timeutil.epoch(2015, 2, 1)

ARCHIVE = "206\tDE\tEU\t3\t\n207\tFR\tEU\t3\thome\n"
CONNLOG = ("206\t%.0f\t%.0f\t10.0.0.1\n"
           "206\t%.0f\t%.0f\t10.0.0.2\n"
           "207\t%.0f\t%.0f\t10.1.0.1\n"
           % (START, START + 100, START + 200, START + 300,
              START, START + 500))
UPTIME = ("206\t%.0f\t50\n"
          "206\t%.0f\t10\n"
          "207\t%.0f\t70\n" % (START + 10, START + 250, START + 20))


def kroot_state(probe_id: int) -> dict:
    return {"probe_id": probe_id, "start": START, "end": END,
            "cadence": 240.0, "phase": 7.0,
            "power_off": [[START + 100, START + 150]],
            "network_down": []}


def write_bundle(root, archive=ARCHIVE, connlog=CONNLOG, uptime=UPTIME,
                 kroot=None):
    root.mkdir(exist_ok=True)
    (root / "meta.json").write_text(json.dumps({
        "bundle_version": 1, "start": START, "end": END, "seed": 1,
        "as_names": {"64500": "Test"}, "as_countries": {"64500": "DE"}}))
    (root / "archive.tsv").write_text(archive)
    (root / "connlog.tsv").write_text(connlog)
    (root / "uptime.tsv").write_text(uptime)
    states = [kroot_state(206), kroot_state(207)] if kroot is None else kroot
    (root / "kroot.json").write_text(json.dumps(states))
    (root / "pfx2as").mkdir(exist_ok=True)
    (root / "pfx2as" / "2015-01.txt").write_text("10.0.0.0\t8\t64500\n")
    return root


def strict_error(root):
    with pytest.raises((ParseError, DatasetError)) as caught:
        load_bundle(root)
    return type(caught.value), str(caught.value)


def test_clean_bundle_loads(tmp_path):
    bundle = load_bundle(write_bundle(tmp_path / "b"))
    assert bundle.connlog.entry_count() == 3
    assert len(bundle.uptime.records(206)) == 2


class TestConnlog:
    def test_malformed_line(self, tmp_path):
        root = write_bundle(tmp_path / "b",
                            connlog=CONNLOG + "206\tx\t5\t10.0.0.3\n")
        assert strict_error(root) == (
            ParseError, "%s: line 4: malformed numbers"
            % (root / "connlog.tsv"))

    def test_bad_address(self, tmp_path):
        root = write_bundle(tmp_path / "b",
                            connlog="# c\n\n206\t1\t5\t10.0.0.300\n")
        assert strict_error(root) == (
            ParseError, "%s: line 3: IPv4 octet out of range in "
            "'10.0.0.300'" % (root / "connlog.tsv"))

    def test_field_count(self, tmp_path):
        root = write_bundle(tmp_path / "b", connlog="206\t1\t5\n")
        assert strict_error(root) == (
            ParseError, "%s: line 1: expected 4 fields, got 3"
            % (root / "connlog.tsv"))

    def test_overlap(self, tmp_path):
        root = write_bundle(tmp_path / "b", connlog=CONNLOG + (
            "206\t%.0f\t%.0f\t10.0.0.3\n" % (START + 250, START + 400)))
        assert strict_error(root) == (
            DatasetError, "%s: line 4: probe 206: connection starting "
            "%s overlaps previous one"
            % (root / "connlog.tsv", START + 250))

    def test_out_of_order(self, tmp_path):
        root = write_bundle(tmp_path / "b", connlog=(
            "206\t%.0f\t%.0f\t10.0.0.2\n"
            "206\t%.0f\t%.0f\t10.0.0.1\n"
            % (START + 200, START + 300, START, START + 100)))
        assert strict_error(root) == (
            DatasetError, "%s: line 2: probe 206: connection starting "
            "%s overlaps previous one" % (root / "connlog.tsv", START))

    def test_malformed_line_wins_over_earlier_overlap(self, tmp_path):
        root = write_bundle(tmp_path / "b", connlog=CONNLOG + (
            "206\t%.0f\t%.0f\t10.0.0.3\n"
            "207\t%.0f\t%.0f\t10.1.0.2\n"
            "garbage\n" % (START + 250, START + 400,
                           START + 600, START + 700)))
        assert strict_error(root) == (
            ParseError, "%s: line 6: expected 4 fields, got 1"
            % (root / "connlog.tsv"))


class TestUptime:
    def test_malformed_line(self, tmp_path):
        root = write_bundle(tmp_path / "b", uptime=UPTIME + "207\t1\n")
        assert strict_error(root) == (
            ParseError, "%s: line 4: expected 3 fields, got 2"
            % (root / "uptime.tsv"))

    def test_negative_counter(self, tmp_path):
        root = write_bundle(tmp_path / "b",
                            uptime="207\t%.0f\t-5\n" % START)
        assert strict_error(root) == (
            ParseError, "%s: line 1: negative uptime -5.0"
            % (root / "uptime.tsv"))

    def test_out_of_order(self, tmp_path):
        root = write_bundle(tmp_path / "b", uptime=UPTIME + (
            "206\t%.0f\t60\n" % (START + 100)))
        assert strict_error(root) == (
            DatasetError, "%s: line 4: probe 206: uptime record at %s "
            "out of order" % (root / "uptime.tsv", START + 100))

    def test_wrapped_counter(self, tmp_path):
        root = write_bundle(tmp_path / "b", uptime=UPTIME + (
            "207\t%.0f\t%d\n" % (START + 300, 2 ** 32 + 9)))
        assert strict_error(root) == (
            ParseError, "%s: line 4: uptime counter 4294967305.0 beyond "
            "the 32-bit wrap" % (root / "uptime.tsv"))

    def test_malformed_line_wins_over_earlier_out_of_order(self, tmp_path):
        root = write_bundle(tmp_path / "b", uptime=UPTIME + (
            "206\t%.0f\t60\n"
            "207\tnan-ish\t1\n" % (START + 100)))
        assert strict_error(root) == (
            ParseError, "%s: line 5: malformed numbers"
            % (root / "uptime.tsv"))

    def test_wrapped_counter_wins_over_earlier_out_of_order(self, tmp_path):
        root = write_bundle(tmp_path / "b", uptime=UPTIME + (
            "206\t%.0f\t60\n"
            "207\t%.0f\t%d\n" % (START + 100, START + 300, 2 ** 32)))
        assert strict_error(root) == (
            ParseError, "%s: line 5: uptime counter 4294967296.0 beyond "
            "the 32-bit wrap" % (root / "uptime.tsv"))


class TestArchive:
    def test_malformed_line(self, tmp_path):
        root = write_bundle(tmp_path / "b", archive=ARCHIVE + "208\tDE\n")
        assert strict_error(root) == (
            ParseError, "%s: line 3: expected 4-5 fields, got 2"
            % (root / "archive.tsv"))

    def test_duplicate_probe(self, tmp_path):
        root = write_bundle(tmp_path / "b",
                            archive=ARCHIVE + "206\tDE\tEU\t3\t\n")
        assert strict_error(root) == (
            DatasetError, "%s: line 3: probe 206 already registered"
            % (root / "archive.tsv"))

    def test_records_are_checked_in_line_order(self, tmp_path):
        # Archive records are placed as they are parsed, so the first bad
        # line wins whatever its kind.
        root = write_bundle(tmp_path / "b", archive=ARCHIVE + (
            "206\tDE\tEU\t3\t\n"
            "209\tDE\tEU\tx\t\n"))
        assert strict_error(root) == (
            DatasetError, "%s: line 3: probe 206 already registered"
            % (root / "archive.tsv"))


class TestKroot:
    def test_malformed_series(self, tmp_path):
        broken = kroot_state(207)
        del broken["phase"]
        root = write_bundle(tmp_path / "b",
                            kroot=[kroot_state(206), broken])
        assert strict_error(root) == (
            ParseError, "%s: line 2: malformed k-root series state: "
            "'phase'" % (root / "kroot.json"))

    def test_inverted_interval(self, tmp_path):
        broken = kroot_state(206)
        broken["network_down"] = [[START + 10, START + 5]]
        root = write_bundle(tmp_path / "b", kroot=[broken])
        assert strict_error(root) == (
            ParseError, "%s: line 1: malformed k-root series state: "
            "interval end %r precedes start %r"
            % (root / "kroot.json", START + 5, START + 10))

    def test_duplicate_series(self, tmp_path):
        root = write_bundle(tmp_path / "b",
                            kroot=[kroot_state(206), kroot_state(206)])
        assert strict_error(root) == (
            DatasetError, "probe 206 already present")

    def test_overlapping_intervals_normalize(self, tmp_path):
        state = kroot_state(206)
        state["power_off"] = [[START + 300, START + 400],
                              [START + 100, START + 200],
                              [START + 150, START + 250],
                              [START + 250, START + 260],
                              [START + 500, START + 500]]
        bundle = load_bundle(write_bundle(tmp_path / "b", kroot=[state]))
        series = bundle.kroot.series(206)
        assert [(iv.start - START, iv.end - START)
                for iv in series.power_off] == [(100, 260), (300, 400)]
