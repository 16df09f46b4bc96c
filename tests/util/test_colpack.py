"""Tests for repro.util.colpack: the columnar container codec.

The format is a wire contract (RPR010): cache artifacts written by one
process are read by later runs of different processes, so the suite
leans on property-based round-trips (pack -> bytes -> unpack, and
write -> mmap load) plus explicit corruption handling — a damaged file
must raise :class:`ColpackError`, never misparse.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import colpack
from repro.util.colpack import ColpackError

#: Every dtype kind the format allows, at a few widths.
DTYPES = ("int8", "int16", "int32", "int64",
          "uint8", "uint16", "uint32", "uint64",
          "float32", "float64", "bool")


def column_strategy():
    def build(dtype_name, values):
        if dtype_name == "bool":
            return np.asarray([bool(v % 2) for v in values], dtype=bool)
        dtype = np.dtype(dtype_name)
        if dtype.kind == "f":
            return np.asarray(values, dtype=dtype)
        info = np.iinfo(dtype)
        clipped = [max(info.min, min(info.max, v)) for v in values]
        return np.asarray(clipped, dtype=dtype)

    return st.builds(
        build,
        st.sampled_from(DTYPES),
        st.lists(st.integers(min_value=-2**40, max_value=2**40),
                 max_size=40))


columns_strategy = st.dictionaries(
    st.text(alphabet="abcdefgh_", min_size=1, max_size=8),
    column_strategy(), max_size=6)

meta_strategy = st.dictionaries(
    st.text(alphabet="xyz", min_size=1, max_size=4),
    st.one_of(st.integers(min_value=-10**6, max_value=10**6),
              st.text(max_size=8),
              st.lists(st.text(max_size=4), max_size=3)),
    max_size=4)


def assert_containers_equal(left: colpack.Columnar,
                            right: colpack.Columnar) -> None:
    assert left.schema == right.schema
    assert left.meta == right.meta
    assert sorted(left.columns) == sorted(right.columns)
    for name, array in left.columns.items():
        other = right.columns[name]
        assert array.dtype == other.dtype
        np.testing.assert_array_equal(array, other)


class TestRoundTrip:
    @given(meta=meta_strategy, columns=columns_strategy)
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_identity(self, meta, columns):
        blob = colpack.pack("probe-things", meta, columns)
        container = colpack.unpack(blob)
        assert_containers_equal(
            colpack.Columnar("probe-things", dict(meta), columns), container)

    @given(meta=meta_strategy, columns=columns_strategy)
    @settings(max_examples=25, deadline=None)
    def test_write_then_mmap_load_identity(self, meta, columns):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "artifact.col"
            colpack.write(path, "probe-things", meta, columns)
            for use_mmap in (True, False):
                container = colpack.load(path, use_mmap=use_mmap)
                assert_containers_equal(
                    colpack.Columnar("probe-things", dict(meta), columns),
                    container)

    def test_pack_is_deterministic_across_dict_order(self):
        a = np.arange(5, dtype=np.int64)
        b = np.ones(3, dtype=np.float64)
        forward = colpack.pack("s", {"k": 1, "j": 2}, {"a": a, "b": b})
        reverse = colpack.pack("s", {"j": 2, "k": 1}, {"b": b, "a": a})
        assert forward == reverse

    def test_unpacked_columns_are_views_not_copies(self):
        blob = colpack.pack("s", {}, {"a": np.arange(100, dtype=np.int64)})
        container = colpack.unpack(blob)
        assert container.column("a").base is not None

    def test_column_payloads_are_aligned(self):
        columns = {"a": np.arange(3, dtype=np.int8),
                   "b": np.arange(7, dtype=np.float64),
                   "c": np.arange(11, dtype=np.int32)}
        blob = colpack.pack("s", {}, columns)
        container = colpack.unpack(blob)
        for name in columns:
            array = container.column(name)
            offset = array.__array_interface__["data"][0]
            assert offset % array.dtype.itemsize == 0

    def test_missing_column_error_names_alternatives(self):
        container = colpack.unpack(
            colpack.pack("s", {}, {"a": np.zeros(1, dtype=np.int64)}))
        with pytest.raises(ColpackError, match="no column 'z'.*a"):
            container.column("z")


class TestRejection:
    def test_object_dtype_rejected_at_pack(self):
        with pytest.raises(ColpackError, match="not allowed"):
            colpack.pack("s", {}, {"a": np.asarray(["x"], dtype=object)})

    def test_string_dtype_rejected_at_pack(self):
        with pytest.raises(ColpackError, match="not allowed"):
            colpack.pack("s", {}, {"a": np.asarray(["x", "y"])})

    def test_big_endian_column_rejected(self):
        array = np.arange(4, dtype=np.dtype(">i8"))
        with pytest.raises(ColpackError, match="endian"):
            colpack.pack("s", {}, {"a": array})

    def test_bad_magic_rejected(self):
        with pytest.raises(ColpackError, match="bad magic"):
            colpack.unpack(b"NOPE" + b"\x00" * 32)

    def test_unknown_version_rejected(self):
        blob = bytearray(colpack.pack("s", {}, {}))
        blob[4:6] = (colpack.FORMAT_VERSION + 1).to_bytes(2, "little")
        with pytest.raises(ColpackError, match="version"):
            colpack.unpack(bytes(blob))

    def test_truncated_header_rejected(self):
        blob = colpack.pack("s", {}, {"a": np.arange(4, dtype=np.int64)})
        with pytest.raises(ColpackError, match="truncated"):
            colpack.unpack(blob[:20])

    def test_truncated_column_rejected(self):
        blob = colpack.pack("s", {}, {"a": np.arange(64, dtype=np.int64)})
        with pytest.raises(ColpackError, match="truncated column 'a'"):
            colpack.unpack(blob[:-64])

    def test_corrupt_header_json_rejected(self):
        blob = bytearray(colpack.pack("s", {}, {}))
        blob[16] = ord("!")  # first byte of the header JSON
        with pytest.raises(ColpackError, match="corrupt colpack header"):
            colpack.unpack(bytes(blob))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.col"
        path.write_bytes(b"")
        with pytest.raises(ColpackError, match="empty"):
            colpack.load(path)


class _Pair:
    """Minimal columnar-capable class for registry tests."""

    __columnar__ = "test-pair"

    def __init__(self, left, right, label):
        self.left = left
        self.right = right
        self.label = label

    def to_columns(self):
        return {"label": self.label}, {"left": self.left, "right": self.right}

    @classmethod
    def from_columns(cls, meta, columns):
        return cls(columns["left"], columns["right"], meta["label"])


colpack.register(_Pair)


class TestRegistry:
    def test_object_round_trip(self):
        pair = _Pair(np.arange(4, dtype=np.int64),
                     np.ones(2, dtype=np.float64), "hello")
        back = colpack.unpack_object(colpack.pack_object(pair))
        assert isinstance(back, _Pair)
        assert back.label == "hello"
        np.testing.assert_array_equal(back.left, pair.left)
        np.testing.assert_array_equal(back.right, pair.right)

    def test_object_file_round_trip(self, tmp_path):
        pair = _Pair(np.arange(4, dtype=np.int64),
                     np.zeros(0, dtype=np.uint8), "x")
        path = tmp_path / "pair.col"
        colpack.write_object(path, pair)
        back = colpack.load_object(path)
        assert isinstance(back, _Pair)
        np.testing.assert_array_equal(back.left, pair.left)

    def test_schema_of_only_matches_registered(self):
        assert colpack.schema_of(_Pair(None, None, "")) == "test-pair"
        assert colpack.schema_of(object()) is None
        assert colpack.schema_of({"not": "registered"}) is None

    def test_unregistered_object_rejected(self):
        with pytest.raises(ColpackError, match="not a registered"):
            colpack.pack_object(object())

    def test_unknown_schema_rejected_at_unpack(self):
        blob = colpack.pack("never-registered", {}, {})
        with pytest.raises(ColpackError, match="no columnar class"):
            colpack.unpack_object(blob)

    def test_register_requires_schema_tag(self):
        with pytest.raises(ValueError, match="__columnar__"):
            colpack.register(type("Tagless", (), {}))

    def test_register_rejects_schema_collision(self):
        clone = type("PairClone", (), {"__columnar__": "test-pair"})
        with pytest.raises(ValueError, match="already registered"):
            colpack.register(clone)

    def test_register_is_idempotent_for_same_class(self):
        assert colpack.register(_Pair) is _Pair
