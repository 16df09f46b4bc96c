"""The compiled canonical writer against the recursive reference.

Random nested payloads — dataclasses inside containers inside
dataclasses, str- and int-valued enums, int- and str-keyed dicts, sets,
frozensets, tuples, lists, ``None``, bools and awkward floats — must
render to byte-identical text under :func:`repro.runtime.digest.canonical`
and the original recursive renderer in :mod:`digest_oracle`.
"""

from __future__ import annotations

import enum
from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.digest import canonical

from tests.runtime.digest_oracle import reference_canon


class Color(str, enum.Enum):
    RED = "red"
    GREEN = "green"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Plain(enum.Enum):
    A = (1, 2)
    B = "b"


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Single:
    value: object


@dataclass
class Pair:
    left: object
    right: object = None
    extra: list = field(default_factory=list)


@dataclass
class Child(Pair):
    depth: int = 0


class Point(NamedTuple):
    x: object
    y: object


AWKWARD_FLOATS = [0.0, -0.0, float("inf"), float("-inf"), 5e-324,
                  2.2250738585072014e-308, 1e-310, 0.1, 1e16, 1 / 3]

floats = st.one_of(st.sampled_from(AWKWARD_FLOATS),
                   st.floats(allow_nan=False, allow_subnormal=True))
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), floats, st.text(max_size=6),
    st.sampled_from(list(Color) + list(Level) + list(Plain)),
    st.just(Empty()))
# Int keys mixed with IntEnum members still sort, as int keys do.
int_keys = st.one_of(st.integers(), st.sampled_from(list(Level)))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.integers(), children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.sets(st.integers(), max_size=4),
        st.frozensets(st.text(max_size=4), max_size=4),
        st.sets(floats, max_size=4),
        st.dictionaries(int_keys, children, max_size=3).map(OrderedDict),
        st.builds(Single, children),
        st.builds(Pair, children, children, st.lists(children, max_size=2)),
        st.builds(Child, children, children, st.lists(children, max_size=2),
                  st.integers()),
        st.builds(Point, children, children),
    )


payloads = st.recursive(leaves, containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_canonical_matches_reference_bytes(payload):
    assert canonical(payload) == reference_canon(payload)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(), st.lists(payloads, max_size=3),
                       max_size=5))
def test_probe_keyed_payloads_match(payload):
    # The digest's own shape: probe id -> list of records.
    assert canonical({"spans": payload}) == reference_canon({"spans": payload})


def test_precedence_edge_cases():
    grouped = defaultdict(list, {2: [Level.LOW], 1: [Color.RED]})
    cases = [
        True, None, -0.0, Empty(), Single(Single(Plain.A)),
        Point(1.5, (2, [3])), grouped, {Level.HIGH: 1, Level.LOW: 2},
        frozenset({-0.0}), {"b": set(), "a": frozenset()},
        Child(left=Color.GREEN, depth=3), Pair, Level,
    ]
    for value in cases:
        assert canonical(value) == reference_canon(value), value
