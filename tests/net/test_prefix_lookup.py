"""Batched prefix lookups against the trie, address by address.

:meth:`IpToAsDataset.prefix_ids` and the snapshot's stab table must
agree with a :class:`~tests.net.trie_oracle.PrefixTrie` longest-prefix match
built from the same mappings, for every address probed: nested
prefixes, ``/0`` and ``/32`` prefixes, unrouted space, and sibling
prefixes sharing an origin AS (which stay distinct prefixes).  The
REPAIR month fallback and the missing-month error must match the
per-call path.
"""

from __future__ import annotations

import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatasetError
from repro.net.ipv4 import MAX_IPV4, IPv4Address, IPv4Prefix
from repro.net.pfx2as import (
    UNROUTED,
    AsMapping,
    IpToAsDataset,
    Pfx2AsSnapshot,
    prefix_id,
    prefix_of_id,
)
from tests.net.trie_oracle import PrefixTrie
from repro.util import timeutil

# A few ASNs only, so nested and sibling prefixes often share one.
ASNS = st.sampled_from([64500, 64501, 64502])


@st.composite
def mapping_lists(draw):
    mappings = []
    for _ in range(draw(st.integers(0, 24))):
        length = draw(st.integers(0, 32))
        network = draw(st.integers(0, MAX_IPV4)) >> (32 - length) \
            << (32 - length) if length else 0
        mappings.append(AsMapping(IPv4Prefix(network, length), draw(ASNS)))
        if draw(st.booleans()) and length < 32:
            # A nested more-specific inside the prefix just drawn.
            inner = draw(st.integers(length + 1, 32))
            offset = draw(st.integers(0, (1 << (32 - length)) - 1))
            inner_net = (network + offset) >> (32 - inner) << (32 - inner)
            mappings.append(AsMapping(IPv4Prefix(inner_net, inner),
                                      draw(ASNS)))
    return mappings


def oracle(mappings) -> PrefixTrie:
    trie = PrefixTrie()
    for mapping in mappings:
        trie.insert(mapping.prefix, mapping)
    return trie


def probe_values(rng: random.Random, mappings) -> list[int]:
    values = [0, MAX_IPV4] + [rng.getrandbits(32) for _ in range(200)]
    for mapping in mappings:
        first = mapping.prefix.network
        last = first + mapping.prefix.size - 1
        values += [first, last, max(first - 1, 0), min(last + 1, MAX_IPV4)]
    return values


def expected_id(trie: PrefixTrie, value: int) -> int:
    match = trie.longest_match(IPv4Address(value))
    return UNROUTED if match is None else prefix_id(match[0])


@settings(max_examples=150, deadline=None)
@given(mapping_lists(), st.integers(0, 2 ** 32))
def test_batched_lookup_matches_trie(mappings, seed):
    snapshot = Pfx2AsSnapshot(mappings)
    trie = oracle(mappings)
    dataset = IpToAsDataset()
    dataset.add_snapshot(2015, 3, snapshot)
    values = probe_values(random.Random(seed), mappings)
    when = timeutil.epoch(2015, 3, 9)
    got = dataset.prefix_ids(values, [when] * len(values))
    for value, pid in zip(values, got):
        assert pid == expected_id(trie, value), value
        per_call = dataset.bgp_prefix(IPv4Address(value), when)
        assert per_call == (None if pid == UNROUTED else prefix_of_id(pid))


@settings(max_examples=150, deadline=None)
@given(mapping_lists(), st.integers(0, 2 ** 32))
def test_batched_asn_lookup_matches_trie(mappings, seed):
    snapshot = Pfx2AsSnapshot(mappings)
    trie = oracle(mappings)
    dataset = IpToAsDataset()
    dataset.add_snapshot(2015, 3, snapshot)
    values = probe_values(random.Random(seed), mappings)
    when = timeutil.epoch(2015, 3, 9)
    got = dataset.origin_asns(values, [when] * len(values)).tolist()
    for value, asn in zip(values, got):
        match = trie.lookup(IPv4Address(value))
        assert asn == (UNROUTED if match is None else match.asn), value
        assert dataset.origin_asn(IPv4Address(value), when) == (
            None if asn == UNROUTED else asn)


@settings(max_examples=150, deadline=None)
@given(mapping_lists(), st.integers(0, 2 ** 32))
def test_stab_asns_unchanged(mappings, seed):
    snapshot = Pfx2AsSnapshot(mappings)
    trie = oracle(mappings)
    bounds, asns = snapshot.stab_table()
    assert bounds[0] == 0 and bounds == sorted(bounds)
    for value in probe_values(random.Random(seed), mappings):
        match = trie.lookup(IPv4Address(value))
        expected = UNROUTED if match is None else match.asn
        assert asns[bisect_right(bounds, value) - 1] == expected
        assert snapshot.origin_asn(IPv4Address(value)) == (
            None if match is None else match.asn)


def test_equal_asn_siblings_stay_distinct_prefixes():
    left = IPv4Prefix.parse("10.0.0.0/24")
    right = IPv4Prefix.parse("10.0.1.0/24")
    snapshot = Pfx2AsSnapshot([AsMapping(left, 64500),
                               AsMapping(right, 64500)])
    dataset = IpToAsDataset()
    dataset.add_snapshot(2015, 1, snapshot)
    when = timeutil.epoch(2015, 1, 2)
    values = [IPv4Address.parse(text).value
              for text in ("10.0.0.255", "10.0.1.0", "10.0.2.0")]
    assert dataset.prefix_ids(values, [when] * 3) == [
        prefix_id(left), prefix_id(right), UNROUTED]
    # The ASN view of the same sweep still answers 64500 for both.
    bounds, asns = snapshot.stab_table()
    assert [asns[bisect_right(bounds, v) - 1] for v in values] == [
        64500, 64500, UNROUTED]


def test_prefix_ids_round_trip_and_order():
    prefixes = [IPv4Prefix.parse(text) for text in (
        "0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/16",
        "255.255.255.255/32")]
    ids = [prefix_id(prefix) for prefix in prefixes]
    assert [prefix_of_id(pid) for pid in ids] == prefixes
    assert sorted(ids) == [prefix_id(p) for p in sorted(prefixes)]


def months_dataset(fallback: bool) -> tuple[IpToAsDataset, dict]:
    """Snapshots for March and June only, each mapping 10/8 differently."""
    dataset = IpToAsDataset(fallback=fallback)
    tries = {}
    for month, length in ((3, 8), (6, 16)):
        mapping = AsMapping(IPv4Prefix(10 << 24, length), 64500 + month)
        dataset.add_snapshot(2015, month, Pfx2AsSnapshot([mapping]))
        tries[month] = oracle([mapping])
    return dataset, tries


def test_fallback_months_match_per_call_lookups():
    dataset, tries = months_dataset(fallback=True)
    value = IPv4Address.parse("10.0.5.5").value
    # Jan/Feb fall back to the earliest later month (March); Apr/May to
    # March, the nearest earlier; Jul onwards to June.
    resolved = {1: 3, 2: 3, 3: 3, 4: 3, 5: 3, 6: 6, 7: 6, 12: 6}
    times = [timeutil.epoch(2015, month, 15) for month in resolved]
    got = dataset.prefix_ids([value] * len(times), times)
    for (month, source), when, pid in zip(resolved.items(), times, got):
        assert pid == expected_id(tries[source], value), month
        assert prefix_of_id(pid) == dataset.bgp_prefix(IPv4Address(value),
                                                       when)


def test_missing_month_raises_like_per_call():
    dataset, _ = months_dataset(fallback=False)
    value = IPv4Address.parse("10.0.5.5").value
    times = [timeutil.epoch(2015, 3, 2), timeutil.epoch(2015, 5, 2),
             timeutil.epoch(2015, 4, 2)]
    with pytest.raises(DatasetError) as per_call:
        for when in times:
            dataset.bgp_prefix(IPv4Address(value), when)
    with pytest.raises(DatasetError) as batched:
        dataset.prefix_ids([value] * 3, times)
    assert str(batched.value) == str(per_call.value) == (
        "no pfx2as snapshot for 2015-05")


def test_batched_asns_share_month_resolution_order():
    dataset, _ = months_dataset(fallback=False)
    value = IPv4Address.parse("10.0.5.5").value
    times = [timeutil.epoch(2015, 3, 2), timeutil.epoch(2015, 5, 2),
             timeutil.epoch(2015, 4, 2)]
    with pytest.raises(DatasetError, match="2015-05"):
        dataset.origin_asns([value] * 3, times)
    fallback, _ = months_dataset(fallback=True)
    got = fallback.origin_asns([value] * 3, times).tolist()
    assert got == [fallback.origin_asn(IPv4Address(value), when)
                   for when in times]


def test_months_without_lookups_are_never_resolved():
    dataset, _ = months_dataset(fallback=False)
    value = IPv4Address.parse("10.0.5.5").value
    # April and May have no snapshot, but no lookup falls in them.
    times = [timeutil.epoch(2015, 3, 2), timeutil.epoch(2015, 6, 2)]
    assert dataset.prefix_ids([value, value], times) == [
        prefix_id(IPv4Prefix(10 << 24, 8)),
        prefix_id(IPv4Prefix(10 << 24, 16))]
    assert dataset.prefix_ids([], []) == []
