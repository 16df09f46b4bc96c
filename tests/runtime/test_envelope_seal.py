"""A flipped byte anywhere in a sealed colpack payload fails the seal.

The seal covers every byte a shard's result table travels in — header,
column table, column data and alignment padding.  On the pool path the
envelope crosses a pickle (the process pool's transport) before the
board opens it; on the dist path it crosses a RESULT frame, whose own
frame digest is computed over the already-corrupted envelope and so
cannot catch it.  Either way the board must charge the attempt as
corrupt, and the shard still resolves with the intact table from its
retry.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atlas.columnar import ColumnarConnlog
from repro.core import colkernels
from repro.dist import protocol
from repro.errors import EnvelopeCorruptError
from repro.experiments.scenarios import small_world
from repro.runtime.board import (
    SUBMIT_CORRUPT,
    SUBMIT_RESOLVED,
    LeaseBoard,
    SupervisionPolicy,
)
from repro.runtime.workers import ShardResult
from repro.util import timeutil


@pytest.fixture(scope="module")
def table():
    world = small_world(seed=37, days=40)
    col = ColumnarConnlog.from_connlog(world.connlog)
    return colkernels.classify_probes(col, world.archive, world.ip2as,
                                      4 * timeutil.DAY,
                                      col.probe_ids.tolist()[:12])


def flipped(envelope: ShardResult, position: int, mask: int) -> ShardResult:
    blob = bytearray(envelope.payload)
    blob[position % len(blob)] ^= mask
    return ShardResult(shard_index=envelope.shard_index,
                       attempt=envelope.attempt, payload=bytes(blob),
                       seal=envelope.seal)


def via_pool(envelope: ShardResult) -> ShardResult:
    return pickle.loads(pickle.dumps(envelope))


def via_dist(envelope: ShardResult) -> ShardResult:
    frame = protocol.pack(protocol.Result(
        lease_id=1, stage="filter", shard_index=envelope.shard_index,
        attempt=envelope.attempt, envelope=envelope))
    code, length, digest = protocol.unpack_header(
        frame[:protocol.HEADER.size])
    return protocol.unpack_payload(
        code, frame[protocol.HEADER.size:], digest).envelope


@settings(max_examples=60, deadline=None)
@given(position=st.integers(min_value=0),
       mask=st.integers(min_value=1, max_value=255),
       transport=st.sampled_from([via_pool, via_dist]))
def test_any_flipped_byte_fails_the_seal(table, position, mask, transport):
    good = ShardResult.sealed(table, shard_index=0, capture_obs=False)
    bad = transport(flipped(good, position, mask))
    with pytest.raises(EnvelopeCorruptError):
        bad.open_payload()

    board = LeaseBoard("filter", [[0]], SupervisionPolicy(
        max_retries=1, backoff_base_s=0.0), clock=lambda: 0.0)
    first = board.lease("w0")
    assert board.submit(first.lease_id, bad) == SUBMIT_CORRUPT
    retry = board.lease("w0")
    assert retry.attempt == 1
    assert board.submit(retry.lease_id, transport(good)) == SUBMIT_RESOLVED
    assert board.finish(lambda item: item).payloads == [table]
