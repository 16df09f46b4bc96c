"""Pinned bundle fingerprints: the simulator's output is its contract.

Every layer downstream of the simulator — the perfbench digest pins,
the artifact cache keys, the paper-target checks — assumes that one
scenario seed yields one bundle, byte for byte.  A simulator change
that is meant to be a pure speed-up (a set instead of a scan, a cached
lookup) must keep these fingerprints; a change that moves a single RNG
draw, reorders a record or alters one timestamp fails here.
"""

from __future__ import annotations

import pytest

from repro.sim.io import bundle_fingerprint, write_world
from repro.sim.scenario import paper_scenario
from repro.sim.world import build_world

#: ``bundle_fingerprint`` of the paper scenario's written bundle, by
#: ``(scale, seed)``.
PINNED = {
    (0.05, 3): "9d8ab1988862bb1b31c2384473e23dd2"
               "63068b9e42441b77ac72a6131497fe71",
    (0.05, 4): "06b1cda002b7c23cb089753586a6597f"
               "91ffed34d10152b7603be745029043f9",
    (0.1, 3): "4795f8c91c2038ff57f47ef6302cfdac"
              "47e1b5ec4325b2ae4aeef7a571dcc61d",
}


@pytest.mark.parametrize("scale, seed", sorted(PINNED))
def test_paper_bundle_fingerprint_is_pinned(scale, seed, tmp_path):
    world = build_world(paper_scenario(scale=scale, seed=seed))
    root = write_world(world, tmp_path / "bundle")
    assert bundle_fingerprint(root) == PINNED[scale, seed]
