"""Host-speed probe for scaling the benchmark's time metrics.

On a shared host the same code runs 20-50% slower for minutes at a time
while other tenants are busy, so raw wall times of identical operations
drift further apart than any useful regression bound.  The probe is a
fixed piece of interpreter and numpy work (string formatting, dict
inserts, a keyed sort, an integer argsort) that shares no code with the
repository, so no change under test can make it faster or slower.

``run.py`` times the probe right before and right after every
operation and set-up, and reports each time metric as

    seconds * REFERENCE_S / probe seconds

that is, seconds on a host where the probe takes ``REFERENCE_S``.  The
raw medians go into the run's provenance line.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time on an uncontended 2-cpu host; scaled times read as
#: seconds on such a host.
REFERENCE_S = 0.2


def probe_seconds() -> float:
    """Wall time of one run of the fixed probe workload."""
    started = time.perf_counter()
    table = {}
    for index in range(120_000):
        table["k%d" % index] = (index, "%d:%s" % (index * 7, index))
    rows = sorted(table.values(), key=lambda row: row[1])
    ",".join(row[1] for row in rows)
    keys = np.random.default_rng(1).integers(0, 1 << 30, 600_000)
    np.argsort(keys, kind="stable")
    return time.perf_counter() - started


def scale(seconds: float, probe: float) -> float:
    """``seconds`` as they would read on the reference host."""
    return seconds * REFERENCE_S / probe
