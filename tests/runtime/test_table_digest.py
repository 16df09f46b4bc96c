"""The table digest writer against the object oracle.

``results_digest`` writes every per-probe table straight from its
columns.  The text must be byte-equal to the canonical rendering of the
dict the table's ``to_map()`` builds — which stays the oracle, checked
here both through :func:`repro.runtime.digest.canonical` and through the
original recursive renderer.  Tables are random: unsorted probe ids,
probes with no items, every cause code, and awkward floats (``-0.0``,
huge, subnormal and integral values).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.association import GapCause
from repro.core.colartifact import (
    ColumnarChangeMap,
    ColumnarFloatMap,
    ColumnarGapEventMap,
    ColumnarSpanMap,
)
from repro.core.pipeline import pipeline_for_world
from repro.experiments.scenarios import small_world
from repro.runtime.digest import canonical, results_digest
from repro.util import fingerprint as fp
from tests.runtime.digest_oracle import reference_canon

AWKWARD = st.sampled_from([-0.0, 0.0, 1.0, 86400.0, 2.0 ** 53, 1e16,
                           1e22, 1.7976931348623157e308, 5e-324, 1e-5,
                           1.4202e9 + 0.125, -3.5])
FLOATS = AWKWARD | st.floats(allow_nan=False)
ADDRESSES = st.integers(0, 2 ** 32 - 1)
FLAGS = st.booleans()

#: Per table type: its item columns' value strategies.
ITEM_COLUMNS = {
    ColumnarSpanMap: {"address": ADDRESSES, "start": FLOATS, "end": FLOATS,
                      "complete_start": FLAGS, "complete_end": FLAGS},
    ColumnarFloatMap: {"values": FLOATS},
    ColumnarChangeMap: {"old": ADDRESSES, "new": ADDRESSES,
                        "gap_start": FLOATS, "gap_end": FLOATS},
    ColumnarGapEventMap: {"gap_start": FLOATS, "gap_end": FLOATS,
                          "cause": st.integers(0, len(GapCause) - 1),
                          "address_changed": FLAGS,
                          "outage_duration": FLOATS},
}


@st.composite
def tables(draw, cls):
    pids = draw(st.lists(st.integers(0, 10 ** 6), unique=True,
                         max_size=8))
    counts = [draw(st.integers(0, 4)) for _ in pids]
    columns = {name: draw(st.lists(values, min_size=sum(counts),
                                   max_size=sum(counts)))
               for name, values in ITEM_COLUMNS[cls].items()}
    return cls.build(counts, probe_ids=pids, **columns)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), cls=st.sampled_from(sorted(ITEM_COLUMNS,
                                                  key=lambda c: c.__name__)))
def test_table_text_is_the_text_of_its_map(data, cls):
    table = data.draw(tables(cls))
    text = canonical(table)
    assert text == canonical(table.to_map())
    assert text == reference_canon(table.to_map())


def test_negative_zero_and_extremes_render_exactly():
    table = ColumnarFloatMap.build([4, 0], probe_ids=[9, 3],
                                   values=[-0.0, 1e300, 5e-324, 7.0])
    assert canonical(table) == "{3:[],9:[-0.0,1e+300,5e-324,7.0]}"
    assert canonical(table) == reference_canon(table.to_map())


def test_results_digest_is_the_digest_of_the_object_dicts():
    """The whole-results payload, written from tables, hashes exactly
    like the payload of the per-probe object dicts did."""
    results = pipeline_for_world(small_world(seed=41, days=40)).run()
    payload = reference_canon({
        "table2": results.filter_report.table2_rows(),
        "spans": results.spans_by_probe,
        "durations": results.durations_by_probe,
        "changes": results.changes_by_probe,
        "asn": results.asn_by_probe,
        "gaps": results.gap_events_by_probe,
        "stats": results.stats_by_probe,
        "reboot_days": results.reboot_day_counts,
        "firmware_days": results.firmware_days,
        "v3": results._v3_probes,
    })
    assert results_digest(results) == fp.hash_text(payload)
