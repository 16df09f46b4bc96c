"""Canonical digest of an :class:`AnalysisResults`.

The executor's equivalence guarantee ("``jobs=N`` is bit-identical to
``jobs=1``, warm cache identical to cold") needs a way to compare two
results objects exactly.  This module serializes every derived output —
per-probe spans, durations, changes, gap events, outage stats, reboot
aggregates — into one canonical string and hashes it.  Two results with
equal digests agree on every table and figure, since all of those are
pure functions of the digested fields.

The canonical grammar, by the first rule that matches a value's type:

* dataclass instance → ``Name(f1=<v1>,f2=<v2>)`` in field order;
* enum member → ``Name.member``;
* dict → ``{<k>:<v>,...}`` in sorted key order;
* set / frozenset → ``{<v>,...}`` in sorted order;
* list / tuple → ``[<v>,...]``;
* anything else → ``repr`` (for floats the shortest exact round-trip
  text, so any bit-level numeric divergence changes the digest).

:func:`canonical` applies it through one writer per exact type, resolved
on first sight and memoized; a dataclass's writer is compiled once from
its field names instead of re-introspecting every instance.

A per-probe result table the digest covers (the spans, durations,
changes and gap-event tables of :mod:`repro.core.colartifact`) renders
as exactly the text of the dict its ``to_map()`` builds: the digest is
written straight from the columns, through row templates generated
from the item dataclasses, without building one object.
"""

from __future__ import annotations

import enum
from dataclasses import fields, is_dataclass
from typing import Callable, Iterable

import numpy as np

from repro.core.association import GapCause, GapEvent
from repro.core.changes import AddressChange, AddressSpan
from repro.core.colartifact import (
    ColumnarChangeMap,
    ColumnarFloatMap,
    ColumnarGapEventMap,
    ColumnarSpanMap,
)
from repro.core.pipeline import AnalysisResults
from repro.net.ipv4 import IPv4Address
from repro.util import fingerprint as fp

Writer = Callable[[object], str]


def canonical(value: object) -> str:
    """Deterministic, type-tagged rendering of one value."""
    return (_writer(type(value)) or _writer_for(type(value)))(value)


def _render_all(values: Iterable[object]) -> list[str]:
    """:func:`canonical` of each value, dispatched inline (hot path)."""
    return [(_writer(type(value)) or _writer_for(type(value)))(value)
            for value in values]


def _write_dict(value: dict) -> str:
    # Item by item: the digest's top-level values are megabytes of text,
    # and only the joined items may be held at once.
    return "{%s}" % ",".join([canonical(key) + ":" + canonical(value[key])
                              for key in sorted(value)])


def _write_set(value: set | frozenset) -> str:
    return "{%s}" % ",".join(_render_all(sorted(value)))


def _write_sequence(value: list | tuple) -> str:
    return "[%s]" % ",".join(_render_all(value))


def _dataclass_writer(cls: type) -> Writer:
    """Generate ``cls``'s writer from its field names, once.

    Like the methods :mod:`dataclasses` itself generates, the writer is
    compiled from source: one ``%`` format of the type's fixed template
    over its fields, each dispatched inline on its exact type.
    """
    names = [f.name for f in fields(cls)]
    template = "%s(%s)" % (cls.__name__, ",".join("%s=%%s" % name
                                                    for name in names))
    rendered = "".join("(_writer(type(value.%s)) or _writer_for(type("
                       "value.%s)))(value.%s), " % (name, name, name)
                       for name in names)
    namespace = {"_writer": _writer, "_writer_for": _writer_for}
    exec("def write(value):\n    return %r %% (%s)\n"
         % (template, rendered), namespace)
    return namespace["write"]


def _enum_writer(cls: type) -> Writer:
    prefix = cls.__name__ + "."
    return lambda value: prefix + value._name_


def _writer_for(cls: type) -> Writer:
    """Resolve (and memoize) the grammar rule for one exact type."""
    if is_dataclass(cls):
        writer = _dataclass_writer(cls)
    elif issubclass(cls, enum.Enum):
        writer = _enum_writer(cls)
    elif issubclass(cls, dict):
        writer = _write_dict
    elif issubclass(cls, (set, frozenset)):
        writer = _write_set
    elif issubclass(cls, (list, tuple)):
        writer = _write_sequence
    else:
        writer = repr
    _WRITERS[cls] = writer
    return writer


#: Exact type -> writer.  Only ever grows, and every entry a racing
#: thread could add is the same pure function of the type.
_WRITERS: dict[type, Writer] = {}
_writer = _WRITERS.get


# -- result tables --------------------------------------------------------------

def _template(cls: type, **formats: str) -> str:
    """``Name(f1=%r,...)``: one dataclass instance's text as a ``%``
    template over its fields, with per-field format overrides."""
    return "%s(%s)" % (cls.__name__, ",".join(
        "%s=%s" % (f.name, formats.get(f.name, "%r")) for f in fields(cls)))


_ADDRESS = _template(IPv4Address)


def _table_writer(template: str, columns: Callable[[object], list]
                  ) -> Writer:
    """The writer of one table type.

    ``columns(table)`` lists the template's per-item values, one native
    list per field (``tolist()`` values: ints, floats and bools render
    through ``repr`` exactly like the objects' fields would); each
    item's text is ``template % values``.  Rows render as the
    ``{probe id: [items]}`` dict in sorted key order.
    """
    def write(table) -> str:
        items = list(map(template.__mod__, zip(*columns(table))))
        offsets = table.offsets.tolist()
        pids = table.probe_ids.tolist()
        return "{%s}" % ",".join([
            "%r:[%s]" % (pids[row],
                         ",".join(items[offsets[row]:offsets[row + 1]]))
            for row in np.argsort(table.probe_ids, kind="stable").tolist()])
    return write


def _item_ids(table) -> list[int]:
    return np.repeat(table.probe_ids, table.counts()).tolist()


def _flags(column: np.ndarray) -> list[bool]:
    return (column != 0).tolist()


def _cause_texts(table) -> list[str]:
    texts = [canonical(GapCause[name]) for name in table.meta["causes"]]
    return [texts[code] for code in table.columns["cause"].tolist()]


_WRITERS.update({
    ColumnarSpanMap: _table_writer(
        _template(AddressSpan, address=_ADDRESS),
        lambda table: [_item_ids(table),
                       table.columns["address"].tolist(),
                       table.columns["start"].tolist(),
                       table.columns["end"].tolist(),
                       _flags(table.columns["complete_start"]),
                       _flags(table.columns["complete_end"])]),
    ColumnarFloatMap: _table_writer(
        "%r", lambda table: [table.columns["values"].tolist()]),
    ColumnarChangeMap: _table_writer(
        _template(AddressChange, old_address=_ADDRESS,
                  new_address=_ADDRESS),
        lambda table: [_item_ids(table), table.columns["old"].tolist(),
                       table.columns["new"].tolist(),
                       table.columns["gap_start"].tolist(),
                       table.columns["gap_end"].tolist()]),
    ColumnarGapEventMap: _table_writer(
        _template(GapEvent, cause="%s"),
        lambda table: [_item_ids(table),
                       table.columns["gap_start"].tolist(),
                       table.columns["gap_end"].tolist(),
                       _cause_texts(table),
                       _flags(table.columns["address_changed"]),
                       table.columns["outage_duration"].tolist()]),
})


def results_digest(results: AnalysisResults) -> str:
    """Hex fingerprint over every derived output of one analysis run."""
    payload = canonical({
        "table2": results.table2_rows(),
        "spans": results.span_table,
        "durations": results.duration_table,
        "changes": results.change_table,
        "asn": results.asn_by_probe,
        "gaps": results.gap_table,
        "stats": results.stats_by_probe,
        "reboot_days": results.reboot_day_counts,
        "firmware_days": results.firmware_days,
        "v3": results._v3_probes,
    })
    return fp.hash_text(payload)
