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
"""

from __future__ import annotations

import enum
from dataclasses import fields, is_dataclass
from typing import Callable, Iterable

from repro.core.pipeline import AnalysisResults
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


def results_digest(results: AnalysisResults) -> str:
    """Hex fingerprint over every derived output of one analysis run."""
    payload = canonical({
        "table2": results.table2_rows(),
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
    return fp.hash_text(payload)
