"""The original recursive canonical renderer, kept as a test oracle.

:func:`repro.runtime.digest.canonical` must produce exactly these bytes
for every value; ``test_digest_oracle`` checks it property-style.  This
is the implementation the pinned digests were first computed with: it
re-derives every value's rule with ``is_dataclass``/``fields``
introspection and plain recursion.
"""

from __future__ import annotations

import enum
from dataclasses import fields, is_dataclass


def reference_canon(value: object) -> str:
    """Deterministic, type-tagged rendering of one value."""
    if is_dataclass(value) and not isinstance(value, type):
        parts = ",".join("%s=%s" % (f.name,
                                    reference_canon(getattr(value, f.name)))
                         for f in fields(value))
        return "%s(%s)" % (type(value).__name__, parts)
    if isinstance(value, enum.Enum):
        return "%s.%s" % (type(value).__name__, value.name)
    if isinstance(value, dict):
        items = ",".join("%s:%s" % (reference_canon(key),
                                    reference_canon(value[key]))
                         for key in sorted(value))
        return "{%s}" % items
    if isinstance(value, (set, frozenset)):
        return "{%s}" % ",".join(reference_canon(item)
                                 for item in sorted(value))
    if isinstance(value, (list, tuple)):
        return "[%s]" % ",".join(reference_canon(item) for item in value)
    return repr(value)
