"""Query results as JSON text, written from the columns.

The service answers with ``json.dumps(payload, sort_keys=True)``
bytes.  Rows are the bulk of a response, so they are written here
straight from a shard table's columns instead of through a dict per
row: one ``%``-template per schema with the keys already in sorted
order, values taken out with ``tolist()``, each distinct timestamp and
name formatted once.  The text is the one ``json.dumps`` writes:

* floats as ``float.__repr__``, non-finite ones as ``NaN``,
  ``Infinity`` and ``-Infinity``;
* strings (and object keys) through ``encode_basestring_ascii``;
* object members in sorted key order, ``", "`` and ``": "`` between.
"""

from __future__ import annotations

import functools
from json.encoder import encode_basestring_ascii

import numpy as np

#: ``float.__repr__`` of a non-finite float → how JSON writes it.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def floats_json(values: np.ndarray) -> list[str]:
    """Each float of a 1-D array as JSON text."""
    texts = list(map(float.__repr__, values.tolist()))
    bad = ~np.isfinite(values)
    if bad.any():
        for i in np.flatnonzero(bad).tolist():
            texts[i] = _NONFINITE[texts[i]]
    return texts


def number_json(x: float | int) -> str:
    """One int or float as JSON text."""
    if isinstance(x, float):
        text = float.__repr__(x)
        return _NONFINITE.get(text, text)
    return int.__repr__(x)


def times_json(t: np.ndarray) -> list[str]:
    """Each timestamp as JSON text, each distinct one formatted once
    (told apart by bits, so ``-0.0`` and ``0.0`` keep their own)."""
    keys = t.view(np.int64).tolist()
    distinct = list(dict.fromkeys(keys))
    texts = dict(zip(distinct, floats_json(
        np.array(distinct, np.int64).view(np.float64))))
    return list(map(texts.__getitem__, keys))


def names_json(ids: np.ndarray, names: list[str]) -> list[str]:
    """Each interned id's name as a JSON string."""
    return list(map(encode_basestring_ascii,
                    map(names.__getitem__, ids.tolist())))


@functools.lru_cache(maxsize=1024)
def row_template(fields: tuple[str, ...]) -> tuple[str, tuple[int, ...]]:
    """The ``%``-template of one reading's JSON object for a schema,
    and the schema's value columns in the order the template takes
    them (sorted field names).  The template's arguments are the
    location, mechanism and timestamp texts, then the values."""
    order = tuple(sorted(range(len(fields)), key=fields.__getitem__))
    values = ", ".join(encode_basestring_ascii(fields[i]).replace("%", "%%")
                       + ": %s" for i in order)
    return ('{"location": %s, "mechanism": %s, "t": %s, "values": {'
            + values + "}}", order)


def object_json(members: dict[str, str]) -> str:
    """A JSON object from member name → member JSON text, in sorted
    name order."""
    return "{" + ", ".join(f"{encode_basestring_ascii(name)}: {text}"
                           for name, text in sorted(members.items())) + "}"

