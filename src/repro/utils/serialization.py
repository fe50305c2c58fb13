"""Canonical JSON serialisation and stable content hashing.

The campaign artifact store needs two properties from its serialisation:

* **canonical** — the same value always produces the same bytes (sorted keys,
  fixed separators, no environment-dependent formatting), so artifacts are
  byte-identical across runs and machines; and
* **total** — every value that appears in experiment configs and raw results
  (numpy scalars, tuples, dataclasses, paths) has a defined encoding.

:func:`stable_hash` builds content-addressed keys on top of
:func:`canonical_json`.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import PurePath
from typing import Any


def tuplify(value: Any) -> Any:
    """Recursively turn lists/tuples into tuples.

    The inverse normalisation of a JSON round trip (JSON has no tuple), used
    wherever round-tripped overrides must stay hashable and compare equal to
    their tuple-valued originals.
    """
    if isinstance(value, (list, tuple)):
        return tuple(tuplify(item) for item in value)
    return value


def jsonify(value: Any) -> Any:
    """Recursively convert ``value`` into plain JSON-serialisable types.

    Tuples become lists (JSON has no tuple), numpy scalars become Python
    scalars, numpy arrays become nested lists, dataclasses become dicts and
    paths become strings.  Dict keys are coerced to ``str``.
    """
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    # A numpy value exists only once numpy is imported, so an unloaded numpy
    # needs no checks (and is not loaded for them).
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.ndarray):
            return [jsonify(v) for v in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonify(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [jsonify(v) for v in items]
    if isinstance(value, PurePath):
        return str(value)
    raise TypeError(f"cannot serialise {type(value).__name__!r} value {value!r}")


def canonical_json(value: Any, indent: int | None = None) -> str:
    """Serialise ``value`` as deterministic JSON text.

    Keys are sorted and separators fixed, so equal values yield identical
    strings.  Non-finite floats are kept (``Infinity``/``NaN`` literals) —
    the store only ever reads its own output back.
    """
    separators = (",", ": ") if indent is not None else (",", ":")
    return json.dumps(jsonify(value), sort_keys=True, indent=indent, separators=separators)


def stable_hash(value: Any, length: int = 16) -> str:
    """A deterministic hex digest of ``value``'s canonical JSON form.

    ``length`` trims the sha256 hex digest (64 chars) for readable artifact
    file names; 16 hex chars keep collision odds negligible at campaign scale.
    """
    import hashlib  # here: it maps OpenSSL's libcrypto, which only campaign keys need

    digest = hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
    return digest[:length]
