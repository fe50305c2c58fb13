"""Content-addressed artifact store: one canonical-JSON file per task.

Artifacts live at ``<root>/<key[:2]>/<key>.json`` where ``key`` is the
task's content hash (see :meth:`CampaignTask.key`).  Because the payload is
written as canonical JSON, re-running an identical task produces a
byte-identical file — which is what makes cache hits trustworthy: same key
⇒ same config ⇒ same (deterministic) result — and makes two stores of one
grid comparable byte for byte (:func:`diff_stores`).

Every write goes to a temp file in the artifact's directory and is
``os.replace``-d into place, so a process killed mid-write never leaves a
torn artifact: at worst an orphaned ``*.tmp`` file, which :meth:`keys`
ignores like every other file outside the artifact layout.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterator

from repro.exceptions import InvalidParameterError
from repro.utils.serialization import canonical_json


_HEX_DIGITS = frozenset("0123456789abcdef")


def validate_artifact_key(key: str) -> str:
    """Artifact keys are non-empty lowercase hex (truncated sha256)."""
    if not key or not _HEX_DIGITS.issuperset(key):
        raise InvalidParameterError(f"malformed artifact key {key!r}")
    return key


class ArtifactStore:
    """Content-addressed JSON artifacts in a directory."""

    def __init__(self, root: "str | Path"):
        if not str(root):
            raise InvalidParameterError("ArtifactStore needs a root path")
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """Filesystem path of the artifact with content hash ``key``."""
        validate_artifact_key(key)
        return self.root / key[:2] / f"{key}.json"

    def has(self, key: str) -> bool:
        """Whether an artifact for ``key`` exists."""
        return self.path_for(key).is_file()

    def load(self, key: str) -> dict:
        """Read and decode the artifact for ``key``."""
        try:
            blob = self.path_for(key).read_bytes()
        except FileNotFoundError:
            raise InvalidParameterError(f"no artifact for key {key!r} in {self.root}") from None
        return json.loads(blob.decode("utf-8"))

    def save(self, key: str, payload: dict) -> Path:
        """Write ``payload`` as the artifact for ``key`` (atomic, canonical).

        Returns the artifact's path.  Two writers of one key both produce
        identical bytes, so the last ``os.replace`` winning is harmless.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(suffix=".tmp", dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write((canonical_json(payload, indent=2) + "\n").encode("utf-8"))
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise
        return path

    def keys(self) -> Iterator[str]:
        """All artifact keys currently in the store, sorted.

        Only files of the artifact layout count: temp files, and anything
        else found under the root, are not artifacts.
        """
        found = []
        if self.root.is_dir():
            for path in self.root.glob("*/*.json"):
                key = path.stem
                if (
                    len(key) >= 8
                    and key[:2] == path.parent.name
                    and _HEX_DIGITS.issuperset(key)
                    and path.is_file()
                ):
                    found.append(key)
        return iter(sorted(found))

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())


def diff_stores(a: ArtifactStore, b: ArtifactStore) -> list[str]:
    """Byte-compare two stores' artifacts; one line per difference.

    An empty list means the stores hold the same keys with byte-identical
    artifacts — ``diff -r`` restricted to the artifact layout, so temp files
    and other leftovers never count.
    """
    keys_a, keys_b = set(a.keys()), set(b.keys())
    lines = [f"only in {a.root}: {key}" for key in sorted(keys_a - keys_b)]
    lines += [f"only in {b.root}: {key}" for key in sorted(keys_b - keys_a)]
    for key in sorted(keys_a & keys_b):
        if a.path_for(key).read_bytes() != b.path_for(key).read_bytes():
            lines.append(f"artifact bytes differ: {key}")
    return lines
