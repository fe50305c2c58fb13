"""Pluggable blob backends for the campaign artifact store.

The artifact store used to *be* a directory of JSON files; distributing
campaigns across workers (and eventually hosts) needs the storage contract
separated from the storage medium.  A :class:`StoreBackend` is an
object-store-shaped keyed blob API — opaque ``str`` keys, ``bytes`` values,
list-by-prefix — with the three atomic primitives the work-stealing
dispatcher builds its lease protocol on:

* ``put`` — all-or-nothing publish (a reader never observes a torn value);
* ``put_if_absent`` — atomic create, exactly one concurrent caller wins;
* ``compare_and_put`` — atomic compare-and-set on an existing value, used
  for lease heartbeat renewal and expired-lease stealing.

Three implementations ship:

* :class:`FilesystemBackend` — keys are relative paths under a root
  directory.  This is the original store layout, byte for byte: an
  artifact-store key ``ab12…/…json`` lands at exactly the same path as
  before, so ``diff -r`` between old and new stores is empty.
* :class:`SQLiteBackend` — a single-file keyed blob table (stdlib
  ``sqlite3``), the local stand-in for an S3-style object store: opaque
  keys, conditional puts and prefix listing, safe across processes.
* :class:`MemoryBackend` — an in-process dict (optionally a named shared
  namespace), for tests and thread-based worker fleets.

``open_backend`` parses a store spec — ``file:PATH``, ``sqlite:PATH``,
``memory:NAME`` or a plain path (filesystem) — so every CLI ``--store``
flag can address any backend.
"""

from __future__ import annotations

import contextlib
import os
import sqlite3
import tempfile
import threading
import time
from abc import ABC, abstractmethod
from pathlib import Path

from repro.exceptions import InvalidParameterError

#: Filename suffixes the filesystem backend treats as transient plumbing
#: (in-flight temp writes, CAS lock files) rather than stored blobs.
TRANSIENT_SUFFIXES = (".tmp", ".lock")

#: A CAS lock file older than this is presumed orphaned by a killed process
#: and is broken.  Locks are normally held for well under a millisecond.
LOCK_STALE_SECONDS = 10.0


def validate_backend_key(key: str) -> str:
    """Reject keys that are empty, absolute or escape the keyspace.

    Keys are opaque to backends *except* that the filesystem backend maps
    them to relative paths, so traversal segments are rejected for every
    backend — a key must mean the same blob everywhere.
    """
    if not key or not isinstance(key, str):
        raise InvalidParameterError(f"malformed backend key {key!r}")
    if key.startswith("/") or key.endswith("/"):
        raise InvalidParameterError(f"malformed backend key {key!r}")
    parts = key.split("/")
    if any(part in ("", ".", "..") for part in parts):
        raise InvalidParameterError(f"malformed backend key {key!r}")
    return key


class StoreBackend(ABC):
    """Keyed blob storage with the atomic primitives leases need."""

    @abstractmethod
    def get(self, key: str) -> "bytes | None":
        """The blob at ``key``, or ``None`` if absent."""

    @abstractmethod
    def put(self, key: str, data: bytes) -> None:
        """Publish ``data`` at ``key`` atomically (last writer wins)."""

    @abstractmethod
    def put_if_absent(self, key: str, data: bytes) -> bool:
        """Create ``key`` atomically; ``True`` iff this call created it."""

    @abstractmethod
    def compare_and_put(self, key: str, data: bytes, expected: bytes) -> bool:
        """Replace ``key``'s blob iff it currently equals ``expected``."""

    @abstractmethod
    def exists(self, key: str) -> bool:
        """Whether a blob is stored at ``key``."""

    @abstractmethod
    def list_keys(self, prefix: str = "") -> list[str]:
        """All stored keys starting with ``prefix``, sorted."""

    @abstractmethod
    def delete(self, key: str) -> bool:
        """Remove ``key``; ``True`` iff a blob was removed."""

    @abstractmethod
    def describe(self) -> str:
        """The spec string that re-opens this backend (``scheme:location``)."""

    def sweep_transients(self) -> int:
        """Remove leftover plumbing (temp/lock files); returns count removed.

        Only meaningful for backends whose atomicity is built from rename
        tricks; transactional backends have nothing to sweep.
        """
        return 0


class FilesystemBackend(StoreBackend):
    """Blobs as files under a root directory (the original store layout).

    ``put`` writes a uniquely-named temp file next to the target and
    ``os.replace``s it into place, so a killed writer can never leave a torn
    blob — at worst an orphaned ``*.tmp`` file that ``sweep_transients``
    collects and every read path ignores.  ``put_if_absent`` publishes via
    ``os.link`` (atomic create).  ``compare_and_put`` serialises
    read-compare-replace behind an ``O_EXCL`` lock file; a lock orphaned by
    a killed process is broken after :data:`LOCK_STALE_SECONDS`.
    """

    def __init__(self, root: "str | Path"):
        if not str(root):
            raise InvalidParameterError("filesystem backend needs a root path")
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root.joinpath(*validate_backend_key(key).split("/"))

    def _write_temp(self, directory: Path, data: bytes) -> str:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(suffix=".tmp", dir=directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise
        return tmp_name

    def get(self, key: str) -> "bytes | None":
        try:
            return self._path(key).read_bytes()
        except FileNotFoundError:
            return None

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        tmp_name = self._write_temp(path.parent, data)
        try:
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise

    def put_if_absent(self, key: str, data: bytes) -> bool:
        path = self._path(key)
        if path.exists():
            return False
        tmp_name = self._write_temp(path.parent, data)
        try:
            os.link(tmp_name, path)
            return True
        except FileExistsError:
            return False
        finally:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)

    @contextlib.contextmanager
    def _locked(self, path: Path, timeout: float = 10.0):
        lock = path.with_name(path.name + ".lock")
        lock.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + timeout
        while True:
            try:
                os.close(os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                break
            except FileExistsError:
                try:
                    age = time.time() - os.stat(lock).st_mtime
                except FileNotFoundError:
                    continue  # released between open() and stat(); retry
                if age > LOCK_STALE_SECONDS:
                    with contextlib.suppress(OSError):
                        os.unlink(lock)
                    continue
                if time.monotonic() > deadline:
                    raise InvalidParameterError(
                        f"timed out waiting for store lock {lock}"
                    )
                time.sleep(0.005)
        try:
            yield
        finally:
            with contextlib.suppress(OSError):
                os.unlink(lock)

    def compare_and_put(self, key: str, data: bytes, expected: bytes) -> bool:
        path = self._path(key)
        with self._locked(path):
            try:
                current = path.read_bytes()
            except FileNotFoundError:
                return False
            if current != expected:
                return False
            tmp_name = self._write_temp(path.parent, data)
            os.replace(tmp_name, path)
            return True

    def exists(self, key: str) -> bool:
        return self._path(key).is_file()

    def list_keys(self, prefix: str = "") -> list[str]:
        if not self.root.is_dir():
            return []
        keys = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(TRANSIENT_SUFFIXES):
                    continue
                rel = Path(dirpath, name).relative_to(self.root).as_posix()
                if rel.startswith(prefix):
                    keys.append(rel)
        return sorted(keys)

    def delete(self, key: str) -> bool:
        path = self._path(key)
        try:
            os.unlink(path)
        except FileNotFoundError:
            return False
        self._prune_empty_dirs(path.parent)
        return True

    def _prune_empty_dirs(self, directory: Path) -> None:
        root = self.root.resolve()
        current = directory.resolve()
        while current != root and root in current.parents:
            try:
                current.rmdir()
            except OSError:
                return  # non-empty (or gone): nothing further to prune
            current = current.parent

    def sweep_transients(self) -> int:
        if not self.root.is_dir():
            return 0
        removed = 0
        doomed: list[Path] = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(TRANSIENT_SUFFIXES):
                    doomed.append(Path(dirpath, name))
        for path in doomed:
            with contextlib.suppress(OSError):
                os.unlink(path)
                removed += 1
            self._prune_empty_dirs(path.parent)
        return removed

    def describe(self) -> str:
        return f"file:{self.root}"


class SQLiteBackend(StoreBackend):
    """Blobs in a single-file SQLite table: the local object-store stand-in.

    Every mutation is one transaction, so puts are inherently atomic and
    ``put_if_absent`` / ``compare_and_put`` map onto conflict-free ``INSERT
    OR IGNORE`` / guarded ``UPDATE`` statements — real cross-process CAS
    without lock files.  The backend object holds only the database path
    (picklable); each operation opens a short-lived connection, which keeps
    it safe under threads and process fleets alike.
    """

    def __init__(self, path: "str | Path"):
        if not str(path):
            raise InvalidParameterError("sqlite backend needs a database path")
        self.path = str(path)
        Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        with contextlib.closing(self._connect()) as conn:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS kv "
                "(key TEXT PRIMARY KEY, value BLOB NOT NULL)"
            )
            conn.commit()

    def _connect(self) -> sqlite3.Connection:
        return sqlite3.connect(self.path, timeout=30.0)

    def get(self, key: str) -> "bytes | None":
        validate_backend_key(key)
        with contextlib.closing(self._connect()) as conn:
            row = conn.execute(
                "SELECT value FROM kv WHERE key = ?", (key,)
            ).fetchone()
        return bytes(row[0]) if row is not None else None

    def put(self, key: str, data: bytes) -> None:
        validate_backend_key(key)
        with contextlib.closing(self._connect()) as conn:
            conn.execute(
                "INSERT INTO kv (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (key, sqlite3.Binary(data)),
            )
            conn.commit()

    def put_if_absent(self, key: str, data: bytes) -> bool:
        validate_backend_key(key)
        with contextlib.closing(self._connect()) as conn:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO kv (key, value) VALUES (?, ?)",
                (key, sqlite3.Binary(data)),
            )
            conn.commit()
        return cursor.rowcount == 1

    def compare_and_put(self, key: str, data: bytes, expected: bytes) -> bool:
        validate_backend_key(key)
        with contextlib.closing(self._connect()) as conn:
            conn.execute("BEGIN IMMEDIATE")
            cursor = conn.execute(
                "UPDATE kv SET value = ? WHERE key = ? AND value = ?",
                (sqlite3.Binary(data), key, sqlite3.Binary(expected)),
            )
            conn.commit()
        return cursor.rowcount == 1

    def exists(self, key: str) -> bool:
        validate_backend_key(key)
        with contextlib.closing(self._connect()) as conn:
            row = conn.execute(
                "SELECT 1 FROM kv WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def list_keys(self, prefix: str = "") -> list[str]:
        with contextlib.closing(self._connect()) as conn:
            rows = conn.execute("SELECT key FROM kv ORDER BY key").fetchall()
        return [row[0] for row in rows if row[0].startswith(prefix)]

    def delete(self, key: str) -> bool:
        validate_backend_key(key)
        with contextlib.closing(self._connect()) as conn:
            cursor = conn.execute("DELETE FROM kv WHERE key = ?", (key,))
            conn.commit()
        return cursor.rowcount == 1

    def describe(self) -> str:
        return f"sqlite:{self.path}"


class _MemorySpace:
    """A shared dict + lock pair backing one named memory namespace."""

    def __init__(self) -> None:
        self.blobs: dict[str, bytes] = {}
        self.lock = threading.RLock()


_MEMORY_SPACES: dict[str, _MemorySpace] = {}
_MEMORY_REGISTRY_LOCK = threading.Lock()


class MemoryBackend(StoreBackend):
    """An in-process blob store; named instances share one namespace.

    ``MemoryBackend()`` is private to the instance; ``MemoryBackend("x")``
    (or spec ``memory:x``) joins the process-wide namespace ``x``, so
    thread-based worker fleets in tests can share one store without any
    filesystem at all.  All primitives are atomic under one re-entrant lock.
    """

    def __init__(self, name: str = ""):
        self.name = name
        if name:
            with _MEMORY_REGISTRY_LOCK:
                self._space = _MEMORY_SPACES.setdefault(name, _MemorySpace())
        else:
            self._space = _MemorySpace()

    def get(self, key: str) -> "bytes | None":
        validate_backend_key(key)
        with self._space.lock:
            return self._space.blobs.get(key)

    def put(self, key: str, data: bytes) -> None:
        validate_backend_key(key)
        with self._space.lock:
            self._space.blobs[key] = bytes(data)

    def put_if_absent(self, key: str, data: bytes) -> bool:
        validate_backend_key(key)
        with self._space.lock:
            if key in self._space.blobs:
                return False
            self._space.blobs[key] = bytes(data)
            return True

    def compare_and_put(self, key: str, data: bytes, expected: bytes) -> bool:
        validate_backend_key(key)
        with self._space.lock:
            if self._space.blobs.get(key) != expected:
                return False
            self._space.blobs[key] = bytes(data)
            return True

    def exists(self, key: str) -> bool:
        validate_backend_key(key)
        with self._space.lock:
            return key in self._space.blobs

    def list_keys(self, prefix: str = "") -> list[str]:
        with self._space.lock:
            return sorted(k for k in self._space.blobs if k.startswith(prefix))

    def delete(self, key: str) -> bool:
        validate_backend_key(key)
        with self._space.lock:
            return self._space.blobs.pop(key, None) is not None

    def describe(self) -> str:
        return f"memory:{self.name}"


#: Spec schemes understood by :func:`open_backend`.
BACKEND_SCHEMES = ("file", "sqlite", "memory")


def split_store_spec(spec: "str | Path") -> tuple[str, str]:
    """``(scheme, location)`` of a store spec; a plain path is ``file``."""
    text = str(spec)
    scheme, sep, location = text.partition(":")
    if sep and scheme in BACKEND_SCHEMES:
        return scheme, location
    if not text:
        raise InvalidParameterError("empty store spec")
    return "file", text


def open_backend(spec: "str | Path | StoreBackend") -> StoreBackend:
    """Open the backend a store spec addresses.

    ``file:PATH`` and plain paths open a :class:`FilesystemBackend`,
    ``sqlite:PATH`` a :class:`SQLiteBackend`, ``memory:NAME`` a (shared)
    :class:`MemoryBackend`.  Backends pass through unchanged, so APIs can
    accept "spec or backend" uniformly.
    """
    if isinstance(spec, StoreBackend):
        return spec
    scheme, location = split_store_spec(spec)
    if scheme == "file":
        return FilesystemBackend(location)
    if scheme == "sqlite":
        return SQLiteBackend(location)
    return MemoryBackend(location)
