"""The result cache: content-addressed job records behind one protocol.

Every cache stores finished job records keyed by their SHA-256 content
fingerprint and honors the same contract (executable as
``tests/engine/test_backends.py``):

* ``get`` returns the stored record or ``None`` on *any* miss — absent,
  torn, corrupt, or written under another ``RECORD_SCHEMA``;
* ``put`` is atomic (a concurrent reader sees the old record, the new
  record, or a clean miss — never a partial document) and best-effort
  (storage failures never fail the run that produced the result; the
  first one per cache directory prints a warning on stderr);
* ``stats`` and ``prune`` make a stale multi-gigabyte store inspectable
  and reclaimable without deleting it by hand.

Two implementations:

``DirCache``
    The on-disk layout, ``<root>/<aa>/<fingerprint>.json`` (first two
    hex digits shard the directory), under ``.repro-cache/`` or
    ``REPRO_CACHE_DIR``.  Atomicity is tmp-file + ``os.replace``.
``NullCache``
    The ``--no-cache`` cache: everything misses, nothing is stored.

Caches count their traffic into the metrics registry under
``cache.backend.*`` (hits / misses / stores / store_errors / invalid);
the engine-level ``engine.result_cache.hit|miss`` counters stay where
they always were, in the dispatch partition.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Protocol, Tuple, Union, runtime_checkable

from repro.obs import core as obs

#: Schema version of the stored record; bump together with record shape.
#: The telemetry *envelope* (``StudyResult.write_telemetry`` /
#: ``load_telemetry``) is versioned by this same constant, so a record
#: shape change can never silently outrun the document that carries it.
#: 2: records carry the optimizer's per-pass ``pipeline`` report.
#: 3: TIMING times shift by ulps (epoch-rebased clocks) and results
#: carry the ``fastpath`` counter block.
RECORD_SCHEMA = 3

DEFAULT_CACHE_DIR = ".repro-cache"

def default_cache_root() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


@dataclass
class CacheStats:
    """What a backend holds: entry/byte totals and a per-schema census."""

    backend: str
    location: Optional[str]
    entries: int = 0
    bytes: int = 0
    schemas: Dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "location": self.location,
            "entries": self.entries,
            "bytes": self.bytes,
            "schemas": {str(k): v for k, v in sorted(self.schemas.items())},
        }

    def describe(self) -> str:
        schemas = ", ".join(
            f"schema {k}: {v}" for k, v in sorted(self.schemas.items())
        ) or "empty"
        where = f" at {self.location}" if self.location else ""
        return (
            f"{self.backend} backend{where}: {self.entries} entries, "
            f"{self.bytes} bytes ({schemas})"
        )


@runtime_checkable
class CacheBackend(Protocol):
    """The storage contract :class:`DirCache` and :class:`NullCache`
    satisfy."""

    kind: str

    def get(self, fingerprint: str) -> Optional[dict]:
        """The stored record, or ``None`` on any miss."""
        ...

    def put(self, fingerprint: str, record: dict) -> None:
        """Store a record atomically, best-effort."""
        ...

    def stats(self) -> CacheStats:
        """Entry/byte totals and the per-schema census."""
        ...

    def prune(
        self,
        *,
        older_than: Optional[float] = None,
        schema: Optional[int] = None,
    ) -> int:
        """Remove entries matching every given filter (age in seconds,
        stored schema version); no filters removes everything.  Returns
        the number of entries removed."""
        ...

    def describe(self) -> dict:
        """``{"backend": kind, "location": root}`` — the
        telemetry-envelope attribution of where records went."""
        ...


def validate_record(record: object, fingerprint: str) -> Optional[dict]:
    """The schema-miss gate: a stored document counts only when it
    is a dict carrying the current ``RECORD_SCHEMA`` *and* filed under
    its own fingerprint; anything else is an invalid entry (counted) and
    reads as a miss."""
    if (
        isinstance(record, dict)
        and record.get("schema") == RECORD_SCHEMA
        and record.get("fingerprint") == fingerprint
    ):
        return record
    obs.add("engine.result_cache.invalid")
    obs.add("cache.backend.invalid")
    return None


class NullCache:
    """The ``--no-cache`` cache: everything misses, nothing is stored."""

    kind = "null"
    root: Optional[Path] = None

    def get(self, fingerprint: str) -> Optional[dict]:
        return None

    def put(self, fingerprint: str, record: dict) -> None:
        pass

    def stats(self) -> CacheStats:
        return CacheStats(backend=self.kind, location=None)

    def prune(
        self,
        *,
        older_than: Optional[float] = None,
        schema: Optional[int] = None,
    ) -> int:
        return 0

    def describe(self) -> dict:
        return {"backend": self.kind, "location": None}


#: Cache roots whose store failure has already been reported.  Kept per
#: process, not per DirCache: a refined sweep builds one engine (and so
#: one DirCache) per round, and the warning must appear once per run.
_UNWRITABLE: set = set()


def _warn_unwritable(root: Path, exc: OSError) -> None:
    """Report the first failed store under ``root``: on stderr (a run
    whose every write is lost must not look cached) and as a
    once-per-process ``warning`` event."""
    if str(root) in _UNWRITABLE:
        return
    _UNWRITABLE.add(str(root))
    message = f"result cache {root} is not writable ({exc}); results are not cached"
    print(f"warning: {message}", file=sys.stderr)
    obs.warn_once(message, cache_dir=str(root))


class DirCache:
    """A directory of fingerprint-addressed job records (the historical
    ``.repro-cache/`` layout, byte-for-byte)."""

    kind = "dir"

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()

    def _path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[dict]:
        """The stored record for a fingerprint, or None on any miss
        (absent, unreadable, corrupt, or written by another schema)."""
        path = self._path(fingerprint)
        try:
            record = json.loads(path.read_text())
        except OSError:
            obs.add("cache.backend.misses")
            return None
        except ValueError:
            obs.add("engine.result_cache.invalid")
            obs.add("cache.backend.invalid")
            obs.add("cache.backend.misses")
            return None
        record = validate_record(record, fingerprint)
        obs.add("cache.backend.hits" if record is not None else "cache.backend.misses")
        return record

    def put(self, fingerprint: str, record: dict) -> None:
        """Store a record atomically (best-effort: cache write failures
        never fail the run that produced the result)."""
        path = self._path(fingerprint)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(record, sort_keys=True, indent=1))
            os.replace(tmp, path)
            obs.add("engine.result_cache.store")
            obs.add("cache.backend.stores")
        except OSError as exc:
            obs.add("engine.result_cache.store_error")
            obs.add("cache.backend.store_errors")
            _warn_unwritable(self.root, exc)

    def _entries(self) -> Iterator[Tuple[Path, os.stat_result]]:
        if not self.root.is_dir():
            return
        for path in self.root.rglob("*.json"):
            try:
                yield path, path.stat()
            except OSError:
                continue

    def stats(self) -> CacheStats:
        stats = CacheStats(backend=self.kind, location=str(self.root))
        for path, st in self._entries():
            stats.entries += 1
            stats.bytes += st.st_size
            try:
                schema = json.loads(path.read_text()).get("schema")
            except (OSError, ValueError, AttributeError):
                schema = None
            key = schema if isinstance(schema, int) else -1
            stats.schemas[key] = stats.schemas.get(key, 0) + 1
        return stats

    def prune(
        self,
        *,
        older_than: Optional[float] = None,
        schema: Optional[int] = None,
    ) -> int:
        import time

        cutoff = time.time() - older_than if older_than is not None else None
        removed = 0
        for path, st in list(self._entries()):
            if cutoff is not None and st.st_mtime > cutoff:
                continue
            if schema is not None:
                try:
                    stored = json.loads(path.read_text()).get("schema")
                except (OSError, ValueError, AttributeError):
                    stored = None
                if stored != schema:
                    continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        obs.add("cache.backend.pruned", removed)
        return removed

    def describe(self) -> dict:
        return {"backend": self.kind, "location": str(self.root)}


def make_cache(
    enabled: bool = True, root: Union[str, Path, None] = None
) -> CacheBackend:
    """The engine's cache: a :class:`DirCache` under ``root`` (default
    ``.repro-cache/`` or ``REPRO_CACHE_DIR``), or a :class:`NullCache`
    when ``enabled`` is false."""
    return DirCache(root) if enabled else NullCache()
