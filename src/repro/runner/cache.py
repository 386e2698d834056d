"""Content-addressed result caches for the simulation runner.

Cache keys are the :attr:`~repro.runner.job.SimulationJob.cache_key`
fingerprints — SHA-256 hashes over the canonical serialization of every
simulation input — so a cache entry is valid for *any* job with the same
content, regardless of which sweep, experiment or process produced it.

Two implementations are provided:

* :class:`InMemoryResultCache` — a plain dict, the default for a runner.
* :class:`DiskResultCache` — pickled results in a content-addressed directory
  layout (``<root>/<key[:2]>/<key>.pkl``), which lets warm results survive
  process restarts and be shared between concurrent runs.

Hit/miss/store accounting lives in :class:`CacheStats`; the
:class:`~repro.runner.runner.SimulationRunner` owns one stats object and
updates it on every lookup so tests and the CLI can audit cache behaviour.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from ..analysis.results import GanResult, LayerResult
from ..errors import AnalysisError
from ..telemetry import get_metrics

PathLike = Union[str, Path]

#: Environment switch for the process-global layer memo: ``"0"`` disables it.
#: Propagated through the environment so process-pool workers (fork *and*
#: spawn start methods inherit the environment) build an equivalent store.
LAYER_MEMO_ENV = "REPRO_LAYER_MEMO"
#: Optional directory for the layer memo's sharded on-disk tier.
LAYER_MEMO_DIR_ENV = "REPRO_LAYER_MEMO_DIR"


@dataclass(frozen=True)
class CachePruneStats:
    """Outcome of one :meth:`DiskResultCache.prune` pass."""

    removed_entries: int
    removed_bytes: int
    remaining_entries: int
    remaining_bytes: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "removed_entries": self.removed_entries,
            "removed_bytes": self.removed_bytes,
            "remaining_entries": self.remaining_entries,
            "remaining_bytes": self.remaining_bytes,
        }


@dataclass
class CacheStats:
    """Counters describing how a runner used its cache.

    Attributes
    ----------
    hits:
        Jobs answered directly from the cache.
    misses:
        Jobs that had to be executed by a backend.
    stores:
        Results written into the cache (== misses unless storing failed).
    deduplicated:
        Jobs that were dropped before dispatch because an identical job
        (same cache key) was already in the same batch.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    deduplicated: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "deduplicated": self.deduplicated,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        self.hits = self.misses = self.stores = self.deduplicated = 0


class ResultCache:
    """Interface of a content-addressed result cache."""

    def get(self, key: str) -> Optional[GanResult]:
        """The cached result for ``key``, or None on a miss."""
        raise NotImplementedError

    def put(self, key: str, result: GanResult) -> None:
        """Store ``result`` under ``key`` (overwrites silently)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


class InMemoryResultCache(ResultCache):
    """Dict-backed cache; the default for a :class:`SimulationRunner`."""

    def __init__(self) -> None:
        self._entries: Dict[str, GanResult] = {}

    def get(self, key: str) -> Optional[GanResult]:
        return self._entries.get(key)

    def put(self, key: str, result: GanResult) -> None:
        self._entries[key] = result

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


class DiskResultCache(ResultCache):
    """Pickle-on-disk cache with a content-addressed directory layout.

    Entries live at ``<root>/<key[:2]>/<key>.pkl`` — the two-character
    fingerprint-prefix shard (the same layout as the
    :class:`LayerMemoStore` disk tier) keeps any one directory to at most
    1/256th of the entries, so millions of cached results never sit in a
    single directory.  A small in-memory overlay avoids re-reading entries
    that were already fetched or stored in this process.
    """

    def __init__(self, root: PathLike) -> None:
        self._root = Path(root)
        if self._root.exists() and not self._root.is_dir():
            raise AnalysisError(
                f"cache root '{self._root}' exists and is not a directory"
            )
        self._root.mkdir(parents=True, exist_ok=True)
        self._overlay: Dict[str, GanResult] = {}

    @property
    def root(self) -> Path:
        return self._root

    def _path_for(self, key: str) -> Path:
        return self._root / key[:2] / f"{key}.pkl"

    def _entry_paths(self):
        """Every stored entry (in-flight writers' ``.tmp`` files never match)."""
        return self._root.glob("*/*.pkl")

    def get(self, key: str) -> Optional[GanResult]:
        if key in self._overlay:
            return self._overlay[key]
        path = self._path_for(key)
        try:
            with path.open("rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            # Absent — or deleted by a concurrent prune()/clear() between
            # any earlier existence check and the open; nothing to unlink.
            return None
        except Exception:
            # A truncated/corrupt entry (e.g. torn write from a crashed run)
            # is a miss, not a fatal error; drop it so it gets rewritten.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            # Refresh recency so prune() evicts cold entries first.  The entry
            # may vanish between the read and the touch (concurrent prune);
            # the pickled bytes are already in hand, so serve them regardless.
            os.utime(path)
        except OSError:
            pass
        self._overlay[key] = result
        return result

    def put(self, key: str, result: GanResult) -> None:
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # unique temp file per writer: concurrent runs storing the same key
        # never interleave bytes, and the rename publishes atomically
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:16]}.", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._overlay[key] = result

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def clear(self) -> None:
        self._overlay.clear()
        for path in self._entry_paths():
            path.unlink()

    def size_bytes(self) -> int:
        """Total size of every stored entry."""
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue  # pruned concurrently: no longer occupies space
        return total

    def prune(self, max_bytes: int) -> CachePruneStats:
        """Evict oldest entries (by mtime) until the cache fits ``max_bytes``.

        Content-addressed entries are all equally re-creatable, so the only
        signal worth keeping is recency: a warm entry that was just read or
        written has a fresh mtime (``get`` touches entries it serves) and
        survives longest.  ``prune(0)`` empties the cache.  Entries that
        vanish concurrently (another run pruning the same directory) are
        counted as already removed, not errors; entries that cannot be
        deleted (permissions) stay accounted as remaining.
        """
        if max_bytes < 0:
            raise AnalysisError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = []
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path.name, stat.st_size, path))
        entries.sort()  # oldest first; name tie-break keeps order deterministic
        total = sum(size for _mtime, _name, size, _path in entries)
        removed_entries = removed_bytes = 0
        for _mtime, _name, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                pass  # another run pruned it concurrently: already gone
            except OSError:
                continue  # undeletable (permissions?): still occupies space
            self._overlay.pop(path.stem, None)
            total -= size
            removed_entries += 1
            removed_bytes += size
        return CachePruneStats(
            removed_entries=removed_entries,
            removed_bytes=removed_bytes,
            remaining_entries=len(entries) - removed_entries,
            remaining_bytes=total,
        )


# ----------------------------------------------------------------------
# Layer-grain memoization (below the job-level result cache)
# ----------------------------------------------------------------------
@dataclass
class LayerMemoStats:
    """Counters for the layer-grain memo (one tier below :class:`CacheStats`)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        self.hits = self.misses = self.stores = 0


class LayerMemoStore:
    """Thread-safe LRU memo of per-layer simulation results.

    Keys are :func:`~repro.analysis.serialization.layer_fingerprint` digests —
    content hashes over (layer structure × input shape × accelerator identity
    × configuration × canonical options) — so any two jobs whose networks
    share a layer shape under the same simulation context share one entry,
    across workloads and across sweeps.

    The memo is two-tier: an in-memory ``OrderedDict`` LRU (bounded by
    ``max_entries``) plus an optional sharded pickle directory
    (``<root>/<key[:2]>/<key>.pkl``, same layout and torn-write discipline as
    :class:`DiskResultCache`) so warm layers survive process restarts and are
    shared between pool workers.  All operations tolerate entries vanishing
    concurrently (another process pruning the shard directory): a vanished
    file is a miss, never an error.
    """

    def __init__(
        self, max_entries: int = 65536, root: Optional[PathLike] = None
    ) -> None:
        if max_entries <= 0:
            raise AnalysisError(f"max_entries must be > 0, got {max_entries}")
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, LayerResult]" = OrderedDict()
        self._stats = LayerMemoStats()
        # Cached registry instruments for the hot per-layer path: resolved
        # once per installed registry instead of per lookup (the registry can
        # be swapped by configure_metrics, hence the identity check).
        self._metrics_for: Optional[object] = None
        self._m_hits = self._m_misses = self._m_stores = self._m_resident = None
        self._root: Optional[Path] = None
        if root is not None:
            self._root = Path(root)
            if self._root.exists() and not self._root.is_dir():
                raise AnalysisError(
                    f"layer memo root '{self._root}' exists and is not a directory"
                )
            self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Optional[Path]:
        return self._root

    @property
    def stats(self) -> LayerMemoStats:
        return self._stats

    def _path_for(self, key: str) -> Path:
        assert self._root is not None
        return self._root / key[:2] / f"{key}.pkl"

    def _refresh_instruments(self) -> bool:
        """Bind registry instruments for the current registry (if enabled)."""
        registry = get_metrics()
        if registry is None:
            return False
        if self._metrics_for is not registry:
            self._metrics_for = registry
            self._m_hits = registry.counter("runner.layer_memo.hits")
            self._m_misses = registry.counter("runner.layer_memo.misses")
            self._m_stores = registry.counter("runner.layer_memo.stores")
            self._m_resident = registry.gauge("runner.layer_memo.resident")
        return True

    def get(self, key: str) -> Optional[LayerResult]:
        """The memoized layer result for ``key``, or None on a miss."""
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
                self._stats.hits += 1
        if result is not None:
            if self._refresh_instruments():
                self._m_hits.inc()
            return result
        if self._root is not None:
            result = self._disk_get(key)
            if result is not None:
                with self._lock:
                    self._insert_locked(key, result)
                    self._stats.hits += 1
                if self._refresh_instruments():
                    self._m_hits.inc()
                    self._m_resident.set(len(self._entries))
                return result
        with self._lock:
            self._stats.misses += 1
        if self._refresh_instruments():
            self._m_misses.inc()
        return None

    def put(self, key: str, result: LayerResult) -> None:
        """Memoize ``result`` under ``key`` (overwrites silently)."""
        with self._lock:
            self._insert_locked(key, result)
            self._stats.stores += 1
            resident = len(self._entries)
        if self._refresh_instruments():
            self._m_stores.inc()
            self._m_resident.set(resident)
        if self._root is not None:
            self._disk_put(key, result)

    def _insert_locked(self, key: str, result: LayerResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    def _disk_get(self, key: str) -> Optional[LayerResult]:
        path = self._path_for(key)
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _disk_put(self, key: str, result: LayerResult) -> None:
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:16]}.", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
        if self._root is not None:
            for path in self._root.glob("*/*.pkl"):
                try:
                    path.unlink()
                except OSError:
                    pass


_layer_memo_lock = threading.Lock()
_layer_memo: Optional[LayerMemoStore] = None
_layer_memo_configured = False


def configure_layer_memo(
    enabled: bool = True,
    root: Optional[PathLike] = None,
    max_entries: int = 65536,
) -> Optional[LayerMemoStore]:
    """(Re)configure the process-global layer memo; returns the new store.

    Also records the configuration in the process environment
    (:data:`LAYER_MEMO_ENV` / :data:`LAYER_MEMO_DIR_ENV`) so process-pool
    workers spawned afterwards — under either the ``fork`` or ``spawn`` start
    method, both of which inherit the environment — lazily build an
    equivalent store via :func:`get_layer_memo`.  Pass ``enabled=False`` to
    disable layer memoization entirely (returns None).
    """
    global _layer_memo, _layer_memo_configured
    with _layer_memo_lock:
        if enabled:
            store: Optional[LayerMemoStore] = LayerMemoStore(
                max_entries=max_entries, root=root
            )
            os.environ[LAYER_MEMO_ENV] = "1"
            if root is not None:
                os.environ[LAYER_MEMO_DIR_ENV] = str(Path(root))
            else:
                os.environ.pop(LAYER_MEMO_DIR_ENV, None)
        else:
            store = None
            os.environ[LAYER_MEMO_ENV] = "0"
            os.environ.pop(LAYER_MEMO_DIR_ENV, None)
        _layer_memo = store
        _layer_memo_configured = True
        return store


def get_layer_memo() -> Optional[LayerMemoStore]:
    """The process-global layer memo, or None when disabled.

    On first use in a process that never called :func:`configure_layer_memo`
    (notably pool workers), the store is built from the environment:
    in-memory-only by default, disabled when ``REPRO_LAYER_MEMO=0``, with an
    on-disk tier rooted at ``REPRO_LAYER_MEMO_DIR`` when set.
    """
    global _layer_memo, _layer_memo_configured
    with _layer_memo_lock:
        if not _layer_memo_configured:
            if os.environ.get(LAYER_MEMO_ENV, "1") == "0":
                _layer_memo = None
            else:
                memo_dir = os.environ.get(LAYER_MEMO_DIR_ENV) or None
                _layer_memo = LayerMemoStore(root=memo_dir)
            _layer_memo_configured = True
        return _layer_memo
