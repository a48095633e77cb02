"""Memoization of EPR query results, in memory and on disk.

The solver asks the process-global :class:`QueryCache` before it grounds
anything: :meth:`EprSolver.check`, dispatch's ``_run_query`` (BMC,
induction, Houdini and UPDR batches, in-process and in pool workers) and
:meth:`PreparedEpr.solve` all look the key up first.  The key is
``(digest, enabled)``: a sha256 over the solver's *input* -- a solver
version salt, the vocabulary in declaration order, the adopted symbols
with their sorts, each constraint's name, tracked flag and formula (an
injective structural encoding, blind to source spans) and the options
that change answers -- paired with the sorted names of the enabled
tracked constraints (None for all).  Solving is deterministic in that
input, so a hit returns what a re-solve would compute, minus the
grounding and the solving.

This is what lets Houdini re-checks and UPDR frame pushes that repeat an
earlier obligation be answered without re-solving.  The cache is enabled
by default and bounded with **LRU eviction** (a long UPDR run cycles
through thousands of one-off obligations; FIFO would evict the hot
recurring ones).  ``REPRO_CACHE_SIZE`` overrides the default capacity,
``REPRO_CACHE=0`` disables caching entirely, e.g. when benchmarking raw
solver performance; both are read at :func:`query_cache` call time, so an
environment change after import (or a test's ``monkeypatch.setenv``) takes
effect on the next query.  UNKNOWN results (budget exhaustion, worker
crashes) are never stored: they prove nothing, and a retry with a larger
budget must actually re-solve.

Two tiers, repository-style (index in front of a store):

* the in-memory :class:`QueryCache` is the index -- bounded, LRU,
  process-local;
* the optional :class:`DiskCache` underneath is a **content-addressed
  store** shared across processes and runs.  ``REPRO_CACHE_PERSIST=1``
  enables it; entries live under ``REPRO_CACHE_DIR`` (default
  ``.repro-cache/``) in shards keyed by the SHA-256 of the query key.
  Lookups fetch through: a memory miss consults the disk and promotes
  hits into memory.  The on-disk mechanics -- atomic
  writes, sha256 sharding, corrupt-entry healing under the store lock,
  retry with backoff on transient I/O errors -- live in the shared
  :class:`repro.store.ShardedStore`; a damaged store degrades to
  re-solving, never to a wrong answer or a crash.

Long-lived pool workers (:mod:`repro.solver.dispatch`) inherit the
parent's in-memory entries at fork time and share the disk store live.
The parent ships its :func:`cache_snapshot` with every task;
:func:`sync_worker_cache` lets a worker detect that the parent replaced
or disabled its cache (``install_cache`` bumps a generation counter) and
mirror that locally, so ``install_cache(None)`` in the parent really does
make every worker re-solve.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable

from .. import obs
from ..obs import profile
from ..store import ShardedStore
from .budget import _env_int, env_flag

if TYPE_CHECKING:  # pragma: no cover
    from .epr import EprResult

DEFAULT_CAPACITY = 4096

#: default on-disk store location, relative to the working directory
DEFAULT_CACHE_DIR = ".repro-cache"

#: serialization format version; bump to invalidate old on-disk entries
#: (2: keys are solver-input digests, no longer grounded-CNF digests)
DISK_FORMAT = 2


class DiskCache:
    """A content-addressed, crash- and corruption-tolerant result store.

    Entries are pickled ``(DISK_FORMAT, key, EprResult)`` triples named by
    the SHA-256 of the key's repr, held in a :class:`ShardedStore`.  The
    stored key is verified on load, so a (vanishingly unlikely) digest
    collision or a hand-edited file reads as a miss rather than a wrong
    answer.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self._store = ShardedStore(root, ".pkl")

    @property
    def hits(self) -> int:
        return self._store.hits

    @property
    def misses(self) -> int:
        return self._store.misses

    @property
    def write_errors(self) -> int:
        return self._store.write_errors

    @staticmethod
    def _digest(key: Hashable) -> str:
        return hashlib.sha256(repr(key).encode()).hexdigest()

    def _path(self, key: Hashable) -> str:
        return self._store.path_of(self._digest(key))

    def _decode(self, payload: bytes, key: Hashable) -> "EprResult | None":
        """The stored result, or None when the bytes fail validation."""
        try:
            fmt, stored_key, result = pickle.loads(payload)
            if fmt != DISK_FORMAT or stored_key != key:
                return None
        except Exception:
            return None
        return result

    def lookup(self, key: Hashable) -> "EprResult | None":
        return self._store.load(
            self._digest(key),
            lambda payload: self._decode(payload, key),
            "is corrupt, truncated, or stale-format; treated as a miss",
        )

    def store(self, key: Hashable, result: "EprResult") -> None:
        try:
            payload = pickle.dumps((DISK_FORMAT, key, result))
        except (pickle.PicklingError, TypeError):
            self._store.write_errors += 1
            return
        self._store.write(self._digest(key), payload)

    def __len__(self) -> int:
        return len(self._store)


class QueryCache:
    """A bounded LRU map from query keys to :class:`EprResult`.

    Every eviction is also published as ``cache_evictions_total`` in the
    metrics registry (what ``--stats`` prints).  With a
    ``disk`` store attached, memory misses fetch through it (disk hits
    count as hits and are promoted into memory) and stores write through.
    """

    def __init__(
        self, capacity: int = DEFAULT_CAPACITY, disk: DiskCache | None = None
    ) -> None:
        self.capacity = capacity
        self.disk = disk
        self._entries: "OrderedDict[Hashable, EprResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: Hashable) -> "EprResult | None":
        # The "cache" profiling phase lives here (not in the EPR layer)
        # so in-memory and disk fetch-through lookups are timed alike
        # without ever nesting two cache phases.
        with profile.phase("cache"):
            return self._lookup(key)

    def _lookup(self, key: Hashable) -> "EprResult | None":
        result = self._entries.get(key)
        if result is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return result
        if self.disk is not None:
            result = self.disk.lookup(key)
            if result is not None:
                self._insert(key, result)  # promote for cheap re-hits
                self.hits += 1
                return result
        self.misses += 1
        return None

    def store(self, key: Hashable, result: "EprResult") -> None:
        if getattr(result, "unknown", False):
            return  # UNKNOWN proves nothing; a retry must re-solve
        with profile.phase("cache"):
            self._insert(key, result)
            if self.disk is not None:
                self.disk.store(key, result)

    def _insert(self, key: Hashable, result: "EprResult") -> None:
        if key in self._entries:
            # Overwrite, don't keep the stale entry: a re-solve of the
            # same key carries fresher statistics/model data, and
            # recency is bumped either way.
            self._entries[key] = result
            self._entries.move_to_end(key)
            return
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            obs.inc("cache_evictions_total")
        self._entries[key] = result

    @property
    def disk_hits(self) -> int:
        return self.disk.hits if self.disk is not None else 0

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)


_cache: QueryCache | None = None
_installed = False
#: bumped whenever the process-global cache object is replaced; shipped to
#: pool workers so they can mirror parent-side install_cache calls.
_generation = 0


def _disabled_by_env() -> bool:
    """``REPRO_CACHE=0`` (read at call time, not import time)."""
    return not env_flag("REPRO_CACHE", True)


def _env_capacity() -> int:
    value = _env_int("REPRO_CACHE_SIZE")
    return value if value is not None else DEFAULT_CAPACITY


def persistence_enabled() -> bool:
    """``REPRO_CACHE_PERSIST`` truthy (read at call time)."""
    return env_flag("REPRO_CACHE_PERSIST", False)


def cache_dir() -> str:
    """The on-disk store location: ``REPRO_CACHE_DIR`` or ``.repro-cache``."""
    return os.environ.get("REPRO_CACHE_DIR", "").strip() or DEFAULT_CACHE_DIR


def _build_from_env() -> QueryCache:
    disk = DiskCache(cache_dir()) if persistence_enabled() else None
    return QueryCache(capacity=_env_capacity(), disk=disk)


def query_cache(refresh: bool = False) -> QueryCache | None:
    """The process-global cache, or None when caching is disabled.

    ``refresh=True`` discards the current cache and rebuilds it from the
    environment (used by tests exercising ``REPRO_CACHE_SIZE`` /
    ``REPRO_CACHE_DIR`` / ``REPRO_CACHE_PERSIST``).
    """
    global _cache, _installed, _generation
    if _disabled_by_env():
        return None
    if refresh or not _installed:
        _cache = _build_from_env()
        _installed = True
        _generation += 1
    return _cache


def install_cache(cache: QueryCache | None) -> QueryCache | None:
    """Replace the process-global cache (None disables); returns the old one.

    Tests use this to isolate cache state; ``REPRO_CACHE=0`` still wins.
    """
    global _cache, _installed, _generation
    old = _cache
    _cache = cache
    _installed = True
    _generation += 1
    return old


# ------------------------------------------------- pool-worker mirroring


def cache_snapshot() -> tuple[int, tuple[int, str | None] | None]:
    """``(generation, config)`` -- the parent's cache state, shipped with
    every dispatch task so long-lived workers can follow along.

    ``config`` is None when caching is disabled, else ``(capacity,
    disk_root)`` describing the parent's cache.  The *configuration*
    travels explicitly (rather than "rebuild from the environment")
    because a pool worker's environment is frozen at fork time -- a
    ``REPRO_CACHE_DIR`` set in the parent afterwards would never reach it.
    """
    cache = query_cache()
    if cache is None:
        return _generation, None
    disk_root = cache.disk.root if cache.disk is not None else None
    return _generation, (cache.capacity, disk_root)


def sync_worker_cache(
    snapshot: tuple[int, tuple[int, str | None] | None],
) -> None:
    """Mirror the parent's cache state inside a long-lived pool worker.

    Workers fork with the parent's entries; as long as the parent keeps
    the same cache object (generation unchanged) the worker keeps its
    inherited/accumulated entries.  When the parent swapped or disabled
    its cache (``install_cache``), the worker rebuilds to the shipped
    configuration (or disables) so e.g. ``install_cache(None)`` really
    forces re-solves everywhere.  In-memory entry *contents* are not
    synchronized -- keys are content hashes, so any entry anywhere is
    valid; the disk tier is what shares results across processes.
    """
    global _cache, _installed, _generation
    generation, config = snapshot
    if generation == _generation:
        return
    _generation = generation
    _installed = True
    if config is None:
        _cache = None
    else:
        capacity, disk_root = config
        disk = DiskCache(disk_root) if disk_root is not None else None
        _cache = QueryCache(capacity=capacity, disk=disk)
