"""Shared machinery for on-disk content-addressed stores.

Both persistent stores -- the solver's :class:`~repro.solver.cache.DiskCache`
and the proof ledger (:mod:`repro.proof.ledger`) -- keep one small file per
entry, named by a SHA-256 digest and sharded into 256 two-hex-digit
subdirectories.  They share the same durability obligations:

* **atomic writes** (temp file + ``os.replace``) so a reader never sees a
  partial entry, even when the writer is SIGKILLed mid-write;
* **corruption tolerance**: an unreadable entry is a miss, deleted so the
  next write can heal it, with a warn-once message through the
  ``repro.store`` logger -- a damaged store degrades to recomputing,
  never to a wrong answer or a crash;
* **multi-process safety**: concurrent runs sharing one store directory
  (parallel CI jobs, pool workers) must never corrupt it or lose each
  other's entries.

Reads are **lock-free**: ``os.replace`` guarantees a complete file, and
keys are content addresses, so any complete entry anywhere is valid.  The
one operation that needs coordination is *deleting* a corrupt entry --
without a lock, process A can read a truncated entry, decide to heal it,
and unlink the *fresh* entry process B just renamed into place.
:meth:`ShardedStore.heal` therefore takes an ``fcntl`` advisory lock on a
per-store lockfile and re-validates the entry under the lock before
unlinking: if the bytes now parse, the entry was concurrently repaired
and is returned instead of deleted.

Transient I/O errors during writes (``EAGAIN``/``EINTR``/``ENOSPC``-
adjacent hiccups on network or pressured filesystems) are retried with
bounded jittered backoff (:func:`with_retry`); each retry increments the
``store_retries_total`` counter and emits a ``store.retry`` trace point so
``repro report`` surfaces them.  A write that still fails after the
retries is counted in ``write_errors`` and swallowed -- a read-only or
full disk must never fail a verification run.
"""

from __future__ import annotations

import contextlib
import errno
import logging
import os
import random
import tempfile
import time
from typing import Callable, Iterator, TypeVar

from . import obs

T = TypeVar("T")

try:  # pragma: no cover - POSIX only; gated at use sites
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

logger = logging.getLogger("repro.store")

#: errno values worth retrying: the operation may succeed a moment later.
TRANSIENT_ERRNOS = frozenset(
    {
        errno.EAGAIN,
        errno.EINTR,
        errno.EBUSY,
        errno.ENOSPC,  # space is routinely freed under log rotation / GC
        errno.EDQUOT,
        getattr(errno, "EWOULDBLOCK", errno.EAGAIN),
    }
)

#: write attempts per entry (1 initial + 2 retries)
RETRY_ATTEMPTS = 3

#: base backoff in seconds; attempt ``i`` sleeps ``base * 2**i`` plus jitter
RETRY_BASE_SECONDS = 0.01


def is_transient(error: OSError) -> bool:
    """Is this the kind of I/O error a short backoff can outwait?"""
    return getattr(error, "errno", None) in TRANSIENT_ERRNOS


def with_retry(
    operation: Callable[[], None],
    describe: str,
    attempts: int = RETRY_ATTEMPTS,
    base: float = RETRY_BASE_SECONDS,
) -> None:
    """Run ``operation``, retrying transient ``OSError`` with backoff.

    Non-transient errors (and the final transient failure) propagate to
    the caller, which decides whether they are fatal.  Each retry sleeps
    ``base * 2**attempt`` seconds plus up to 50% uniform jitter -- two
    processes hitting the same hiccup must not re-collide in lockstep.
    """
    for attempt in range(attempts):
        try:
            operation()
            return
        except OSError as error:
            if attempt == attempts - 1 or not is_transient(error):
                raise
            obs.inc("store_retries_total")
            obs.point(
                "store.retry",
                op=describe,
                errno=error.errno,
                attempt=attempt + 1,
            )
            delay = base * (2**attempt)
            time.sleep(delay * (1.0 + random.random() * 0.5))


class ShardedStore:
    """One-file-per-entry store, sharded by digest prefix.

    ``suffix`` distinguishes the entry format (``.pkl``, ``.json``); the
    bytes themselves are opaque here -- owners serialize/validate.
    ``hits``/``misses`` count :meth:`load` results; ``write_errors``
    counts entries that could not be persisted even after retries.
    """

    def __init__(self, root: str, suffix: str) -> None:
        self.root = root
        self.suffix = suffix
        self.hits = 0
        self.misses = 0
        self.write_errors = 0
        self._warned: set[str] = set()

    # ------------------------------------------------------------ layout

    def path_of(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], digest + self.suffix)

    def _lock_path(self) -> str:
        return os.path.join(self.root, ".lock")

    @contextlib.contextmanager
    def lock(self) -> Iterator[None]:
        """Advisory exclusive lock over the store's mutation-sensitive ops.

        Reads never take it (atomic renames keep them safe); only
        corrupt-entry deletion does, to close the heal-vs-rewrite race.
        Degrades to lockless on platforms without ``fcntl`` or when the
        lockfile cannot be created (read-only store).
        """
        if fcntl is None:
            yield
            return
        handle = None
        try:
            os.makedirs(self.root, exist_ok=True)
            handle = open(self._lock_path(), "a+")
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        except OSError:
            if handle is not None:
                handle.close()
                handle = None
        try:
            yield
        finally:
            if handle is not None:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                except OSError:  # pragma: no cover - unlock is best effort
                    pass
                handle.close()

    # ------------------------------------------------------------- reads

    def read(self, digest: str) -> bytes | None:
        """The entry's bytes, or None when absent.  Lock-free.

        May return bytes that fail the owner's validation (truncated by a
        crashed writer on a non-atomic filesystem, hand-edited, stale
        format) -- the owner then calls :meth:`heal`.
        """
        try:
            with open(self.path_of(digest), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None
        except OSError:
            return None

    def load(
        self, digest: str, decode: Callable[[bytes], T | None], reason: str
    ) -> T | None:
        """The entry ``decode`` makes of the stored bytes, or None (miss).

        ``decode`` returns None for bytes that fail the owner's
        validation.  Such bytes on the lock-free :meth:`read` are
        re-validated under the store lock before being deleted
        (:meth:`heal`, warning once with ``reason``): a concurrent writer
        may have just replaced them with a good entry.
        """
        payload = self.read(digest)
        value = None if payload is None else decode(payload)
        if payload is not None and value is None:
            healed = self.heal(
                digest, lambda raw: decode(raw) is not None, reason
            )
            if healed is not None:
                value = decode(healed)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    # ------------------------------------------------------------ writes

    def write(self, digest: str, payload: bytes) -> bool:
        """Atomically persist one entry; True on success.

        Failures after retries are absorbed into ``write_errors``: losing
        a cache/ledger entry costs a future re-solve, never correctness.
        """
        path = self.path_of(digest)
        directory = os.path.dirname(path)

        def attempt() -> None:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp, path)  # atomic: readers never see partials
            except BaseException:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                raise

        try:
            with_retry(attempt, f"write {digest[:8]}")
        except OSError:
            self.write_errors += 1
            return False
        return True

    # ----------------------------------------------------------- healing

    def heal(
        self,
        digest: str,
        validate: Callable[[bytes], bool],
        reason: str,
    ) -> bytes | None:
        """Resolve an entry that failed validation on a lock-free read.

        Under the store lock, the entry is re-read and re-validated: a
        concurrent writer may have replaced the bad bytes with a good
        entry between our read and now, and unlinking blindly would lose
        it.  Returns the repaired bytes when that happened; otherwise
        deletes the entry (so the next write heals it), warns once per
        ``(store, reason)`` through the ``repro.store`` logger, and
        returns None.
        """
        path = self.path_of(digest)
        with self.lock():
            current: bytes | None
            try:
                with open(path, "rb") as handle:
                    current = handle.read()
            except OSError:
                return None  # already gone: someone else healed it
            try:
                if validate(current):
                    return current  # concurrently repaired; keep it
            except Exception:
                pass
            try:
                os.remove(path)
            except OSError:
                pass
        self.warn_once(
            reason,
            f"{self.root}: entry {digest[:12]}... {reason}; "
            "removed and will be recomputed",
        )
        return None

    def warn_once(self, key: str, message: str) -> None:
        """Log ``message`` once per (store instance, key)."""
        if key in self._warned:
            return
        self._warned.add(key)
        logger.warning(message)

    # --------------------------------------------------------- inventory

    def digests(self) -> Iterator[str]:
        """Every entry digest currently in the store, sorted."""
        try:
            shards = sorted(os.listdir(self.root))
        except OSError:
            return
        for shard in shards:
            if len(shard) != 2:
                continue
            try:
                names = sorted(os.listdir(os.path.join(self.root, shard)))
            except OSError:
                continue
            for name in names:
                if name.endswith(self.suffix):
                    yield name[: -len(self.suffix)]

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())
