"""Worker liveness heartbeats.

The dispatch parent's only liveness signals used to be the result pipe
(EOF = crash) and the 2x-wall external deadline (silence = hang).  A
worker wedged in a pathological grounding loop is indistinguishable from
one legitimately solving a hard query until that deadline -- which for a
large wall budget means minutes of a pool slot burning CPU for nothing.

Each pool worker gets a third, dedicated **heartbeat pipe**.  The worker
arms it after fork (:func:`arm`); the solver's long-running loops (CDCL
decisions, CEGAR refinement, grounding) call :func:`beat` as they spin.
``beat`` is engineered to sit inside hot loops:

* disarmed (the parent process, the serial fallback, tests) it is one
  global ``is None`` check;
* armed, it rate-limits itself to one byte per :data:`BEAT_INTERVAL`
  seconds, so the pipe never fills and the cost never shows in profiles;
* a broken pipe (parent died) disarms quietly -- the worker is about to
  be reaped anyway and must not crash mid-solve with a stack trace.

The parent side (:mod:`repro.solver.dispatch`) drains the pipe inside its
``connection.wait`` loop and timestamps each drain; a busy worker whose
last beat is older than the run config's ``heartbeat_timeout`` seconds
(``REPRO_HEARTBEAT_TIMEOUT``, default 300; <= 0 disables) is declared
wedged and killed *before* the external deadline, and its query is
retried like any other worker loss.
"""

from __future__ import annotations

import time
from multiprocessing.connection import Connection

#: minimum seconds between bytes actually written by :func:`beat`
BEAT_INTERVAL = 0.25

_conn: Connection | None = None
_last_sent = 0.0


def arm(conn: Connection) -> None:
    """Called in a freshly forked worker: subsequent beats go to ``conn``."""
    global _conn, _last_sent
    _conn = conn
    _last_sent = 0.0


def disarm() -> None:
    global _conn
    _conn = None


def armed() -> bool:
    return _conn is not None


def beat(force: bool = False) -> None:
    """Tell the dispatch parent this worker is alive (rate-limited).

    Safe to call from any solver loop at any frequency; a no-op unless
    :func:`arm` ran in this process.  ``force=True`` bypasses the rate
    limit -- used once at task start so the parent's staleness clock
    starts from the task, not from the previous task's last beat.
    """
    global _last_sent
    conn = _conn
    if conn is None:
        return
    now = time.monotonic()
    if not force and now - _last_sent < BEAT_INTERVAL:
        return
    _last_sent = now
    try:
        conn.send_bytes(b".")
    except (OSError, ValueError):
        disarm()  # parent gone; die quietly when it reaps us
