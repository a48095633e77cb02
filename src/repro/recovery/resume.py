"""Run directories, ``meta.json``, and the resumable exit code.

A *run directory* holds everything one verification run needs to be
resumed after a crash: the write-ahead journal (:mod:`.journal`) and a
``meta.json`` recording the original command line.  Run directories live
under the run config's ``runs_dir`` (``REPRO_RUNS_DIR``, default
``.repro-runs/``) and are named deterministically from the command and
target, so

    repro verify examples/lock_server.rml --resume

finds the same directory the killed run wrote to -- no bookkeeping
required.  ``repro resume RUN_DIR`` goes the other way: it reads
``meta.json`` and re-invokes the recorded argv with ``--resume`` added.

A run interrupted by SIGINT/SIGTERM exits with :data:`EXIT_RESUMABLE`
(75, BSD ``EX_TEMPFAIL``), distinct from the verdict codes (0 verified,
1 violation, 2 unknown) -- wrappers can distinguish "try again" from
"the protocol is broken".
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Sequence

from .. import config

#: exit code of a run interrupted resumably (BSD sysexits EX_TEMPFAIL)
EXIT_RESUMABLE = 75

#: meta.json schema version
META_FORMAT = 1

#: the metadata file's name inside a run directory
META_NAME = "meta.json"


@dataclass(frozen=True)
class RunMeta:
    """What ``repro resume`` needs to re-invoke a killed run."""

    command: str  # the subcommand ("verify", "check", ...)
    argv: tuple[str, ...]  # the full original argv (without the program name)
    target: str  # the protocol file or name being verified
    created_unix: float = 0.0


def default_run_dir(command: str, target: str) -> str:
    """The deterministic run directory for ``(command, target)``.

    Deterministic on purpose: a ``--resume`` without ``--run-dir`` must
    land on the directory the killed run used.  The readable slug keeps
    ``ls .repro-runs`` meaningful; the digest disambiguates targets that
    share a basename.
    """
    base = os.path.splitext(os.path.basename(target))[0] or "run"
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", base).strip("-") or "run"
    digest = hashlib.sha256(f"{command}:{target}".encode()).hexdigest()[:8]
    return os.path.join(config.current().runs_dir, f"{command}-{slug}-{digest}")


def write_meta(
    run_dir: str,
    command: str,
    argv: Sequence[str],
    target: str,
) -> RunMeta:
    """Atomically write ``meta.json`` into ``run_dir`` (best effort)."""
    meta = RunMeta(
        command=command,
        argv=tuple(argv),
        target=target,
        created_unix=time.time(),
    )
    payload = json.dumps(
        {"format": META_FORMAT, "meta": asdict(meta)},
        indent=1,
        sort_keys=True,
    )
    try:
        os.makedirs(run_dir, exist_ok=True)
        handle, staging = tempfile.mkstemp(dir=run_dir, suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as out:
                out.write(payload)
            os.replace(staging, os.path.join(run_dir, META_NAME))
        except BaseException:
            try:
                os.unlink(staging)
            except OSError:
                pass
            raise
    except OSError:
        pass  # an unwritable run dir degrades `repro resume`, not the run
    return meta


def load_meta(run_dir: str) -> RunMeta | None:
    """The :class:`RunMeta` recorded in ``run_dir``, or None."""
    try:
        with open(os.path.join(run_dir, META_NAME), encoding="utf-8") as src:
            document = json.load(src)
        if document.get("format") != META_FORMAT:
            return None
        fields = dict(document["meta"])
        fields["argv"] = tuple(fields.get("argv", ()))
        return RunMeta(**fields)
    except (OSError, ValueError, KeyError, TypeError):
        return None
