"""The run config: one parser for every ``REPRO_*`` variable, its readers,
and the rule that nothing else touches the environment."""

import os
import re
from pathlib import Path

import pytest

from repro import config
from repro.config import RunConfig
from repro.solver import Budget, FaultPlan

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: each boolean variable, its field and its default
FLAGS = {
    "REPRO_CACHE": ("cache", True),
    "REPRO_CACHE_PERSIST": ("cache_persist", False),
    "REPRO_LEDGER": ("ledger", True),
    "REPRO_SLICE": ("slice", True),
}

SPELLINGS = [
    ("1", True), ("true", True), ("YES", True), ("on", True), ("On", True),
    ("0", False), ("false", False), ("No", False), ("off", False),
    ("OFF", False),
]

#: (variable, raw value or None for unset, field, parsed value)
TABLE = [
    *(
        (name, raw, field, value)
        for name, (field, _) in FLAGS.items()
        for raw, value in SPELLINGS
    ),
    *((name, None, field, default) for name, (field, default) in FLAGS.items()),
    ("REPRO_JOBS", None, "jobs", 1),
    ("REPRO_JOBS", "5", "jobs", 5),
    ("REPRO_JOBS", " 3 ", "jobs", 3),
    ("REPRO_TIMEOUT", None, "timeout", None),
    ("REPRO_TIMEOUT", "2.5", "timeout", 2.5),
    ("REPRO_CONFLICT_BUDGET", None, "conflict_budget", None),
    ("REPRO_CONFLICT_BUDGET", "123", "conflict_budget", 123),
    ("REPRO_MEMORY_MB", None, "memory_mb", None),
    ("REPRO_MEMORY_MB", "256", "memory_mb", 256),
    ("REPRO_RETRIES", None, "retries", 2),
    ("REPRO_RETRIES", "0", "retries", 0),
    ("REPRO_RETRIES", "7", "retries", 7),
    ("REPRO_CACHE_DIR", None, "cache_dir", ".repro-cache"),
    ("REPRO_CACHE_DIR", "/var/cache/q", "cache_dir", "/var/cache/q"),
    ("REPRO_LEDGER_DIR", None, "ledger_dir", ".repro-ledger"),
    ("REPRO_LEDGER_DIR", "ledger", "ledger_dir", "ledger"),
    ("REPRO_RUNS_DIR", None, "runs_dir", ".repro-runs"),
    ("REPRO_RUNS_DIR", "runs", "runs_dir", "runs"),
    ("REPRO_HEARTBEAT_TIMEOUT", None, "heartbeat_timeout", 300.0),
    ("REPRO_HEARTBEAT_TIMEOUT", "7.5", "heartbeat_timeout", 7.5),
    ("REPRO_HEARTBEAT_TIMEOUT", "0", "heartbeat_timeout", 0.0),
    ("REPRO_FAULT", None, "fault", None),
    ("REPRO_FAULT", "off", "fault", None),
    ("REPRO_FAULT", "crash:0.9", "fault", FaultPlan(crash=0.9)),
    ("REPRO_FAULT", "hang:1.0:600,seed:3", "fault",
     FaultPlan(hang=1.0, hang_seconds=600.0, seed=3)),
]

#: (variable, malformed value); each keeps its field's default
MALFORMED = [
    *((name, "maybe") for name in FLAGS),
    ("REPRO_JOBS", "8x"),
    ("REPRO_JOBS", "junk"),
    ("REPRO_JOBS", "0"),
    ("REPRO_TIMEOUT", "fast"),
    ("REPRO_TIMEOUT", "-1"),
    ("REPRO_CONFLICT_BUDGET", "-3"),
    ("REPRO_MEMORY_MB", "lots"),
    ("REPRO_RETRIES", "many"),
    ("REPRO_RETRIES", "-1"),
    ("REPRO_HEARTBEAT_TIMEOUT", "soon"),
    ("REPRO_FAULT", "crash:lots"),
]


@pytest.fixture
def fresh_warnings(monkeypatch):
    """Forget which values were warned about, so each test sees its own."""
    monkeypatch.setattr(config, "_warned", set())


class TestFromEnv:
    @pytest.mark.parametrize("name, raw, field, value", TABLE)
    def test_table(self, name, raw, field, value, capsys):
        environ = {} if raw is None else {name: raw}
        assert getattr(RunConfig.from_env(environ), field) == value
        assert "warning" not in capsys.readouterr().err

    def test_empty_environment_is_every_default(self):
        assert RunConfig.from_env({}) == RunConfig()
        assert RunConfig.from_env({"REPRO_JOBS": "  "}) == RunConfig()

    def test_unknown_variables_are_ignored(self):
        environ = {"REPRO_CACHE_SIZE": "1", "REPRO_JOURNAL": "1"}
        assert RunConfig.from_env(environ) == RunConfig()

    @pytest.mark.parametrize("name, raw", MALFORMED)
    def test_malformed_warns_once_and_keeps_default(
        self, name, raw, fresh_warnings, capsys
    ):
        field = config.VARIABLES[name][0]
        for _ in range(2):
            parsed = RunConfig.from_env({name: raw})
            assert getattr(parsed, field) == getattr(RunConfig(), field)
        assert capsys.readouterr().err.count(f"{name}={raw!r}") == 1

    def test_from_env_never_writes_the_environment(self, fresh_warnings):
        environ = {name: raw for name, raw in MALFORMED}
        before = dict(environ), dict(os.environ)
        RunConfig.from_env(environ)
        assert (environ, dict(os.environ)) == before


class TestCurrent:
    def test_resolved_once_and_memoized(self):
        assert config.current() is config.current()

    def test_using_installs_and_restores(self):
        before = config.current()
        changed = RunConfig(jobs=before.jobs + 1)
        with config.using(changed):
            assert config.current() is changed
        assert config.current() is before

    def test_using_restores_after_an_error(self):
        before = config.current()
        with pytest.raises(RuntimeError):
            with config.using(RunConfig(slice=not before.slice)):
                raise RuntimeError
        assert config.current() is before


def _jobs():
    from repro.solver.dispatch import resolve_jobs

    return resolve_jobs(None), resolve_jobs(2), resolve_jobs(0)


def _cache():
    from repro.solver.cache import install_cache, query_cache

    old = install_cache(None)
    try:
        cache = query_cache(refresh=True)
    finally:
        install_cache(old)
    if cache is None:
        return "off"
    return "memory" if cache.disk is None else cache.disk.root


def _ledger():
    from repro.proof.ledger import default_ledger

    ledger = default_ledger()
    return None if ledger is None else ledger.root


def _sliced():
    from repro.core.induction import obligations
    from repro.protocols import lock_server

    bundle = lock_server.build()
    pending = obligations(bundle.program, list(bundle.invariant))
    return any(o.sliced_vc is not None for o in pending)


def _run_dir():
    from repro.recovery import default_run_dir

    return os.path.dirname(default_run_dir("check", "lock_server"))


def _fault():
    from repro.solver import faults

    faults.install_fault_plan(None)
    return faults.active_plan()


def _budget():
    return config.current().budget()


#: fields changed, the reader, and what the reader returns
READERS = [
    pytest.param({"jobs": 5}, _jobs, (5, 2, 1), id="jobs"),
    pytest.param({"jobs": 1}, _jobs, (1, 2, 1), id="jobs-serial"),
    pytest.param({"cache": False}, _cache, "off", id="cache-off"),
    pytest.param(
        {"cache": True, "cache_persist": False}, _cache, "memory", id="cache",
    ),
    pytest.param(
        {"cache": True, "cache_persist": True, "cache_dir": "q"}, _cache, "q",
        id="cache-persist",
    ),
    pytest.param({"ledger": False}, _ledger, None, id="ledger-off"),
    pytest.param(
        {"ledger": True, "ledger_dir": "l"}, _ledger, "l", id="ledger-dir",
    ),
    pytest.param({"slice": True}, _sliced, True, id="slice"),
    pytest.param({"slice": False}, _sliced, False, id="slice-off"),
    pytest.param({"runs_dir": "runs"}, _run_dir, "runs", id="runs-dir"),
    pytest.param(
        {"fault": FaultPlan(crash=0.9)}, _fault, FaultPlan(crash=0.9),
        id="fault",
    ),
    pytest.param(
        {"timeout": None, "conflict_budget": None, "memory_mb": None},
        _budget, None, id="budget-unlimited",
    ),
    pytest.param(
        {"timeout": 2.5, "conflict_budget": 123, "memory_mb": 256},
        _budget, Budget(wall_seconds=2.5, conflicts=123, rss_mb=256),
        id="budget",
    ),
]


@pytest.mark.parametrize("fields, read, expected", READERS)
def test_value_reaches_its_reader(fields, read, expected, configure):
    configure(**fields)
    assert read() == expected


def test_only_config_reads_the_environment():
    """No module but ``repro.config`` reads the environment, and nothing
    under ``src/repro`` writes it."""
    pattern = re.compile(r"os\.environ|getenv|putenv")
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "config.py" and pattern.search(path.read_text())
    ]
    assert offenders == []
    source = (SRC / "config.py").read_text()
    assert pattern.search(source)
    writes = r"putenv|environ\[[^]]*\]\s*=|environ\.(pop|update|setdefault|clear)"
    assert not re.search(writes, source)
