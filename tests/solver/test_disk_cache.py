"""The disk-backed query cache and the persistent worker pool.

Covers the cross-run cache tier (:class:`~repro.solver.cache.DiskCache`
and its fetch-through wiring in :class:`~repro.solver.cache.QueryCache`)
and the pool-reuse contract of :mod:`repro.solver.dispatch`: a second
batch must be served by the workers the first batch forked.
"""

import os
import pickle

import pytest

from repro.config import RunConfig
from repro.logic import RelDecl, Sort, Var, vocabulary
from repro.logic import syntax as s
from repro.obs import MetricsRegistry, install_metrics
from repro.solver import (
    DiskCache,
    EprResult,
    EprSolver,
    FailureReason,
    QueryCache,
    install_cache,
    query_of,
    solve_queries,
    unknown_result,
)
from repro.solver.cache import DISK_FORMAT, query_cache

elem = Sort("elem")
p = RelDecl("p", (elem,))
q = RelDecl("q", (elem,))
VOCAB = vocabulary(sorts=[elem], relations=[p, q], functions=[])
X = Var("X", elem)

SOME_P = s.exists((X,), s.Rel(p, (X,)))
NO_P = s.forall((X,), s.not_(s.Rel(p, (X,))))
SOME_Q = s.exists((X,), s.Rel(q, (X,)))

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="requires the fork start method"
)


@pytest.fixture(autouse=True)
def fresh_cache():
    cache = QueryCache()
    old = install_cache(cache)
    yield cache
    install_cache(old)


def _solver(formulas):
    solver = EprSolver(VOCAB)
    for index, formula in enumerate(formulas):
        solver.add(formula, name=f"f{index}")
    return solver


def _result(satisfiable=True, **kw) -> EprResult:
    return EprResult(satisfiable, **kw)


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        result = _result(core=frozenset({"a"}), statistics={"conflicts": 3})
        disk.store(("fp", (1, 2)), result)
        loaded = disk.lookup(("fp", (1, 2)))
        assert loaded == result
        assert disk.hits == 1 and len(disk) == 1

    def test_missing_entry_is_a_miss(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        assert disk.lookup("absent") is None
        assert disk.misses == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        disk.store("key", _result())
        path = disk._path("key")
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert disk.lookup("key") is None
        assert not os.path.exists(path)  # healed: next store recreates it

    def test_truncated_entry_is_a_miss(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        disk.store("key", _result())
        path = disk._path("key")
        payload = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        assert disk.lookup("key") is None

    def test_key_mismatch_reads_as_miss(self, tmp_path):
        # A digest collision (or a hand-copied file) must never return a
        # result for the wrong key.
        disk = DiskCache(str(tmp_path))
        path = disk._path("key")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            pickle.dump((DISK_FORMAT, "other-key", _result()), handle)
        assert disk.lookup("key") is None

    def test_stale_format_reads_as_miss(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        path = disk._path("key")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            pickle.dump((DISK_FORMAT + 1, "key", _result()), handle)
        assert disk.lookup("key") is None

    def test_unwritable_root_counts_write_errors(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        disk = DiskCache(str(blocker / "nested"))  # mkdir will fail
        disk.store("key", _result())
        assert disk.write_errors == 1
        assert disk.lookup("key") is None  # and the solve is not failed


class TestFetchThrough:
    def test_memory_miss_fetches_from_disk(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        writer = QueryCache(disk=disk)
        writer.store("key", _result())
        reader = QueryCache(disk=disk)  # cold memory, same store
        assert reader.lookup("key") is not None
        assert reader.hits == 1 and reader.disk_hits == 1
        # Promoted into memory: the re-hit does not touch the disk again.
        assert reader.lookup("key") is not None
        assert disk.hits == 1

    def test_unknown_results_never_stored(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        cache = QueryCache(disk=disk)
        cache.store("key", unknown_result(FailureReason.TIMEOUT))
        assert len(cache) == 0 and len(disk) == 0

    def test_store_overwrites_on_collision(self):
        # Regression: store() used to keep the stale entry on a repeated
        # key, discarding the re-solve's richer statistics.
        cache = QueryCache()
        cache.store("key", _result(statistics={"conflicts": 1}))
        cache.store("key", _result(statistics={"conflicts": 9}))
        assert len(cache) == 1
        assert cache.lookup("key").statistics == {"conflicts": 9}

    def test_end_to_end_cross_cache_hit(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        install_cache(QueryCache(disk=disk))
        first = _solver([SOME_P, NO_P]).check()
        assert not first.satisfiable
        install_cache(QueryCache(disk=disk))  # fresh memory, same store
        second = _solver([SOME_P, NO_P]).check()
        assert not second.satisfiable
        assert second.cached and second.statistics == {"cache_hits": 1}


class TestLookupBeforeGrounding:
    def test_cold_check_reads_the_store_once(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        cache = QueryCache(disk=disk)
        install_cache(cache)
        assert not _solver([SOME_P, NO_P]).check().satisfiable
        assert (disk.misses, cache.misses, len(disk)) == (1, 1, 1)

    def test_cold_query_reads_each_solve_set_once(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        install_cache(QueryCache(disk=disk))
        solver = EprSolver(VOCAB)
        solver.add(SOME_P, name="some_p", track=True)
        solver.add(NO_P, name="no_p", track=True)
        sets = [frozenset({"some_p"}), frozenset({"some_p", "no_p"})]
        (batch,) = solve_queries([query_of(solver, solve_sets=sets)], jobs=1)
        assert [r.satisfiable for r in batch] == [True, False]
        assert (disk.misses, len(disk)) == (2, 2)
        install_cache(QueryCache(disk=disk))  # warm: every set hits
        (warm,) = solve_queries([query_of(solver, solve_sets=sets)], jobs=1)
        assert [r.satisfiable for r in warm] == [True, False]
        assert all(r.cached for r in warm) and disk.hits == 2


class TestCacheEnv:
    def test_repro_cache_read_at_call_time(self, configure):
        # Regression: REPRO_CACHE was read at import time, so a later
        # change silently did nothing; the config is read per query.
        assert query_cache() is not None
        configure(cache=False)
        assert query_cache() is None
        configure(cache=True)
        assert query_cache() is not None

    def test_cache_dir_env_isolation(self, configure, tmp_path):
        configure(cache_persist=True, cache_dir=str(tmp_path / "a"))
        cache_a = query_cache(refresh=True)
        assert cache_a.disk is not None
        cache_a.store("key", _result())
        configure(cache_dir=str(tmp_path / "b"))
        cache_b = query_cache(refresh=True)
        assert cache_b.lookup("key") is None  # different store
        configure(cache_dir=str(tmp_path / "a"))
        cache_a2 = query_cache(refresh=True)
        assert cache_a2.lookup("key") is not None  # same store, cold memory

    def test_persistence_defaults_off(self, configure):
        configure(cache_persist=RunConfig().cache_persist)
        assert query_cache(refresh=True).disk is None


@needs_fork
class TestWorkerPool:
    QUERIES = [
        [SOME_P, NO_P],
        [SOME_P, SOME_Q],
        [SOME_Q],
        [s.and_(SOME_Q, s.forall((X,), s.not_(s.Rel(q, (X,)))))],
    ]
    VERDICTS = [False, True, True, False]

    def _queries(self):
        return [
            query_of(_solver(formulas), name=f"q{index}")
            for index, formulas in enumerate(self.QUERIES)
        ]

    def test_second_batch_reuses_workers(self):
        # Regression for the fork-per-query design: a second batch must be
        # served by the live pool, not by new forks.
        from repro.solver.dispatch import worker_pool

        install_cache(None)  # make every batch actually dispatch and solve
        first = solve_queries(self._queries(), jobs=2)
        pool = worker_pool()
        forks_after_first = pool.forks
        pids = {worker.process.pid for worker in pool.workers}
        second = solve_queries(self._queries(), jobs=2)
        assert pool.forks == forks_after_first
        assert {worker.process.pid for worker in pool.workers} == pids
        for (a,), (b,) in zip(first, second):
            assert a.satisfiable == b.satisfiable

    def test_pool_tracks_parent_cache_disable(self, metrics_registry):
        # Workers fork with the parent's cache; install_cache(None) in the
        # parent must reach already-running workers via the generation
        # shipped with each task.
        solve_queries(self._queries(), jobs=2)  # warm the pool + its caches
        install_cache(None)
        batches = solve_queries(self._queries(), jobs=2)
        assert [r.satisfiable for (r,) in batches] == self.VERDICTS
        # With the cache disabled everywhere, nothing may report cached.
        assert all(not r.cached for (r,) in batches)
        assert metrics_registry.counter("cache_hits_total").value == 0

    def test_pool_shares_disk_store_across_batches(
        self, tmp_path, configure, metrics_registry
    ):
        configure(cache_persist=True, cache_dir=str(tmp_path))
        install_cache(query_cache(refresh=True))
        solve_queries(self._queries(), jobs=2)
        # One worker's solves are on disk for everyone -- including a
        # brand-new memory cache in the parent.
        install_cache(query_cache(refresh=True))
        registry = MetricsRegistry()
        install_metrics(registry)
        batches = solve_queries(self._queries(), jobs=2)
        assert [r.satisfiable for (r,) in batches] == self.VERDICTS
        assert registry.counter("cache_hits_total").value == len(self.QUERIES)
