"""Tests for the thread-safe AnalysisCache: FIFO bounds, stats
semantics, the DISABLED sentinel, and concurrent-hammer integrity."""

import pickle
import threading

from repro.analysis.cache import (
    DISABLED,
    AnalysisCache,
    CacheStats,
    taskset_digest,
    taskset_key,
)
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


def _selection_key(i: int) -> tuple:
    """A distinct opaque key per ``i``, shaped like a selection key."""
    return (((100 + i, 1),), i, 7, (64, 1), "vectorized")


class TestKeys:
    def test_key_is_order_and_metadata_insensitive(self):
        a = TaskSet(
            [
                PeriodicTask(period=100, wcet=2, name="a", client_id=1),
                PeriodicTask(period=50, wcet=1, name="b"),
            ]
        )
        b = TaskSet(
            [
                PeriodicTask(period=50, wcet=1, name="x", client_id=9),
                PeriodicTask(period=100, wcet=2),
            ]
        )
        assert taskset_key(a) == taskset_key(b)
        assert taskset_digest(a) == taskset_digest(b)

    def test_multiset_distinguishes_duplicates(self):
        one = TaskSet([PeriodicTask(period=100, wcet=2)])
        two = TaskSet(
            [
                PeriodicTask(period=100, wcet=2),
                PeriodicTask(period=100, wcet=2),
            ]
        )
        assert taskset_key(one) != taskset_key(two)


class TestFifoEviction:
    def test_selection_table_bounded_fifo(self):
        cache = AnalysisCache(max_selections=4, max_grids=4)
        for i in range(10):
            cache.put_selection(_selection_key(i), f"sel{i}")
        assert len(cache) == 4
        # the four newest insertions survive, the oldest six are gone
        assert cache.get_selection(_selection_key(9)) == "sel9"
        assert cache.get_selection(_selection_key(6)) == "sel6"
        assert cache.get_selection(_selection_key(5)) is None

    def test_interleaved_selection_and_grid_inserts_bound_each_table(self):
        cache = AnalysisCache(max_selections=3, max_grids=2)
        for i in range(8):
            cache.put_selection(_selection_key(i), f"sel{i}")
            cache.put_grid(((200 + i, 1),), f"grid{i}")
        # bounds are per table, not shared
        assert len(cache) == 3 + 2
        assert cache.get_grid(((207, 1),)) == "grid7"
        assert cache.get_grid(((205, 1),)) is None

    def test_reinserting_existing_key_at_capacity_evicts_nothing(self):
        cache = AnalysisCache(max_selections=2, max_grids=2)
        first = _selection_key(0)
        second = _selection_key(1)
        cache.put_selection(first, "a")
        cache.put_selection(second, "b")
        cache.put_selection(first, "a2")  # overwrite, table already full
        assert cache.get_selection(first) == "a2"
        assert cache.get_selection(second) == "b"


class TestStats:
    def test_stats_survive_clear(self):
        cache = AnalysisCache()
        key = _selection_key(1)
        cache.get_selection(key)  # miss
        cache.put_selection(key, "sel")
        cache.get_selection(key)  # hit
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.selection_hits == 1
        assert cache.stats.selection_misses == 1
        # cleared tables miss again, counters keep accumulating
        assert cache.get_selection(key) is None
        assert cache.stats.selection_misses == 2

    def test_reset_stats_returns_retired_counters(self):
        cache = AnalysisCache()
        cache.get_grid(((100, 1),))
        retired = cache.reset_stats()
        assert retired.grid_misses == 1
        assert cache.stats.grid_misses == 0
        assert cache.stats_snapshot().lookups == 0

    def test_snapshot_is_a_copy(self):
        cache = AnalysisCache()
        snap = cache.stats_snapshot()
        cache.get_grid(((100, 1),))
        assert snap.grid_misses == 0
        assert cache.stats.grid_misses == 1

    def test_hit_rate(self):
        stats = CacheStats(selection_hits=3, selection_misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        assert CacheStats().hit_rate == 0.0


class TestDisabled:
    def test_disabled_never_stores(self):
        key = _selection_key(0)
        DISABLED.put_selection(key, "sel")
        DISABLED.put_grid(((100, 1),), "grid")
        assert len(DISABLED) == 0
        assert DISABLED.get_selection(key) is None
        assert DISABLED.get_grid(((100, 1),)) is None

    def test_disabled_instance_never_counts(self):
        cache = AnalysisCache(enabled=False)
        cache.get_selection(_selection_key(0))
        cache.get_grid(((100, 1),))
        assert cache.stats.lookups == 0


class TestConcurrency:
    def test_hammer_keeps_tables_bounded_and_stats_consistent(self):
        """Interleaved get/put/clear from many threads must neither
        overflow the FIFO bounds nor corrupt the counters."""
        cache = AnalysisCache(max_selections=16, max_grids=8)
        n_threads, per_thread = 8, 300
        barrier = threading.Barrier(n_threads)

        def hammer(tid: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                key = _selection_key((tid * per_thread + i) % 40)
                if cache.get_selection(key) is None:
                    cache.put_selection(key, f"{tid}/{i}")
                gkey = ((100 + (i % 10), 1),)
                if cache.get_grid(gkey) is None:
                    cache.put_grid(gkey, f"g{tid}/{i}")
                if i % 97 == 0:
                    cache.clear()

        threads = [
            threading.Thread(target=hammer, args=(tid,))
            for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with cache._lock:
            assert len(cache._selections) <= 16
            assert len(cache._grids) <= 8
        stats = cache.stats_snapshot()
        assert (
            stats.selection_hits + stats.selection_misses
            == n_threads * per_thread
        )
        assert stats.grid_hits + stats.grid_misses == n_threads * per_thread


class TestPickling:
    def test_round_trip_recreates_lock_and_contents(self):
        cache = AnalysisCache(max_selections=4)
        key = _selection_key(0)
        cache.put_selection(key, "sel")
        cache.get_selection(key)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get_selection(key) == "sel"
        assert clone.stats.selection_hits >= 1
        # the clone's lock is functional and independent
        clone.clear()
        assert len(clone) == 0
        assert cache.get_selection(key) == "sel"
