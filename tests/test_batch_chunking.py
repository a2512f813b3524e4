"""Chunked dispatch in ``solve_many``: the chunk planner, bit-identity
with process-per-instance dispatch, and the error-isolation contract
(in-chunk exceptions stay per-instance; a chunk-level abnormal death
marks every member)."""

import warnings

import pytest

from repro.pool.batch import (
    CHUNK_SMALL_N,
    CHUNK_TARGET,
    _plan_chunks,
    solve_many,
)
from repro.instances.biskup import biskup_instance
from repro.resilience.faults import FaultPlan, parse_fault

SOLVE_KW = dict(
    backend="vectorized", iterations=30, grid_size=2, block_size=32, seed=7
)


@pytest.fixture(autouse=True)
def _quiet_oversubscription():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


class _Inst:
    def __init__(self, n):
        self.n = n


class TestChunkPlanner:
    def test_none_keeps_process_per_instance(self):
        assert _plan_chunks([_Inst(5)] * 3, None) == [[0], [1], [2]]

    def test_auto_packs_consecutive_small_instances(self):
        plan = _plan_chunks([_Inst(10)] * (CHUNK_TARGET + 2), "auto")
        assert plan == [list(range(CHUNK_TARGET)),
                        [CHUNK_TARGET, CHUNK_TARGET + 1]]

    def test_auto_gives_large_instances_their_own_task(self):
        small, big = _Inst(CHUNK_SMALL_N), _Inst(CHUNK_SMALL_N + 1)
        plan = _plan_chunks([small, small, big, small], "auto")
        assert plan == [[0, 1], [2], [3]]

    def test_auto_without_n_attribute_is_singleton(self):
        plan = _plan_chunks([object(), _Inst(5)], "auto")
        assert plan == [[0], [1]]

    def test_int_packs_unconditionally(self):
        plan = _plan_chunks([_Inst(100)] * 5, 2)
        assert plan == [[0, 1], [2, 3], [4]]

    @pytest.mark.parametrize("bad", [0, -1, True, 1.5, "eight"])
    def test_invalid_chunk_sizes_rejected(self, bad):
        with pytest.raises(ValueError):
            _plan_chunks([_Inst(5)], bad)


class TestChunkedResults:
    def _instances(self):
        return [
            biskup_instance(10, h, k)
            for h in (0.2, 0.4, 0.6) for k in (1, 2)
        ]

    def test_chunked_dispatch_is_bit_identical(self):
        instances = self._instances()
        reference = solve_many(
            instances, "parallel_sa", workers=2, **SOLVE_KW
        )
        for chunk_size in ("auto", 4):
            chunked = solve_many(
                instances, "parallel_sa", workers=2,
                chunk_size=chunk_size, **SOLVE_KW
            )
            assert all(item.ok for item in chunked)
            assert [
                (item.index, item.result.objective) for item in chunked
            ] == [
                (item.index, item.result.objective) for item in reference
            ]

    def test_in_chunk_exception_stays_isolated(self):
        instances = self._instances()
        instances[2] = object()  # solver_for raises TypeError for it
        items = solve_many(
            instances, "parallel_sa", workers=2, chunk_size=3, **SOLVE_KW
        )
        assert not items[2].ok
        assert items[2].error.error_type == "TypeError"
        assert items[2].error.host == "local"
        # Chunk-mates of the bad instance still solved.
        assert items[0].ok and items[1].ok
        assert all(item.ok for item in items[3:])

    def test_chunk_level_crash_marks_every_member(self):
        instances = self._instances()
        # Task 0 is the whole first chunk; crash it once with no retry
        # budget -- every member must carry the same crash record.
        plan = FaultPlan([parse_fault("task:0:kill")])
        items = solve_many(
            instances, "parallel_sa", workers=2, chunk_size=3,
            fault_plan=plan, **SOLVE_KW
        )
        for item in items[:3]:
            assert not item.ok
            assert item.error.error_type == "worker_crash"
        assert all(item.ok for item in items[3:])

    def test_chunk_level_crash_retries_whole_chunk(self):
        instances = self._instances()
        plan = FaultPlan([parse_fault("task:0:kill")])
        items = solve_many(
            instances, "parallel_sa", workers=2, chunk_size=3,
            fault_plan=plan, task_retries=1, **SOLVE_KW
        )
        assert all(item.ok for item in items)
