"""The compiled operator rows against the NumPy operators they mirror.

``operator_rows.c`` computes the counter RNG of
:class:`repro.gpusim.rng.DeviceRNG` inline and runs the SA perturbation
and the DPSO update one row per thread.  Both must equal the NumPy
reference (:mod:`repro.permutation` driven by the RNG's vectorized
methods) exactly: every draw, every output row and the RNG counter after
the launch, with :func:`native.use` forcing one implementation, then the
other.  Inputs off the fast path must leave the RNG untouched and fall
through to NumPy, which then raises what it always raised.
"""

from __future__ import annotations

import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.parallel_dpso import _make_update_kernel
from repro.gpusim.rng import DeviceRNG, OffsetRNG
from repro.kernels.perturbation import make_perturbation_kernel
from repro.seqopt import native

U64 = (1 << 64) - 1


@pytest.fixture(scope="module")
def lib():
    loaded = native.library()
    if loaded is None:
        # test_native_loads_when_a_compiler_is_present fails in this case
        # when a compiler exists; without one there is nothing to compare.
        pytest.skip("no C compiler: the native kernels cannot be built")
    return loaded


def make_rng(seed, counter=0, offset=None):
    rng = DeviceRNG(seed)
    rng.reserve(counter)
    return rng if offset is None else OffsetRNG(rng, offset)


def permutations(rows, n, seed):
    rng = np.random.default_rng(seed)
    return np.argsort(rng.random((rows, n)), axis=1).astype(np.int32)


def assert_permutation_rows(matrix):
    n = matrix.shape[1]
    assert np.array_equal(np.sort(matrix, axis=1),
                          np.broadcast_to(np.arange(n), matrix.shape))


# ----------------------------------------------------------------------
# The counter RNG
# ----------------------------------------------------------------------
class TestRNGParity:
    SEEDS = [0, 1, 0xDEADBEEF, U64]
    COUNTERS = [0, 5, (1 << 63) + 3, U64 - 2]
    OFFSETS = [None, 0, 768, 1 << 40, U64 - 3]

    def _draws(self, lib, seed, counter, offset, kind, low=0, high=0):
        fast_rng = make_rng(seed, counter, offset)
        ref_rng = make_rng(seed, counter, offset)
        rows = 40
        tids = np.arange(rows)
        for _ in range(4):  # crosses 2**64 from the last counter
            fast = lib.rng_rows(fast_rng, rows, kind, low, high)
            if kind == "randint":
                ref = ref_rng.randint(tids, low, high)
            else:
                ref = getattr(ref_rng, kind)(tids)
            assert fast.dtype == ref.dtype
            assert np.array_equal(fast, ref)
            assert fast_rng.counter == ref_rng.counter

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("counter", COUNTERS)
    @pytest.mark.parametrize("offset", OFFSETS)
    def test_raw_and_uniform(self, lib, seed, counter, offset):
        self._draws(lib, seed, counter, offset, "raw")
        self._draws(lib, seed, counter, offset, "uniform")

    @pytest.mark.parametrize("low,high", [
        (0, 1), (0, 2), (1, 50), (-7, 9), (0, 1000), (0, 1 << 31),
        (0, (1 << 32) - 1), (5, 5 + (1 << 32) - 1),
    ])
    @pytest.mark.parametrize("offset", OFFSETS)
    def test_randint_spans(self, lib, low, high, offset):
        for seed, counter in itertools.product(self.SEEDS, self.COUNTERS):
            self._draws(lib, seed, counter, offset, "randint", low, high)

    @given(seed=st.integers(0, U64), counter=st.integers(0, U64),
           offset=st.one_of(st.none(), st.integers(0, U64)),
           low=st.integers(-1000, 1000), span=st.integers(1, (1 << 32) - 1))
    def test_any_stream(self, lib, seed, counter, offset, low, span):
        self._draws(lib, seed, counter, offset, "raw")
        self._draws(lib, seed, counter, offset, "randint", low, low + span)

    def test_empty_range_raises_like_numpy(self, lib):
        rng = DeviceRNG(0)
        with pytest.raises(ValueError, match=r"empty range \[3, 3\)"):
            lib.rng_rows(rng, 4, "randint", 3, 3)
        assert rng.counter == 0

    def test_reserve_wraps_the_counter(self):
        rng = DeviceRNG(9)
        assert rng.reserve(U64) == (9, 0)
        assert rng.reserve(3) == (9, U64)
        assert rng.counter == 2
        view = OffsetRNG(rng, 100)
        assert view.reserve(1) == (9, 2) and rng.counter == 3

    def test_draw_wraps_the_counter_without_warning(self):
        rng = make_rng(9, U64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rng.raw(np.arange(4))
        assert rng.counter == 0


# ----------------------------------------------------------------------
# Kernel bodies, native on and off
# ----------------------------------------------------------------------
def ctx_for(rows, rng):
    """The stub thread context both kernel bodies read."""
    return SimpleNamespace(total_threads=rows, thread_ids=np.arange(rows),
                           rng=rng)


def buf(array):
    return SimpleNamespace(array=array)


def run_perturbation(seqs, positions, refresh, min_position, rng):
    seqs = seqs.copy()
    cand = np.full_like(seqs, -1)
    positions = positions.copy()
    make_perturbation_kernel().fn(
        ctx_for(len(seqs), rng), buf(seqs), buf(cand), buf(positions),
        refresh, min_position,
    )
    return seqs, cand, positions, rng.counter


def run_update(x, pbest, pbest_fit, gbest, gates, coupling, rng):
    x = x.copy()
    _make_update_kernel(*gates, coupling).fn(
        ctx_for(len(x), rng), buf(x), buf(pbest.copy()),
        buf(pbest_fit.copy()), buf(gbest.copy()),
    )
    return x, rng.counter


def both(lib, fn, *args, seed=3, offset=None):
    """``fn(*args, rng)`` native, then NumPy, each on a fresh RNG."""
    with native.use(lib):
        fast = fn(*args, make_rng(seed, offset=offset))
    with native.use(None):
        ref = fn(*args, make_rng(seed, offset=offset))
    return fast, ref


def assert_same(fast, ref):
    assert len(fast) == len(ref)
    for a, b in zip(fast, ref):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert a == b


@st.composite
def perturbation_cases(draw):
    n = draw(st.integers(2, 40))
    min_position = draw(st.sampled_from([0, 1]))
    free = n - min_position
    k = draw(st.integers(0, free))
    rows = draw(st.integers(1, 24))
    seqs = permutations(rows, n, draw(st.integers(0, 1 << 16)))
    picks = np.random.default_rng(draw(st.integers(0, 1 << 16)))
    positions = np.stack([
        min_position + picks.choice(free, size=k, replace=False)
        for _ in range(rows)
    ]).astype(np.int64).reshape(rows, k)
    return seqs, positions, draw(st.booleans()), min_position


class TestPerturbationParity:
    @given(case=perturbation_cases(), seed=st.integers(0, U64),
           offset=st.one_of(st.none(), st.integers(0, 1 << 20)))
    def test_kernel_body(self, lib, case, seed, offset):
        seqs, positions, refresh, min_position = case
        fast, ref = both(lib, run_perturbation, seqs, positions, refresh,
                         min_position, seed=seed, offset=offset)
        assert_same(fast, ref)
        parent, cand, new_positions, _ = fast
        assert np.array_equal(parent, seqs)
        assert_permutation_rows(cand)
        if min_position:
            assert np.array_equal(cand[:, 0], seqs[:, 0])
        if refresh and positions.shape[1]:
            assert new_positions.min() >= min_position

    @pytest.mark.parametrize("refresh", [True, False])
    @pytest.mark.parametrize("min_position,k", [(0, 0), (0, 1), (0, 2),
                                                (1, 0), (1, 1)])
    def test_two_jobs(self, lib, refresh, min_position, k):
        seqs = permutations(64, 2, 1)
        positions = np.tile(np.arange(min_position, min_position + k),
                            (64, 1)).astype(np.int64)
        fast, ref = both(lib, run_perturbation, seqs, positions, refresh,
                         min_position)
        assert_same(fast, ref)
        assert_permutation_rows(fast[1])


@pytest.fixture(scope="module")
def swarm():
    def make(n, rows=48):
        x = permutations(rows, n, 10)
        pbest = permutations(rows, n, 11)
        fit = np.random.default_rng(12).random(rows)
        return x, pbest, fit, pbest[int(np.argmin(fit))].copy()
    return make


class TestDPSOUpdateParity:
    GATES = list(itertools.product([0.0, 0.5, 1.0], repeat=3))

    @pytest.mark.parametrize("coupling", ["async", "ring", "coupled"])
    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_every_gate(self, lib, swarm, coupling, n):
        x, pbest, fit, gbest = swarm(n)
        for gates in self.GATES:
            fast, ref = both(lib, run_update, x, pbest, fit, gbest, gates,
                             coupling, offset=5)
            assert_same(fast, ref)
            assert_permutation_rows(fast[0])
            if gates == (0.0, 0.0, 0.0):
                assert np.array_equal(fast[0], x)

    @given(n=st.integers(2, 30), rows=st.integers(1, 20),
           seed=st.integers(0, U64),
           gates=st.tuples(*[st.floats(0.0, 1.0)] * 3),
           coupling=st.sampled_from(["async", "ring", "coupled"]))
    def test_any_swarm(self, lib, n, rows, seed, gates, coupling):
        x = permutations(rows, n, seed % 1000)
        pbest = permutations(rows, n, seed % 1000 + 1)
        fit = np.random.default_rng(seed % 1000).random(rows)
        gbest = pbest[0].copy()
        fast, ref = both(lib, run_update, x, pbest, fit, gbest, gates,
                         coupling, seed=seed)
        assert_same(fast, ref)
        assert_permutation_rows(fast[0])


# ----------------------------------------------------------------------
# Off the fast path: the same errors, no stray draws
# ----------------------------------------------------------------------
def outcome(fn, *args):
    rng = args[-1]
    try:
        result = fn(*args)
    except (IndexError, ValueError) as exc:
        return type(exc), str(exc), rng.counter
    return "ok", result


class TestFallback:
    def test_dpso_single_job_raises_as_numpy(self, lib, swarm):
        x = np.zeros((8, 1), np.int32)
        fit = np.zeros(8)
        fast, ref = both(lib, outcome, run_update, x, x, fit, x[0],
                         (0.9, 0.8, 0.8), "async")
        assert fast == ref
        assert fast[0] is ValueError

    def test_sample_larger_than_the_free_positions(self, lib):
        seqs = permutations(8, 5, 2)
        positions = np.zeros((8, 5), np.int64)
        fast, ref = both(lib, outcome, run_perturbation, seqs, positions,
                         True, 1)
        assert fast == ref == (
            ValueError, "cannot sample 5 distinct positions from 4", 0)

    def _perturb_args(self, n=8, rows=6, k=3):
        seqs = permutations(rows, n, 4)
        positions = np.tile(np.arange(k), (rows, 1)).astype(np.int64)
        return seqs, np.empty_like(seqs), positions

    @pytest.mark.parametrize("change", [
        "fortran-seqs", "strided-cand", "int64-seqs", "int32-positions",
        "k-above-cap",
    ])
    def test_perturbation_off_the_fast_path(self, lib, change):
        seqs, cand, positions = self._perturb_args()
        if change == "fortran-seqs":
            seqs = np.asfortranarray(seqs)
        elif change == "strided-cand":
            cand = np.empty((6, 16), np.int32)[:, ::2]
        elif change == "int64-seqs":
            seqs = seqs.astype(np.int64)
        elif change == "int32-positions":
            positions = positions.astype(np.int32)
        else:
            seqs, cand, positions = self._perturb_args(
                n=native.PERT_CAP + 2, k=native.PERT_CAP + 1)
        rng = DeviceRNG(1)
        assert not lib.perturb(rng, seqs, cand, positions, True, 0)
        assert rng.counter == 0
        fast, ref = both(lib, run_perturbation, seqs, positions, True, 0)
        assert_same(fast, ref)

    @pytest.mark.parametrize("change", [
        "fortran-x", "int64-pbest", "strided-social", "aliased", "one-job",
    ])
    def test_dpso_off_the_fast_path(self, lib, change):
        x, pbest = permutations(6, 7, 5), permutations(6, 7, 6)
        social = pbest
        if change == "fortran-x":
            x = np.asfortranarray(x)
        elif change == "int64-pbest":
            pbest = pbest.astype(np.int64)
        elif change == "strided-social":
            social = np.repeat(pbest, 2, axis=1)[:, ::2]
        elif change == "aliased":
            social = x
        else:
            x = pbest = social = np.zeros((6, 1), np.int32)
        rng = OffsetRNG(DeviceRNG(1), 3)
        assert not lib.dpso_update(rng, x, pbest, social, 0.9, 0.8, 0.8)
        assert rng.counter == 0

    def test_other_generators_take_the_numpy_path(self, lib):
        class Counting(DeviceRNG):
            pass

        seqs, cand, positions = self._perturb_args()
        assert not lib.perturb(Counting(0), seqs, cand, positions, True, 0)

    def test_bad_stored_position_reports_numpy_message(self, lib):
        seqs = permutations(4, 6, 7)
        positions = np.tile(np.arange(3), (4, 1)).astype(np.int64)
        positions[2, 1] = 9
        for impl in (lib, None):
            with native.use(impl), pytest.raises(
                IndexError,
                match="index 9 is out of bounds for axis 1 with size 6",
            ):
                run_perturbation(seqs, positions, False, 0, DeviceRNG(0))

    def test_negative_stored_positions_wrap_like_numpy(self, lib):
        seqs = permutations(4, 6, 8)
        positions = np.tile([-1, -3, 0], (4, 1)).astype(np.int64)
        fast, ref = both(lib, run_perturbation, seqs, positions, False, 0)
        assert_same(fast, ref)

    def test_bad_job_in_a_dpso_row_raises(self, lib):
        x, pbest = permutations(4, 6, 9), permutations(4, 6, 10)
        pbest[3, 2] = 17
        rng = DeviceRNG(0)
        with pytest.raises(IndexError, match="index 17 is out of bounds"):
            lib.dpso_update(rng, x, pbest, pbest, 0.5, 0.5, 0.5)
