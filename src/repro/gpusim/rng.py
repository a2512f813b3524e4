"""Counter-based per-thread random numbers: the cuRAND stand-in.

cuRAND gives every CUDA thread an independent, reproducible random stream.
We model this with a *stateless counter-based* generator (in the spirit of
Philox/`curand_init(seed, subsequence=tid, offset)`): the ``k``-th draw of
thread ``t`` under seed ``s`` is a fixed avalanche hash ``h(s, t, k)``,
evaluated vectorized over all threads at once.  Properties this buys us:

* *Reproducibility* -- identical seeds yield identical streams regardless of
  how many threads run or in which order the kernels were vectorized.
* *Independence* -- streams of different threads never overlap by
  construction (no shared mutable state).
* *Integer-first output* -- like cuRAND, the primitive output is an unsigned
  integer; uniforms in ``[0, 1)`` are obtained by explicit normalization
  ("since cuRand provides only integer values, a normalization is carried
  out", Section VI-B).

The mixing function is SplitMix64 (Steele et al.), a well-tested 64-bit
finalizer; statistical sanity is covered by the test suite.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DeviceRNG", "OffsetRNG", "splitmix64"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0xD6E8FEB86659FD93)


def splitmix64(z: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """The SplitMix64 finalizer, elementwise over uint64 input.

    Modular 2^64 wraparound is the intended arithmetic, so NumPy's overflow
    warning is silenced locally.
    """
    with np.errstate(over="ignore"):
        z = (np.asarray(z, dtype=np.uint64) + _GOLDEN).astype(np.uint64)
        z = ((z ^ (z >> np.uint64(30))) * _MIX1).astype(np.uint64)
        z = ((z ^ (z >> np.uint64(27))) * _MIX2).astype(np.uint64)
        return z ^ (z >> np.uint64(31))


class DeviceRNG:
    """Per-thread counter-based random streams.

    Parameters
    ----------
    seed:
        Global seed, analogous to the seed handed to ``curand_init``.

    Each generating call advances a global draw counter; thread ``t``'s
    value for draw ``k`` is ``splitmix64(mix(seed, t, k))``, so the sequence
    seen by a thread does not depend on the ensemble size.
    """

    def __init__(self, seed: int) -> None:
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = np.uint64(0)

    @property
    def seed(self) -> int:
        """The seed this generator was created with."""
        return int(self._seed)

    @property
    def counter(self) -> int:
        """Number of draw rounds issued so far."""
        return int(self._counter)

    def _advance(self) -> np.uint64:
        c = self._counter
        self._counter = np.uint64(self._counter + np.uint64(1))
        return c

    def reserve(self, rounds: int) -> tuple[int, int]:
        """Issue ``rounds`` draw rounds at once and return ``(seed,
        first_counter)``: a compiled kernel then computes round
        ``first_counter + r`` (mod 2**64) inline exactly as :meth:`raw`
        would have."""
        first = int(self._counter)
        self._counter = np.uint64((first + rounds) & 0xFFFFFFFFFFFFFFFF)
        return int(self._seed), first

    def raw(self, thread_ids: np.ndarray) -> np.ndarray:
        """One uint64 per thread for the next draw round."""
        tids = np.asarray(thread_ids, dtype=np.uint64)
        c = self._advance()
        with np.errstate(over="ignore"):
            base = (self._seed ^ splitmix64(c * _GOLDEN + _STREAM_SALT)).astype(
                np.uint64
            )
            mixed = (base + tids * _GOLDEN).astype(np.uint64)
        return splitmix64(mixed)

    def uniform(self, thread_ids: np.ndarray) -> np.ndarray:
        """One float in ``[0, 1)`` per thread (integer draw + normalization)."""
        bits32 = (self.raw(thread_ids) >> np.uint64(32)).astype(np.float64)
        return bits32 / 4294967296.0  # 2**32

    def randint(
        self, thread_ids: np.ndarray, low: int, high: int
    ) -> np.ndarray:
        """One integer in ``[low, high)`` per thread.

        Uses the multiply-shift range reduction on the high 32 bits --
        negligible modulo bias for the small ranges used by the operators
        (range << 2^32).
        """
        if high <= low:
            raise ValueError(f"empty range [{low}, {high})")
        span = np.uint64(high - low)
        hi32 = self.raw(thread_ids) >> np.uint64(32)
        return (low + ((hi32 * span) >> np.uint64(32)).astype(np.int64)).astype(
            np.int64
        )

    def uniform_matrix(self, thread_ids: np.ndarray, draws: int) -> np.ndarray:
        """``(len(thread_ids), draws)`` uniforms; column ``k`` is draw round k."""
        cols = [self.uniform(thread_ids) for _ in range(draws)]
        return np.stack(cols, axis=1)

    def spawn(self, salt: int) -> "DeviceRNG":
        """A statistically independent generator derived from this seed."""
        with np.errstate(over="ignore"):
            salted = self._seed ^ (np.uint64(salt & 0xFFFFFFFFFFFFFFFF) * _GOLDEN)
        child_seed = int(splitmix64(salted))
        return DeviceRNG(child_seed)


class OffsetRNG:
    """A :class:`DeviceRNG` view whose thread ids are shifted by a constant.

    A sharded ensemble runs chains ``[offset, offset + s)`` of the global
    population in a worker whose *local* thread ids are ``[0, s)``.  Because
    thread ``t``'s stream depends only on ``(seed, t, k)``, wrapping the
    worker's generator so that local id ``t`` draws as global id
    ``t + offset`` reproduces exactly the numbers those chains would have
    drawn in the unsharded run -- the foundation of the multiprocess
    backend's bit-identity contract (see docs/parallel.md).
    """

    __slots__ = ("_inner", "_offset")

    def __init__(self, inner: DeviceRNG, offset: int) -> None:
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        self._inner = inner
        self._offset = np.uint64(offset)

    @property
    def seed(self) -> int:
        return self._inner.seed

    @property
    def counter(self) -> int:
        return self._inner.counter

    @property
    def offset(self) -> int:
        """The global thread id of this view's local thread 0."""
        return int(self._offset)

    def _shift(self, thread_ids: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return (
                np.asarray(thread_ids, dtype=np.uint64) + self._offset
            ).astype(np.uint64)

    def reserve(self, rounds: int) -> tuple[int, int]:
        """:meth:`DeviceRNG.reserve` of the wrapped generator; the caller
        adds :attr:`offset` to its thread ids."""
        return self._inner.reserve(rounds)

    def raw(self, thread_ids: np.ndarray) -> np.ndarray:
        return self._inner.raw(self._shift(thread_ids))

    def uniform(self, thread_ids: np.ndarray) -> np.ndarray:
        return self._inner.uniform(self._shift(thread_ids))

    def randint(
        self, thread_ids: np.ndarray, low: int, high: int
    ) -> np.ndarray:
        return self._inner.randint(self._shift(thread_ids), low, high)

    def uniform_matrix(self, thread_ids: np.ndarray, draws: int) -> np.ndarray:
        return self._inner.uniform_matrix(self._shift(thread_ids), draws)

    def spawn(self, salt: int) -> DeviceRNG:
        return self._inner.spawn(salt)
