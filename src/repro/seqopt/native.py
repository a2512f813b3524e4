"""The compiled rows: the O(n) closed forms and the ensemble operators in
C, one row per chain.

``fitness_rows.c`` (shipped beside this module) walks each row of the
integer sequence matrix once -- prefix sums with the gather fused in,
then tau and k_max, the keep rule, the shift and, for UCDDCP, the
compression pass and re-anchoring -- and writes one objective per row.
It allocates no ``(S, n)`` temporaries, which is where the NumPy closed
form of :mod:`repro.seqopt.batched` spends its time and memory.

The C code mirrors the NumPy reference operation by operation in the same
order, so the two are bit-identical on integer *and* float instances
(``tests/test_native_fitness.py``).  That is what lets one host run
native and another the fallback while sharded, distributed and cached
results stay byte for byte the same.

Build and load
--------------
On first use per process the library is compiled with
``gcc -O2 -ffp-contract=off -shared -fPIC`` into a private cache directory
(``~/.cache/repro-duedate/native/``, else a per-user temp directory) under
a name keyed by the sha256 of the source, the flags and the machine type,
published atomically, and loaded with :mod:`ctypes`.  Later processes load
the cached file.  A directory that is a symlink, owned by another user or
group/world-writable is refused.  With no compiler, no usable cache
directory, or a library that fails to load, :func:`library` returns
``None`` and callers fall back to the NumPy closed form.

Dispatch
--------
:func:`cdd_rows` / :func:`ucddcp_rows` return ``None`` whenever they
cannot answer natively -- no library, or inputs outside the fast path
(non-contiguous, dtypes other than int32/int64 sequences and float64
per-job arrays, an empty row width) -- so that the caller's NumPy path
handles them and raises exactly what it always raised.  An out-of-range
job index raises NumPy's own ``IndexError`` message.

Operator rows
-------------
``operator_rows.c`` is compiled into the same library.  It holds the SA
perturbation and the DPSO position update with the counter RNG of
:class:`repro.gpusim.rng.DeviceRNG` computed inline, one row per thread
(:func:`perturb_rows`, :func:`dpso_update_rows`).  A launch reserves its
counter rounds up front with :meth:`DeviceRNG.reserve` -- the same number
of rounds, in the same order, as the NumPy operators of
:mod:`repro.permutation` draw -- so counters, shard offsets and results
do not depend on which implementation ran.  Whether the fast path applies
is decided before any round is reserved; off it (no library, other
dtypes or layouts, more than :data:`PERT_CAP` positions, a DPSO row of
one job, a sample larger than the free positions) the functions return
``False`` and the caller's NumPy operators run and raise as they always
did.  The Metropolis acceptance stays in NumPy: ``np.exp`` and libm
``exp`` need not agree to the last ulp, and one ulp can flip a decision.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path
from typing import Any, Iterator, cast

import numpy as np

from repro.gpusim.rng import DeviceRNG, OffsetRNG

__all__ = [
    "CFLAGS",
    "ENTRY_POINTS",
    "KERNELS",
    "NativeRows",
    "active",
    "cdd_rows",
    "describe",
    "describe_kernels",
    "dpso_update_rows",
    "find_compiler",
    "library",
    "load",
    "perturb_rows",
    "ucddcp_rows",
    "use",
]

SOURCE = Path(__file__).with_name("fitness_rows.c")
#: Every C file of the library; the cache key covers all of them.
SOURCES = (SOURCE, Path(__file__).with_name("operator_rows.c"))
#: The symbols a loaded library must export.
ENTRY_POINTS = (
    "cdd_rows_i32", "cdd_rows_i64", "ucddcp_rows_i32", "ucddcp_rows_i64",
    "rng_rows", "perturb_rows", "dpso_update_rows",
)
#: The kernels the library runs natively, as reported to operators.
KERNELS = ("fitness", "perturbation", "dpso_update")
#: Most perturbation positions per row the C rows take (``PERT_CAP``).
PERT_CAP = 64
#: Counter rounds one DPSO update draws: the w gate, swap i and j, the c1
#: gate, the cut, the c2 gate and the two crossover points.
DPSO_ROUNDS = 8
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
#: Seconds one compile may take before the build is abandoned.
BUILD_TIMEOUT_S = 60.0

_INDEX_TYPES = {np.dtype(np.int32): "i32", np.dtype(np.int64): "i64"}
_RNG_KINDS = {"raw": (0, np.uint64), "uniform": (1, np.float64),
              "randint": (2, np.int64)}


class NativeRows:
    """One loaded copy of the compiled library."""

    def __init__(self, path: Path) -> None:
        self.path = path
        lib = ctypes.CDLL(str(path))
        ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
        self._cdd: dict[str, Any] = {}
        self._ucddcp: dict[str, Any] = {}
        for suffix in _INDEX_TYPES.values():
            cdd = getattr(lib, f"cdd_rows_{suffix}")
            cdd.argtypes = [ptr, size, size, size, ptr, ptr, ptr,
                            ctypes.c_double, ptr]
            cdd.restype = ctypes.c_int64
            self._cdd[suffix] = cdd
            ucddcp = getattr(lib, f"ucddcp_rows_{suffix}")
            ucddcp.argtypes = [ptr, size, size, size, ptr, ptr, ptr, ptr,
                               ptr, ctypes.c_double, ptr]
            ucddcp.restype = ctypes.c_int64
            self._ucddcp[suffix] = ucddcp
        u64, i64 = ctypes.c_uint64, ctypes.c_int64
        self._rng_rows = lib.rng_rows
        self._rng_rows.argtypes = [u64, u64, u64, size, ctypes.c_int, i64,
                                   u64, ptr]
        self._rng_rows.restype = None
        self._perturb = lib.perturb_rows
        self._perturb.argtypes = [ptr, ptr, ptr, size, size, size,
                                  ctypes.c_int, i64, u64, u64, u64]
        self._perturb.restype = i64
        self._dpso = lib.dpso_update_rows
        self._dpso.argtypes = [ptr, ptr, ptr, size, size, size,
                               ctypes.c_double, ctypes.c_double,
                               ctypes.c_double, u64, u64, u64]
        self._dpso.restype = i64

    def rows(
        self, family: str, sequences: np.ndarray,
        per_job: tuple[np.ndarray, ...], due_date: float,
    ) -> np.ndarray | None:
        """Objectives of every row, or ``None`` off the fast path."""
        suffix = _INDEX_TYPES.get(sequences.dtype)
        n = per_job[0].shape[0] if per_job[0].ndim == 1 else -1
        if (
            suffix is None
            or sequences.ndim != 2
            or sequences.shape[1] == 0
            or not sequences.flags.c_contiguous
            or any(
                arr.dtype != np.float64 or arr.shape != (n,)
                or not arr.flags.c_contiguous
                for arr in per_job
            )
        ):
            return None
        fn = (self._cdd if family == "cdd" else self._ucddcp)[suffix]
        rows, m = sequences.shape
        out = np.empty(rows, dtype=np.float64)
        status = fn(
            sequences.ctypes.data, rows, m, n,
            *(arr.ctypes.data for arr in per_job),
            float(due_date), out.ctypes.data,
        )
        if status > 0:
            bad = int(sequences.reshape(-1)[status - 1])
            raise IndexError(
                f"index {bad} is out of bounds for axis 0 with size {n}"
            )
        if status < 0:
            raise MemoryError("fitness rows: cannot allocate row scratch")
        return out

    def rng_rows(
        self, rng: DeviceRNG | OffsetRNG, rows: int, kind: str,
        low: int = 0, high: int = 0,
    ) -> np.ndarray:
        """One draw round of ``rng`` for threads ``0..rows-1`` computed in
        C: ``kind`` is ``raw``, ``uniform`` or ``randint`` in
        ``[low, high)``, matching the :class:`DeviceRNG` method."""
        code, dtype = _RNG_KINDS[kind]
        if kind == "randint" and high <= low:
            raise ValueError(f"empty range [{low}, {high})")
        seed, counter, tid0 = _reserve(rng, 1)
        out = np.empty(rows, dtype=dtype)
        self._rng_rows(seed, counter, tid0, rows, code, low,
                       (high - low) & _U64, out.ctypes.data)
        return out

    def perturb(
        self, rng: object, seqs: np.ndarray, cand: np.ndarray,
        positions: np.ndarray, refresh: bool, min_position: int,
    ) -> bool:
        """The perturbation kernel body in C; ``False`` off the fast path
        (nothing drawn or written then)."""
        rows, n = seqs.shape if seqs.ndim == 2 else (-1, -1)
        k = positions.shape[1] if positions.ndim == 2 else -1
        if not (
            _fits(seqs, np.int32, (rows, n)) and _fits(cand, np.int32, (rows, n))
            and _fits(positions, np.int64, (rows, k))
            and 0 <= k <= PERT_CAP and 0 <= min_position
            and (not refresh or k <= n - min_position)
            and _is_device_rng(rng)
        ):
            return False
        rounds = (k if refresh else 0) + max(k - 1, 0)
        seed, counter, tid0 = _reserve(rng, rounds)
        status = self._perturb(
            seqs.ctypes.data, cand.ctypes.data, positions.ctypes.data,
            rows, n, k, bool(refresh), min_position, seed, counter, tid0,
        )
        if status > 0:
            bad = int(positions.reshape(-1)[status - 1])
            raise IndexError(
                f"index {bad} is out of bounds for axis 1 with size {n}"
            )
        if status < 0:
            raise MemoryError("perturbation rows: no row scratch")
        return True

    def dpso_update(
        self, rng: object, x: np.ndarray, pbest: np.ndarray,
        social: np.ndarray, w: float, c1: float, c2: float,
    ) -> bool:
        """The DPSO update kernel body in C, in place on ``x``; ``social``
        is one attractor row per thread or one broadcast row.  ``False``
        off the fast path (nothing drawn or written then)."""
        rows, n = x.shape if x.ndim == 2 else (-1, -1)
        broadcast = social.ndim == 1
        if not (
            n >= 2 and _fits(x, np.int32, (rows, n))
            and _fits(pbest, np.int32, (rows, n))
            and _fits(social, np.int32, (n,) if broadcast else (rows, n))
            and not np.may_share_memory(x, pbest)
            and not np.may_share_memory(x, social)
            and _is_device_rng(rng)
        ):
            return False
        seed, counter, tid0 = _reserve(rng, DPSO_ROUNDS)
        status = self._dpso(
            x.ctypes.data, pbest.ctypes.data, social.ctypes.data,
            0 if broadcast else n, rows, n, float(w), float(c1), float(c2),
            seed, counter, tid0,
        )
        if status > 0:
            entry = status - 1
            for arr in (x, pbest, social):
                if entry < arr.size:
                    break
                entry -= arr.size
            bad = int(arr.reshape(-1)[entry])
            raise IndexError(
                f"index {bad} is out of bounds for axis 1 with size {n}"
            )
        if status < 0:
            raise MemoryError("dpso update rows: no row scratch")
        return True


_U64 = (1 << 64) - 1


def _fits(arr: np.ndarray, dtype: type, shape: tuple[int, ...]) -> bool:
    """Can C read ``arr`` as a dense ``shape`` array of ``dtype``?"""
    return (arr.dtype == dtype and arr.shape == shape
            and arr.flags.c_contiguous)


def _is_device_rng(rng: object) -> bool:
    return type(rng) in (DeviceRNG, OffsetRNG)


def _reserve(rng: DeviceRNG | OffsetRNG, rounds: int) -> tuple[int, int, int]:
    """``(seed, first counter, thread id of row 0)`` for ``rounds`` rounds
    reserved on ``rng``."""
    seed, counter = rng.reserve(rounds)
    return seed, counter, rng.offset if isinstance(rng, OffsetRNG) else 0


# -- build cache -------------------------------------------------------


def cache_key(sources: tuple[bytes, ...],
              flags: tuple[str, ...] = CFLAGS) -> str:
    """sha256 of every source file, the compiler flags and the machine
    type."""
    digest = hashlib.sha256()
    for source in sources:
        digest.update(hashlib.sha256(source).digest())
    for part in (*flags, platform.machine()):
        digest.update(b"\0" + part.encode())
    return digest.hexdigest()[:32]


def cache_dirs() -> tuple[Path, ...]:
    """Where the built library may live, most preferred first."""
    uid = os.geteuid()
    return (
        Path.home() / ".cache" / "repro-duedate" / "native",
        Path(tempfile.gettempdir()) / f"repro-duedate-{uid}" / "native",
    )


def _private(path: Path) -> bool:
    """``path`` is a real directory owned by us that nobody else can
    write."""
    try:
        st = path.lstat()
    except OSError:
        return False
    return (
        stat.S_ISDIR(st.st_mode)
        and st.st_uid == os.geteuid()
        and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    )


def _prepare_dir(path: Path) -> bool:
    """Create ``path`` and its parent with mode 0700 and vet both."""
    try:
        path.parent.parent.mkdir(parents=True, exist_ok=True)
        for level in (path.parent, path):
            level.mkdir(mode=0o700, exist_ok=True)
    except OSError:
        return False
    return _private(path.parent) and _private(path)


def _build(compiler: str, target: Path) -> None:
    """Compile into a private temp dir, then publish atomically."""
    from repro.resilience.atomic import atomic_write_bytes

    with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
        built = Path(tmp) / target.name
        subprocess.run(
            [compiler, *CFLAGS, "-o", str(built), *map(str, SOURCES)],
            check=True, capture_output=True, timeout=BUILD_TIMEOUT_S,
        )
        atomic_write_bytes(target, built.read_bytes())


def load(
    compiler: str | None, dirs: tuple[Path, ...] | None = None,
) -> NativeRows | None:
    """Load the library from the first usable cache directory, building
    it there first when it is missing and ``compiler`` is given; ``None``
    when no directory yields a loadable library."""
    try:
        key = cache_key(tuple(path.read_bytes() for path in SOURCES))
    except OSError:
        return None
    for directory in dirs if dirs is not None else cache_dirs():
        if not _prepare_dir(directory):
            continue
        target = directory / f"native_rows-{key}.so"
        try:
            if not target.exists():
                if compiler is None:
                    continue
                _build(compiler, target)
            st = target.lstat()
            if not stat.S_ISREG(st.st_mode) or st.st_uid != os.geteuid():
                continue
            return NativeRows(target)
        except (OSError, AttributeError, subprocess.SubprocessError):
            continue
    return None


def find_compiler() -> str | None:
    """The C compiler on ``PATH`` (``gcc``, else ``cc``), if any."""
    return shutil.which("gcc") or shutil.which("cc")


@functools.lru_cache(maxsize=None)
def library() -> NativeRows | None:
    """This process's native library (built or loaded once), or ``None``."""
    return load(find_compiler())


# -- dispatch ------------------------------------------------------------

_AUTO = object()
#: Per-context override of :func:`library` (see :func:`use`).
_FORCED: contextvars.ContextVar[object] = contextvars.ContextVar(
    "repro_fitness_rows", default=_AUTO
)


@contextlib.contextmanager
def use(lib: NativeRows | None) -> Iterator[None]:
    """Evaluate with ``lib`` (``None`` = the NumPy fallback) inside the
    block, in this thread/context only.  For tests and comparisons."""
    token = _FORCED.set(lib)
    try:
        yield
    finally:
        _FORCED.reset(token)


def active() -> NativeRows | None:
    """The implementation evaluations use here: forced by :func:`use`,
    else :func:`library`."""
    forced = _FORCED.get()
    return library() if forced is _AUTO else cast("NativeRows | None", forced)


def describe() -> dict[str, str | None]:
    """``fitness_impl`` (``native``/``numpy``) and the library path, for
    operator-facing reports.  Never part of a result document."""
    lib = active()
    return {
        "fitness_impl": "numpy" if lib is None else "native",
        "fitness_library": None if lib is None else str(lib.path),
    }


def describe_kernels() -> dict[str, str]:
    """``native``/``numpy`` per kernel of :data:`KERNELS`: which kernel
    bodies run the compiled rows here.  Operator-facing, like
    :func:`describe`; never part of a result document."""
    impl = "numpy" if active() is None else "native"
    return {name: impl for name in KERNELS}


def perturb_rows(
    rng: object, seqs: np.ndarray, cand: np.ndarray, positions: np.ndarray,
    refresh: bool, min_position: int,
) -> bool:
    """Run the perturbation kernel body natively; ``False`` means "use
    NumPy" (nothing was drawn or written)."""
    lib = active()
    return lib is not None and lib.perturb(
        rng, seqs, cand, positions, refresh, min_position)


def dpso_update_rows(
    rng: object, x: np.ndarray, pbest: np.ndarray, social: np.ndarray,
    w: float, c1: float, c2: float,
) -> bool:
    """Run the DPSO update kernel body natively, in place on ``x``;
    ``False`` means "use NumPy" (nothing was drawn or written)."""
    lib = active()
    return lib is not None and lib.dpso_update(
        rng, x, pbest, social, w, c1, c2)


def cdd_rows(
    sequences: np.ndarray, processing: np.ndarray, alpha: np.ndarray,
    beta: np.ndarray, due_date: float,
) -> np.ndarray | None:
    """Native CDD objective per sequence row, or ``None`` (use NumPy)."""
    lib = active()
    if lib is None:
        return None
    return lib.rows("cdd", sequences, (processing, alpha, beta), due_date)


def ucddcp_rows(
    sequences: np.ndarray, processing: np.ndarray,
    min_processing: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
    gamma: np.ndarray, due_date: float,
) -> np.ndarray | None:
    """Native UCDDCP objective per sequence row, or ``None`` (use NumPy)."""
    lib = active()
    if lib is None:
        return None
    return lib.rows(
        "ucddcp", sequences,
        (processing, min_processing, alpha, beta, gamma), due_date,
    )
