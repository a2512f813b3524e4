"""The compiled fitness rows: the O(n) closed forms in C, one row per chain.

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

__all__ = [
    "CFLAGS",
    "NativeRows",
    "active",
    "cdd_rows",
    "describe",
    "find_compiler",
    "library",
    "load",
    "ucddcp_rows",
    "use",
]

SOURCE = Path(__file__).with_name("fitness_rows.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
#: Seconds one compile may take before the build is abandoned.
BUILD_TIMEOUT_S = 60.0

_INDEX_TYPES = {np.dtype(np.int32): "i32", np.dtype(np.int64): "i64"}


class NativeRows:
    """One loaded copy of the compiled fitness library."""

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


# -- build cache -------------------------------------------------------


def cache_key(source: bytes, flags: tuple[str, ...] = CFLAGS) -> str:
    """sha256 of the source, the compiler flags and the machine type."""
    digest = hashlib.sha256(source)
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
            [compiler, *CFLAGS, "-o", str(built), str(SOURCE)],
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
        key = cache_key(SOURCE.read_bytes())
    except OSError:
        return None
    for directory in dirs if dirs is not None else cache_dirs():
        if not _prepare_dir(directory):
            continue
        target = directory / f"fitness_rows-{key}.so"
        try:
            if not target.exists():
                if compiler is None:
                    continue
                _build(compiler, target)
            st = target.lstat()
            if not stat.S_ISREG(st.st_mode) or st.st_uid != os.geteuid():
                continue
            return NativeRows(target)
        except (OSError, subprocess.SubprocessError):
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
