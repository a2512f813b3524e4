"""The compiled fitness rows against the pinned-order NumPy reference.

:mod:`repro.seqopt.native` must be bit-identical to the NumPy closed form
of :mod:`repro.seqopt.batched` -- objectives are compared with
``array_equal``, never a tolerance -- on integer and float instances of
both families, through whole solves on both execution backends, and on
malformed input, where both must raise the same error.  Each comparison
forces one implementation, then the other, with :func:`native.use`.

The build cache is exercised separately: concurrent builds, a missing
compiler, and cache directories that are unwritable, foreign-owned,
group/world-writable or symlinked all end in a loadable library or a
clean NumPy fallback.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.solver import CDDSolver, UCDDCPSolver
from repro.instances.biskup import biskup_instance
from repro.instances.ucddcp_gen import ucddcp_instance
from repro.kernels.fitness import (
    make_cdd_fitness_kernel,
    make_ucddcp_fitness_kernel,
)
from repro.problems.cdd import CDDInstance
from repro.problems.ucddcp import UCDDCPInstance
from repro.seqopt import native
from repro.seqopt.batched import (
    batched_cdd_objective,
    batched_ucddcp_from_gathered,
    batched_ucddcp_objective,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def lib():
    loaded = native.library()
    if loaded is None:
        # test_native_loads_when_a_compiler_is_present fails in this case
        # when a compiler exists; without one there is nothing to compare.
        pytest.skip("no C compiler: the native kernel cannot be built")
    return loaded


def both(lib, fn, *args):
    """``fn(*args)`` under the native kernel, then under NumPy."""
    with native.use(lib):
        fast = fn(*args)
    with native.use(None):
        ref = fn(*args)
    return fast, ref


def objective(instance, sequences):
    if isinstance(instance, UCDDCPInstance):
        return batched_ucddcp_objective(instance, sequences)
    return batched_cdd_objective(instance, sequences)


def random_rows(n, rows=64, seed=0):
    rng = np.random.default_rng(seed)
    return np.argsort(rng.random((rows, n)), axis=1)


# ----------------------------------------------------------------------
# Objective matrix
# ----------------------------------------------------------------------
def _cdd(p, a, b, d):
    return CDDInstance(np.asarray(p, float), np.asarray(a, float),
                       np.asarray(b, float), float(d))


def _ucddcp(p, m, a, b, g, d):
    return UCDDCPInstance(*(np.asarray(x, float) for x in (p, m, a, b, g)),
                          float(d))


EDGE_CASES = {
    "cdd-n1": _cdd([7], [3], [5], 4),
    "cdd-tau0": _cdd([4, 6, 9], [2, 1, 3], [5, 4, 2], 0),
    "cdd-tau-n": _cdd([4, 6, 9], [2, 1, 3], [5, 4, 2], 19),
    "cdd-zero-penalties": _cdd([4, 6, 9, 2], [0] * 4, [0] * 4, 8),
    "cdd-restrictive-h0.2": biskup_instance(n=50, h=0.2, k=3),
    "ucddcp-n1": _ucddcp([7], [2], [3], [5], [1], 7),
    "ucddcp-tight-d": _ucddcp([4, 6, 9], [1, 2, 3], [2, 1, 3], [5, 4, 2],
                              [1, 1, 1], 19),
    "ucddcp-zero-penalties": _ucddcp([4, 6, 9], [1, 2, 3], [0] * 3,
                                     [0] * 3, [0] * 3, 25),
}


class TestObjectiveParity:
    @pytest.mark.parametrize("n", [10, 50, 200])
    @pytest.mark.parametrize("h", [0.2, 0.4, 0.6, 0.8])
    def test_biskup_cdd(self, lib, n, h):
        inst = biskup_instance(n=n, h=h, k=2)
        fast, ref = both(lib, objective, inst, random_rows(n))
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize("n", [10, 50, 200])
    def test_integer_ucddcp(self, lib, n):
        inst = ucddcp_instance(n, k=2)
        fast, ref = both(lib, objective, inst, random_rows(n))
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_cases(self, lib, name):
        inst = EDGE_CASES[name]
        seqs = random_rows(inst.n, rows=16)
        fast, ref = both(lib, objective, inst, seqs)
        assert np.array_equal(fast, ref)

    @given(data=st.data())
    def test_float_cdd(self, lib, data):
        n = data.draw(st.integers(1, 40))
        floats = st.floats(0.0, 20.0, allow_nan=False)
        p = data.draw(st.lists(st.floats(0.1, 50.0), min_size=n, max_size=n))
        a = data.draw(st.lists(floats, min_size=n, max_size=n))
        b = data.draw(st.lists(floats, min_size=n, max_size=n))
        h = data.draw(st.floats(0.0, 1.5))
        inst = _cdd(p, a, b, h * sum(p))
        seqs = random_rows(n, rows=32, seed=data.draw(st.integers(0, 99)))
        fast, ref = both(lib, objective, inst, seqs)
        assert np.array_equal(fast, ref)

    @given(data=st.data())
    def test_float_ucddcp(self, lib, data):
        n = data.draw(st.integers(1, 40))
        floats = st.floats(0.0, 20.0, allow_nan=False)
        p = np.array(data.draw(
            st.lists(st.floats(0.1, 50.0), min_size=n, max_size=n)))
        frac = np.array(data.draw(
            st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
        a, b, g = (data.draw(st.lists(floats, min_size=n, max_size=n))
                   for _ in range(3))
        inst = _ucddcp(p, np.maximum(p * frac, 1e-3), a, b, g,
                       p.sum() + data.draw(st.floats(0.0, 30.0)))
        seqs = random_rows(n, rows=32, seed=data.draw(st.integers(0, 99)))
        fast, ref = both(lib, objective, inst, seqs)
        assert np.array_equal(fast, ref)

    @given(data=st.data())
    def test_ucddcp_rows_with_restrictive_due_dates(self, lib, data):
        # Instances reject d < sum(P); the kernel-level rows still take
        # any d, so cover tau < n, the keep rule and k_max there too.
        n = data.draw(st.integers(1, 30))
        rng = np.random.default_rng(data.draw(st.integers(0, 999)))
        p = rng.uniform(0.1, 50.0, n)
        m = np.maximum(p * rng.uniform(0.1, 1.0, n), 1e-3)
        a, b, g = (rng.uniform(0.0, 20.0, n) for _ in range(3))
        d = data.draw(st.floats(0.0, 1.2)) * p.sum()
        seqs = random_rows(n, rows=32, seed=int(rng.integers(99)))
        with native.use(lib):
            fast = native.ucddcp_rows(seqs, p, m, a, b, g, d)
        ref = batched_ucddcp_from_gathered(
            p[seqs], m[seqs], a[seqs], b[seqs], g[seqs], d)
        assert np.array_equal(fast, ref)

    def test_fitness_kernel_on_the_simulated_device(self, lib):
        from repro.gpusim.device import Device
        from repro.gpusim.launch import linear_config
        from repro.kernels.data import DeviceProblemData

        inst = biskup_instance(n=40, h=0.4, k=1)

        def launch():
            device = Device(seed=0)
            data = DeviceProblemData(device, inst)
            seqs = device.malloc((64, inst.n), np.int32, "sequences")
            device.memcpy_htod(seqs, random_rows(inst.n).astype(np.int32))
            out = device.malloc(64, np.float64, "fitness")
            device.launch(make_cdd_fitness_kernel(), linear_config(64, 32),
                          seqs, data.p, data.a, data.b, out)
            return device.memcpy_dtoh(out), device.profiler.total_time()

        (fast, fast_t), (ref, ref_t) = both(lib, launch)
        assert np.array_equal(fast, ref)
        assert fast_t == ref_t


# ----------------------------------------------------------------------
# Malformed input: the same error, or the same answer
# ----------------------------------------------------------------------
def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (IndexError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(lib, fn, *args):
    fast, ref = both(lib, outcome, fn, *args)
    assert fast[0] == ref[0]
    if fast[0] == "ok":
        assert np.array_equal(fast[1], ref[1])
    else:
        assert fast[1] == ref[1]


def run_kernel(kern, instance_arrays, seqs, due_date):
    """The fitness kernel body on host arrays, with a stub thread
    context (the body is what both backends execute)."""
    rows = len(seqs)
    ctx = SimpleNamespace(syncthreads=lambda: None, total_threads=rows,
                          constant={"due_date": due_date})
    out = np.zeros(rows)
    kern.fn(ctx, SimpleNamespace(array=seqs),
            *(SimpleNamespace(array=x) for x in instance_arrays),
            SimpleNamespace(array=out))
    return out


#: int32/int64 C-contiguous matrices take the native path; the rest fall
#: back to NumPy.  Both kinds are drawn often.
MALFORMED_DTYPES = [np.int32, np.int32, np.int64, np.int64, np.int8,
                    np.int16, np.uint8, np.uint32, np.uint64, np.float64,
                    np.bool_]
LAYOUTS = ["c", "c", "c", "fortran", "strided", "1d", "3d"]


@st.composite
def malformed_matrices(draw, n):
    rows = draw(st.integers(0, 6))
    width = draw(st.sampled_from([n, n, n, 0, 1, n + 1, 2 * n]))
    values = draw(st.lists(st.integers(-n, n - 1),
                           min_size=rows * width, max_size=rows * width))
    seqs = np.array(values, dtype=np.int64).reshape(rows, width)
    if seqs.size and draw(st.booleans()):
        # One entry out of range, anywhere in the matrix.
        at = draw(st.integers(0, seqs.size - 1))
        seqs.flat[at] = draw(st.sampled_from([n, 2 * n, -n - 1, -(2**40)]))
    dtype = draw(st.sampled_from(MALFORMED_DTYPES))
    if np.issubdtype(dtype, np.unsignedinteger):
        seqs = np.abs(seqs)
    seqs = seqs.astype(dtype)
    layout = draw(st.sampled_from(LAYOUTS))
    if layout == "fortran":
        seqs = np.asfortranarray(seqs)
    elif layout == "strided":
        seqs = np.repeat(seqs, 2, axis=1)[:, ::2]
    elif layout == "1d":
        seqs = seqs.reshape(-1)
    elif layout == "3d":
        seqs = seqs[None]
    return seqs


class TestMalformedInput:
    CDD = biskup_instance(n=6, h=0.4, k=1)
    UCDDCP = ucddcp_instance(6, k=1)

    @given(seqs=malformed_matrices(6))
    def test_objective_entry_points(self, lib, seqs):
        assert_same_outcome(lib, batched_cdd_objective, self.CDD, seqs)
        assert_same_outcome(lib, batched_ucddcp_objective, self.UCDDCP, seqs)

    @given(seqs=malformed_matrices(6))
    def test_fitness_kernels(self, lib, seqs):
        c, u = self.CDD, self.UCDDCP
        assert_same_outcome(
            lib, run_kernel, make_cdd_fitness_kernel(),
            (c.processing, c.alpha, c.beta), seqs, c.due_date)
        assert_same_outcome(
            lib, run_kernel, make_ucddcp_fitness_kernel(),
            (u.processing, u.min_processing, u.alpha, u.beta, u.gamma),
            seqs, u.due_date)

    def test_out_of_range_index_reports_numpy_message(self, lib):
        seqs = np.array([[0, 1, 2, 3, 4, 5], [0, 1, 9, 3, -7, 5]])
        with native.use(lib), pytest.raises(
            IndexError, match="index 9 is out of bounds for axis 0 with size 6"
        ):
            batched_cdd_objective(self.CDD, seqs)

    def test_negative_indices_wrap_like_numpy(self, lib):
        seqs = np.array([[-1, -2, -3, -4, -5, -6]])
        fast, ref = both(lib, objective, self.CDD, seqs)
        assert np.array_equal(fast, ref)


# ----------------------------------------------------------------------
# End to end: whole solves are identical with native on and off
# ----------------------------------------------------------------------
def _comparable(result):
    doc = result.to_dict()
    doc.pop("wall_time_s")
    return doc


class TestSolveParity:
    FAST = dict(iterations=40, grid_size=2, block_size=32, seed=11)

    @pytest.mark.parametrize("backend", ["gpusim", "vectorized"])
    @pytest.mark.parametrize("method", ["parallel_sa", "parallel_dpso"])
    @pytest.mark.parametrize("family", ["cdd", "ucddcp"])
    def test_solves_identical(self, lib, backend, method, family):
        if family == "cdd":
            solver = CDDSolver(biskup_instance(n=30, h=0.4, k=1))
        else:
            solver = UCDDCPSolver(ucddcp_instance(20, k=1))

        def solve():
            return solver.solve(method, backend=backend, **self.FAST)

        fast, ref = both(lib, solve)
        assert _comparable(fast) == _comparable(ref)
        if backend == "gpusim":
            assert fast.modeled_device_time_s == ref.modeled_device_time_s
        assert "fitness_impl" not in fast.params


# ----------------------------------------------------------------------
# Build cache
# ----------------------------------------------------------------------
def test_native_loads_when_a_compiler_is_present():
    """Fails (never skips) when a compiler exists but the kernel did not
    load, so a CI run cannot quietly measure the NumPy fallback."""
    info = native.describe()
    if native.find_compiler() is not None:
        assert native.library() is not None, (
            "a C compiler is on PATH but the native fitness kernel did "
            "not build or load"
        )
        assert info["fitness_impl"] == "native"
        assert Path(info["fitness_library"]).is_file()
    else:
        assert info["fitness_impl"] in ("native", "numpy")


class TestBuildCache:
    def _needs_compiler(self):
        compiler = native.find_compiler()
        if compiler is None:
            pytest.skip("no C compiler")
        return compiler

    def test_fresh_build_lands_in_a_private_dir(self, tmp_path):
        compiler = self._needs_compiler()
        cache = tmp_path / "repro" / "native"
        built = native.load(compiler, dirs=(cache,))
        assert built is not None and built.path.parent == cache
        assert cache.stat().st_mode & 0o777 == 0o700
        assert cache.parent.stat().st_mode & 0o777 == 0o700
        assert [p.name for p in cache.iterdir()] == [built.path.name]
        # A second load reuses the published file, even with no compiler.
        again = native.load(None, dirs=(cache,))
        assert again is not None and again.path == built.path

    def test_missing_compiler_falls_back(self, tmp_path):
        assert native.load(None, dirs=(tmp_path / "native",)) is None
        missing = str(tmp_path / "no-such-cc")
        assert native.load(missing, dirs=(tmp_path / "native",)) is None
        assert native.load("false", dirs=(tmp_path / "n2",)) is None

    def test_unwritable_cache_falls_back(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert native.load("cc", dirs=(blocker / "native",)) is None

    def test_foreign_owned_cache_is_refused(self, tmp_path, monkeypatch):
        cache = tmp_path / "native"
        cache.mkdir(mode=0o700)
        uid = os.geteuid()
        monkeypatch.setattr(native.os, "geteuid", lambda: uid + 1)
        assert native.load("cc", dirs=(cache,)) is None
        assert list(cache.iterdir()) == []

    @pytest.mark.parametrize("mode", [0o770, 0o707])
    def test_shared_writable_cache_is_refused(self, tmp_path, mode):
        cache = tmp_path / "native"
        cache.mkdir()
        cache.chmod(mode)
        assert native.load("cc", dirs=(cache,)) is None
        assert list(cache.iterdir()) == []

    def test_symlinked_cache_is_refused(self, tmp_path):
        real = tmp_path / "real"
        real.mkdir(mode=0o700)
        link = tmp_path / "native"
        link.symlink_to(real)
        assert native.load("cc", dirs=(link,)) is None
        assert list(real.iterdir()) == []

    def test_falls_through_to_the_next_dir(self, tmp_path):
        compiler = self._needs_compiler()
        blocker = tmp_path / "file"
        blocker.write_text("x")
        good = tmp_path / "ok" / "native"
        built = native.load(compiler, dirs=(blocker / "native", good))
        assert built is not None and built.path.parent == good

    def test_two_processes_building_at_once(self, tmp_path):
        compiler = self._needs_compiler()
        cache = tmp_path / "race" / "native"
        script = textwrap.dedent(f"""
            import numpy as np
            from pathlib import Path
            from repro.instances.biskup import biskup_instance
            from repro.seqopt import native
            from repro.seqopt.batched import batched_cdd_objective
            lib = native.load({compiler!r}, dirs=(Path({str(cache)!r}),))
            assert lib is not None
            inst = biskup_instance(n=30, h=0.4, k=1)
            rng = np.random.default_rng(3)
            seqs = np.argsort(rng.random((64, 30)), axis=1)
            with native.use(lib):
                print(batched_cdd_objective(inst, seqs).tobytes().hex())
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        procs = [
            subprocess.Popen([sys.executable, "-c", script], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
            for _ in range(2)
        ]
        outputs = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            outputs.append(out.strip())
        inst = biskup_instance(n=30, h=0.4, k=1)
        seqs = np.argsort(np.random.default_rng(3).random((64, 30)), axis=1)
        with native.use(None):
            ref = batched_cdd_objective(inst, seqs).tobytes().hex()
        assert outputs == [ref, ref]
        assert len(list(cache.glob("*.so"))) == 1
        assert not [p for p in cache.iterdir() if p.suffix != ".so"]


# ----------------------------------------------------------------------
# Observability and packaging
# ----------------------------------------------------------------------
class TestReporting:
    def test_describe_follows_the_forced_implementation(self, lib):
        with native.use(None):
            assert native.describe() == {
                "fitness_impl": "numpy", "fitness_library": None}
        with native.use(lib):
            assert native.describe() == {
                "fitness_impl": "native", "fitness_library": str(lib.path)}

    def test_metrics_report_the_implementation(self):
        from repro.service.admission import AdmissionPolicy
        from repro.service.api import SchedulingService

        svc = SchedulingService(policy=AdmissionPolicy(), workers=1)
        svc.start()
        try:
            code, doc, _ = svc.metrics_doc()
        finally:
            svc.stop()
        assert code == 200
        assert doc["fitness"] == native.describe()

    def test_profile_prints_the_implementation(self, capsys):
        from repro.cli import main

        assert main(["profile", "-n", "12", "-i", "5"]) == 0
        out = capsys.readouterr().out
        impl = native.describe()
        assert f"fitness:  {impl['fitness_impl']}" in out

    def test_source_ships_as_package_data(self):
        import tomllib

        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
        assert "seqopt/fitness_rows.c" in data["repro"]
        assert native.SOURCE.is_file()
