"""Engine-layer tests: backend parity and modeled-timing stability.

Two invariants anchor the engine refactor:

* **Trajectory parity** -- the vectorized backend runs the very same kernel
  bodies with the very same counter-based RNG stream, so for any instance
  and seed it must return the *identical* best sequence and objective as
  the cycle-modeled gpusim backend, across every SA variant and DPSO
  coupling and both problem families.
* **Timing stability** -- the gpusim backend's modeled durations are part
  of the reproduction (the paper's runtime/speedup tables); they must stay
  byte-identical to the values recorded before the engine refactor.
"""

import numpy as np
import pytest

from repro.core.engine import (
    BACKENDS,
    GpusimBackend,
    VectorizedBackend,
    adapter_for,
    create_backend,
)
from repro.core.parallel_dpso import ParallelDPSOConfig, parallel_dpso
from repro.core.parallel_sa import ParallelSAConfig, parallel_sa
from repro.core.solver import CDDSolver
from repro.instances.biskup import biskup_instance
from repro.instances.ucddcp_gen import ucddcp_instance

SA_FAST = dict(iterations=80, grid_size=2, block_size=32, seed=7)
DPSO_FAST = dict(iterations=60, grid_size=2, block_size=32, seed=7)


@pytest.fixture(scope="module")
def cdd():
    return biskup_instance(20, 0.4, 1)


@pytest.fixture(scope="module")
def ucd():
    return ucddcp_instance(10, 1)


class TestBackendParity:
    @pytest.mark.parametrize("variant", ["async", "sync", "domain"])
    def test_sa_variants_identical_cdd(self, cdd, variant):
        gp = parallel_sa(cdd, ParallelSAConfig(variant=variant, **SA_FAST))
        vec = parallel_sa(
            cdd, ParallelSAConfig(variant=variant, **SA_FAST),
            backend="vectorized",
        )
        assert vec.objective == gp.objective
        assert np.array_equal(vec.best_sequence, gp.best_sequence)

    @pytest.mark.parametrize("variant", ["async", "sync", "domain"])
    def test_sa_variants_identical_ucddcp(self, ucd, variant):
        gp = parallel_sa(ucd, ParallelSAConfig(variant=variant, **SA_FAST))
        vec = parallel_sa(
            ucd, ParallelSAConfig(variant=variant, **SA_FAST),
            backend="vectorized",
        )
        assert vec.objective == gp.objective
        assert np.array_equal(vec.best_sequence, gp.best_sequence)

    @pytest.mark.parametrize("coupling", ["async", "ring", "coupled"])
    def test_dpso_couplings_identical_cdd(self, cdd, coupling):
        gp = parallel_dpso(
            cdd, ParallelDPSOConfig(coupling=coupling, **DPSO_FAST)
        )
        vec = parallel_dpso(
            cdd, ParallelDPSOConfig(coupling=coupling, **DPSO_FAST),
            backend="vectorized",
        )
        assert vec.objective == gp.objective
        assert np.array_equal(vec.best_sequence, gp.best_sequence)

    @pytest.mark.parametrize("coupling", ["async", "ring", "coupled"])
    def test_dpso_couplings_identical_ucddcp(self, ucd, coupling):
        gp = parallel_dpso(
            ucd, ParallelDPSOConfig(coupling=coupling, **DPSO_FAST)
        )
        vec = parallel_dpso(
            ucd, ParallelDPSOConfig(coupling=coupling, **DPSO_FAST),
            backend="vectorized",
        )
        assert vec.objective == gp.objective
        assert np.array_equal(vec.best_sequence, gp.best_sequence)

    def test_vectorized_reports_no_modeled_timings(self, cdd):
        vec = parallel_sa(cdd, ParallelSAConfig(**SA_FAST),
                          backend="vectorized")
        assert vec.modeled_device_time_s is None
        assert vec.modeled_kernel_time_s is None
        assert vec.modeled_memcpy_time_s is None
        assert vec.params["backend"] == "vectorized"

    def test_history_identical(self, cdd):
        cfgs = dict(record_history=True, **SA_FAST)
        gp = parallel_sa(cdd, ParallelSAConfig(**cfgs))
        vec = parallel_sa(cdd, ParallelSAConfig(**cfgs),
                          backend="vectorized")
        assert np.array_equal(vec.history, gp.history)

    def test_solver_facade_backend_kwarg(self, cdd):
        solver = CDDSolver(cdd)
        gp = solver.solve("parallel_sa", backend="gpusim", **SA_FAST)
        vec = solver.solve("parallel_sa", backend="vectorized", **SA_FAST)
        assert vec.objective == gp.objective
        assert gp.params["backend"] == "gpusim"
        assert vec.params["backend"] == "vectorized"


class TestModeledTimingStability:
    """Modeled gpusim timings must match values recorded at the seed."""

    # (device_time_s, kernel_time_s, memcpy_time_s) captured from the
    # pre-engine drivers on the default GT 560M spec.
    SA_GOLDEN = {
        ("cdd", "async"): (0.0074451589247311835, 0.0073642082580645165,
                           8.095066666666667e-05),
        ("cdd", "sync"): (0.00750167505376344, 0.007420724387096773,
                          8.095066666666667e-05),
        ("cdd", "domain"): (0.0074451589247311835, 0.0073642082580645165,
                            8.095066666666667e-05),
        ("ucddcp", "async"): (0.005755292903225797, 0.005654788903225796,
                              0.00010050400000000001),
    }
    DPSO_GOLDEN = {
        "cdd": (0.017655583010752672, 0.017574632344086006,
                8.095066666666667e-05),
        "ucddcp": (0.010370878279569916, 0.010270374279569915,
                   0.00010050400000000001),
    }
    SA_OBJECTIVES = {
        ("cdd", "async"): 2637.0,
        ("cdd", "sync"): 2521.0,
        ("cdd", "domain"): 2655.0,
        ("ucddcp", "async"): 852.0,
    }
    DPSO_OBJECTIVES = {
        ("cdd", "async"): 3350.0,
        ("cdd", "ring"): 2356.0,
        ("cdd", "coupled"): 2269.0,
        ("ucddcp", "async"): 875.0,
    }

    @pytest.mark.parametrize("kind,variant", sorted(SA_GOLDEN))
    def test_sa_timings_unchanged(self, cdd, ucd, kind, variant):
        inst = cdd if kind == "cdd" else ucd
        r = parallel_sa(inst, ParallelSAConfig(variant=variant, **SA_FAST))
        dev, kern, mem = self.SA_GOLDEN[(kind, variant)]
        assert r.modeled_device_time_s == dev
        assert r.modeled_kernel_time_s == kern
        assert r.modeled_memcpy_time_s == mem
        assert r.objective == self.SA_OBJECTIVES[(kind, variant)]

    @pytest.mark.parametrize("kind,coupling", sorted(DPSO_OBJECTIVES))
    def test_dpso_timings_unchanged(self, cdd, ucd, kind, coupling):
        inst = cdd if kind == "cdd" else ucd
        r = parallel_dpso(
            inst, ParallelDPSOConfig(coupling=coupling, **DPSO_FAST)
        )
        # The update/fitness pipeline cost does not depend on the coupling,
        # so all couplings share one timing row per problem family.
        dev, kern, mem = self.DPSO_GOLDEN[kind]
        assert r.modeled_device_time_s == dev
        assert r.modeled_kernel_time_s == kern
        assert r.modeled_memcpy_time_s == mem
        assert r.objective == self.DPSO_OBJECTIVES[(kind, coupling)]


class TestBackendRegistry:
    def test_registry_contents(self):
        assert set(BACKENDS) == {"gpusim", "vectorized"}

    def test_create_by_name(self):
        assert isinstance(create_backend("gpusim"), GpusimBackend)
        assert isinstance(create_backend("vectorized"), VectorizedBackend)

    def test_create_passthrough_instance(self):
        backend = VectorizedBackend()
        assert create_backend(backend) is backend

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("cuda")
        with pytest.raises(ValueError, match="gpusim"):
            parallel_sa(
                biskup_instance(5, 0.4, 1),
                ParallelSAConfig(iterations=2, grid_size=1, block_size=4),
                backend="fpga",
            )

    def test_unknown_solver_method_lists_registered(self):
        solver = CDDSolver(biskup_instance(5, 0.4, 1))
        with pytest.raises(ValueError, match="parallel_dpso"):
            solver.solve("quantum_annealing")


class TestAdapters:
    def test_adapter_kinds(self, cdd, ucd):
        assert adapter_for(cdd).kind == "cdd"
        assert adapter_for(ucd).kind == "ucddcp"

    def test_adapter_rejects_foreign_types(self):
        with pytest.raises(TypeError, match="unsupported problem instance"):
            adapter_for(object())

    def test_scalar_matches_batched(self, cdd, ucd):
        rng = np.random.default_rng(3)
        for inst in (cdd, ucd):
            adapter = adapter_for(inst)
            seqs = np.argsort(rng.random((8, inst.n)), axis=1)
            batched = adapter.batched_objective(seqs)
            scalars = [adapter.objective(s) for s in seqs]
            np.testing.assert_allclose(batched, scalars)

    def test_pure_python_matches_numpy(self, cdd, ucd):
        rng = np.random.default_rng(4)
        for inst in (cdd, ucd):
            adapter = adapter_for(inst)
            py_eval = adapter.pure_python_evaluator()
            for _ in range(4):
                seq = rng.permutation(inst.n)
                assert py_eval(seq) == pytest.approx(adapter.objective(seq))

    def test_staging_matches_fitness_param_names(self, cdd, ucd):
        for inst in (cdd, ucd):
            adapter = adapter_for(inst)
            staged = {name for name, _ in adapter.staging_arrays()}
            assert staged == set(adapter.fitness_param_names)
