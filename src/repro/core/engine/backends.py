"""Pluggable execution backends for the ensemble metaheuristics.

The parallel drivers express one generation as a pipeline of kernel
launches (perturbation -> fitness -> acceptance -> reduction).  A backend
decides *what runs* those kernels:

* :class:`GpusimBackend` -- the cycle-modeled simulated CUDA device of
  :mod:`repro.gpusim`: every launch and transfer is charged to the modeled
  GT 560M clock, reproducing the paper's runtime and speedup figures
  bit-for-bit.
* :class:`VectorizedBackend` -- the same kernel bodies executed directly on
  host NumPy arrays with the same counter-based RNG, skipping the cost
  model, occupancy calculation, stream bookkeeping and profiler entirely.
  Numerically identical results (same best sequence and objective for the
  same seed), no modeled timings -- the fast path for deviation
  experiments, baselines and tests.

Both backends expose CUDA-shaped primitives (``alloc``/``upload``/
``download``/``launch``/``synchronize``) plus adapter-driven staging of the
instance data, so the shared driver in
:mod:`repro.core.engine.driver` is backend-agnostic.  Where the chains
run -- in process, on worker processes or on remote hosts -- is the
separate placement axis of :mod:`repro.core.engine.placement`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, ClassVar

import numpy as np

from repro.gpusim.device import Device, DeviceSpec
from repro.gpusim.kernel import Kernel, ThreadContext
from repro.gpusim.memory import ConstantMemory
from repro.gpusim.rng import DeviceRNG, OffsetRNG
from repro.kernels.data import DeviceProblemData

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine.adapters import ProblemAdapter
    from repro.gpusim.launch import LaunchConfig
    from repro.gpusim.timing import TimingModel
    from repro.resilience.faults import FaultPlan

__all__ = [
    "ExecutionBackend",
    "GpusimBackend",
    "VectorizedBackend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "create_backend",
]


class ExecutionBackend(ABC):
    """Where the ensemble kernels execute.

    A backend is opened once per solve (staging the instance data per the
    adapter's recipe), then driven through CUDA-shaped primitives.  All
    buffers expose a ``.array`` attribute for device-side initialization
    idioms (e.g. seeding the elitist best with ``inf``), mirroring how the
    kernels themselves touch storage.
    """

    name: ClassVar[str]

    def __init__(self, fault_plan: "FaultPlan | None" = None) -> None:
        #: Optional deterministic fault injection (see
        #: :mod:`repro.resilience.faults`).  The plan's call counters are
        #: cumulative over the plan, not the backend, so reopening the
        #: backend (a retry) does not re-arm an already-fired fault.
        self.fault_plan = fault_plan

    @abstractmethod
    def open(
        self, adapter: "ProblemAdapter", seed: int, device_spec: DeviceSpec,
        timing: "TimingModel | None" = None,
    ) -> None:
        """Initialize RNG/storage and stage the adapter's instance data.

        ``timing`` is the profile's timing-model bundle; only the
        cycle-modeled backend uses it (``None`` = calibrated default).
        """

    @abstractmethod
    def alloc(
        self, shape: tuple[int, ...] | int, dtype: Any, label: str = ""
    ) -> Any:
        """Allocate a zero-initialized buffer with a ``.array`` attribute."""

    @abstractmethod
    def upload(self, buf: Any, host: np.ndarray) -> None:
        """Copy ``host`` into ``buf`` (charged on modeled backends)."""

    @abstractmethod
    def download(self, buf: Any) -> np.ndarray:
        """Copy ``buf`` back to a host-owned array (charged when modeled)."""

    @abstractmethod
    def launch(self, kern: Kernel, config: "LaunchConfig", *args: Any) -> None:
        """Execute one kernel over the launch geometry."""

    @abstractmethod
    def synchronize(self) -> None:
        """Barrier: wait for all queued launches (advances modeled clock)."""

    @abstractmethod
    def fitness_buffers(self) -> tuple[Any, ...]:
        """Staged instance-data buffers in fitness-kernel argument order."""

    def timing_fields(self) -> dict[str, float]:
        """Modeled-timing kwargs for ``SolveResult`` (empty if unmodeled)."""
        return {}


class GpusimBackend(ExecutionBackend):
    """Run on the simulated CUDA device with full cost modeling."""

    name = "gpusim"

    device: Device
    data: DeviceProblemData

    def open(
        self, adapter: "ProblemAdapter", seed: int, device_spec: DeviceSpec,
        timing: "TimingModel | None" = None,
    ) -> None:
        self.device = Device(
            spec=device_spec, seed=seed, fault_plan=self.fault_plan,
            timing=timing,
        )
        self.data = DeviceProblemData(self.device, adapter.instance)

    def alloc(self, shape, dtype, label: str = ""):
        return self.device.malloc(shape, dtype, label)

    def upload(self, buf, host: np.ndarray) -> None:
        self.device.memcpy_htod(buf, host)

    def download(self, buf) -> np.ndarray:
        return self.device.memcpy_dtoh(buf)

    def launch(self, kern: Kernel, config: "LaunchConfig", *args: Any) -> None:
        self.device.launch(kern, config, *args)

    def synchronize(self) -> None:
        self.device.synchronize()

    def fitness_buffers(self):
        return self.data.fitness_buffers()

    def timing_fields(self) -> dict[str, float]:
        profiler = self.device.profiler
        return {
            "modeled_device_time_s": self.device.host_time,
            "modeled_kernel_time_s": profiler.kernel_time(),
            "modeled_memcpy_time_s": profiler.memcpy_time(),
        }


class _HostBuffer:
    """Host-side stand-in for a device buffer (just the backing array)."""

    __slots__ = ("array", "label")

    def __init__(self, array: np.ndarray, label: str = "") -> None:
        self.array = array
        self.label = label


class _HostDeviceShim:
    """Minimal device surface a kernel body may touch on the host path.

    Kernel bodies only reach their device through ``ctx.syncthreads()``
    (recorded, semantically a no-op under vectorized execution) and
    ``ctx.lane_ids`` (needs ``spec.warp_size``); everything costing-related
    lives behind ``Device.launch`` and is deliberately absent here.
    """

    __slots__ = ("spec", "syncthreads_count")

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self.syncthreads_count = 0

    def _note_syncthreads(self) -> None:
        self.syncthreads_count += 1


class VectorizedBackend(ExecutionBackend):
    """Execute the kernel bodies directly on host arrays (no device model).

    The kernels already compute the whole ensemble with vectorized NumPy;
    this backend calls those same bodies with the same counter-based
    :class:`DeviceRNG`, so the search trajectory is bit-for-bit identical
    to :class:`GpusimBackend` -- it only skips the occupancy/roofline cost
    model, stream, transfer charging and profiler, which is where the
    wall-time overhead of the simulated device lives.
    """

    name = "vectorized"

    def __init__(
        self,
        fault_plan: "FaultPlan | None" = None,
        thread_offset: int = 0,
    ) -> None:
        super().__init__(fault_plan=fault_plan)
        #: Global thread id of this backend's local thread 0.  Non-zero only
        #: when the backend runs one shard of a larger ensemble (a sharded
        #: placement's workers); the RNG is then offset so local
        #: threads draw exactly the streams of their global counterparts.
        self.thread_offset = thread_offset

    def open(
        self, adapter: "ProblemAdapter", seed: int, device_spec: DeviceSpec,
        timing: "TimingModel | None" = None,
    ) -> None:
        self.rng: DeviceRNG | OffsetRNG = DeviceRNG(seed)
        if self.thread_offset:
            self.rng = OffsetRNG(self.rng, self.thread_offset)
        self.constant = ConstantMemory()
        self._shim = _HostDeviceShim(device_spec)
        self._staged: dict[str, _HostBuffer] = {}
        self._fitness_names = adapter.fitness_param_names
        for name, values in adapter.staging_arrays():
            self._staged[name] = _HostBuffer(
                np.array(values, dtype=np.float64), name
            )
        for name, value in adapter.constants():
            self.constant.upload(name, value)

    def alloc(self, shape, dtype, label: str = "") -> _HostBuffer:
        if self.fault_plan is not None:
            self.fault_plan.record("malloc")
        return _HostBuffer(np.zeros(shape, dtype=dtype), label)

    def upload(self, buf: _HostBuffer, host: np.ndarray) -> None:
        buf.array[...] = host

    def download(self, buf: _HostBuffer) -> np.ndarray:
        return buf.array.copy()

    def launch(self, kern: Kernel, config: "LaunchConfig", *args: Any) -> None:
        # Kernel launches are 1:1 with the gpusim backend (the driver issues
        # the identical pipeline), so launch-indexed fault plans fire at the
        # same point on both backends -- asserted in the parity tests.
        if self.fault_plan is not None:
            self.fault_plan.record("launch")
        ctx = ThreadContext(
            config=config, constant=self.constant,
            rng=self.rng, device=self._shim,  # type: ignore[arg-type]
        )
        kern.fn(ctx, *args)

    def synchronize(self) -> None:
        pass

    def fitness_buffers(self) -> tuple[_HostBuffer, ...]:
        return tuple(self._staged[name] for name in self._fitness_names)


#: The backends that execute kernels, keyed by ``backend=`` name (the
#: placed names are in :mod:`repro.core.engine.placement`).
BACKENDS: dict[str, type[ExecutionBackend]] = {
    GpusimBackend.name: GpusimBackend,
    VectorizedBackend.name: VectorizedBackend,
}

DEFAULT_BACKEND = GpusimBackend.name


def create_backend(
    backend: str | ExecutionBackend, fault_plan: "FaultPlan | None" = None
) -> ExecutionBackend:
    """Resolve a backend name (or pass through a ready instance).

    ``fault_plan`` attaches deterministic fault injection to a
    newly-created backend; a passed-through instance keeps whatever plan
    it already carries (``fault_plan`` must then be ``None``).
    """
    if isinstance(backend, ExecutionBackend):
        if fault_plan is not None:
            raise ValueError(
                "cannot attach a fault plan to an existing backend instance"
            )
        return backend
    try:
        return BACKENDS[backend](fault_plan=fault_plan)
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {tuple(BACKENDS)}"
        ) from None
