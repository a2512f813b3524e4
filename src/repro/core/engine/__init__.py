"""The unified solver engine: problem adapters x backends x placements.

The two-layered approach of the paper (metaheuristic over sequences, O(n)
inner optimizer per candidate) is implemented once here and parameterized
along three orthogonal axes:

* **What problem** -- a :class:`~repro.core.engine.adapters.ProblemAdapter`
  (CDD or UCDDCP) owning objectives, schedule reconstruction and device
  staging; :func:`~repro.core.engine.adapters.adapter_for` is the single
  type-dispatch site in the codebase.
* **What runs the kernels** -- an
  :class:`~repro.core.engine.backends.ExecutionBackend`: the cycle-modeled
  simulated CUDA device (``"gpusim"``) or direct vectorized host execution
  of the same kernel bodies (``"vectorized"``).
* **Where the chains run** -- a :class:`~repro.core.engine.placement.
  Placement`: in process, or sharded over worker processes or remote host
  agents (:mod:`repro.pool`) -- bit-identical trajectories every way.

:mod:`~repro.core.engine.driver` hosts the shared generation loop the
parallel drivers plug strategy objects into, and
:mod:`~repro.core.engine.config` the validation shared by the six solver
configuration dataclasses.
"""

from repro.core.engine.adapters import (
    CDDAdapter,
    ProblemAdapter,
    UCDDCPAdapter,
    adapter_for,
)
from repro.core.engine.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    ExecutionBackend,
    GpusimBackend,
    VectorizedBackend,
    create_backend,
)
from repro.core.engine.driver import (
    EnsembleStrategy,
    assemble_result,
    run_ensemble,
)

__all__ = [
    "ProblemAdapter",
    "CDDAdapter",
    "UCDDCPAdapter",
    "adapter_for",
    "ExecutionBackend",
    "GpusimBackend",
    "VectorizedBackend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "create_backend",
    "EnsembleStrategy",
    "run_ensemble",
    "assemble_result",
]
