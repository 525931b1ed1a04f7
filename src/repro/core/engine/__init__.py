"""The unified solver engine: problem adapters x execution backends.

The two-layered approach of the paper (metaheuristic over sequences, O(n)
inner optimizer per candidate) is implemented once here and parameterized
along two orthogonal axes:

* **What problem** -- a :class:`~repro.core.engine.adapters.ProblemAdapter`
  (CDD or UCDDCP) owning objectives, schedule reconstruction and device
  staging; :func:`~repro.core.engine.adapters.adapter_for` is the single
  type-dispatch site in the codebase.
* **Where it runs** -- the ``backend=`` name.  Two are kernel backends
  (:class:`~repro.core.engine.backends.ExecutionBackend`) that run the
  whole ensemble in-process: the cycle-modeled simulated CUDA device
  (``"gpusim"``) and direct vectorized host execution of the same kernel
  bodies (``"vectorized"``).  Two are shard placements that run slices of
  the ensemble on the vectorized path elsewhere: local worker processes
  (``"multiprocess"``) or remote host agents (``"distributed"``), both
  through :mod:`repro.pool` -- bit-identical trajectories all four ways.

:mod:`~repro.core.engine.driver` hosts the one host program
(:func:`~repro.core.engine.driver.run_ensemble`) and generation loop the
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
    MultiprocessBackend,
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
    "MultiprocessBackend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "create_backend",
    "EnsembleStrategy",
    "run_ensemble",
    "assemble_result",
]
