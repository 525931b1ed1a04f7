"""High-level solver façade over the two-layered approach.

Downstream users interact with these classes: pick a problem instance,
pick a method, get a fully reconstructed optimal-completion-time schedule.
Methods are looked up in a registry (:data:`_BaseSolver._METHODS`), so the
set of advertised methods cannot drift from the actual dispatch; parallel
methods additionally accept ``backend="gpusim"|"vectorized"|"multiprocess"|
"distributed"`` (see :mod:`repro.core.engine.backends`) plus the placement
knobs of the last two (``workers=``, ``hosts=``, ...).

>>> from repro import CDDSolver, biskup_instance
>>> inst = biskup_instance(n=20, h=0.4, k=1)
>>> result = CDDSolver(inst).solve("parallel_sa", iterations=200)
>>> result.objective <= CDDSolver(inst).solve("serial_sa").objective * 1.5
True
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.dpso import DPSOConfig, dpso_serial
from repro.core.engine.adapters import adapter_for
from repro.core.engine.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    DistributedBackend,
    MultiprocessBackend,
)
from repro.core.evolution import EvolutionStrategyConfig, evolution_strategy
from repro.core.parallel_dpso import ParallelDPSOConfig, parallel_dpso
from repro.core.parallel_sa import ParallelSAConfig, parallel_sa
from repro.core.results import SolveResult
from repro.core.sa import SerialSAConfig, sa_serial
from repro.core.threshold import ThresholdAcceptingConfig, threshold_accepting
from repro.problems.cdd import CDDInstance
from repro.problems.schedule import Schedule
from repro.problems.ucddcp import UCDDCPInstance

__all__ = [
    "CDDSolver",
    "UCDDCPSolver",
    "solver_methods",
    "solver_for",
    "solve_many",
    "method_config_cls",
    "method_accepts_backend",
]


@dataclass(frozen=True)
class _MethodSpec:
    """One registered solve method: how to turn kwargs into a result."""

    run: Callable[["_BaseSolver"], SolveResult]
    #: Whether the method understands the ``backend=`` execution-backend
    #: keyword (only the engine-driven parallel methods do; for
    #: ``serial_sa`` the name ``backend`` is an evaluator config field).
    accepts_backend: bool = False
    #: The configuration dataclass the method's kwargs construct
    #: (``None`` for ``exact``, which takes no configuration).  Exposed
    #: via :func:`method_config_cls` so request validators (the service's
    #: admission layer) can run the config mixins' checks eagerly —
    #: before a job is queued — instead of failing mid-solve.
    config_cls: type | None = None


#: Façade keywords that configure a shard placement instead of the solve,
#: by the placement taking them: its record's fields, less the start
#: method (set it on a record built by hand).
_PLACEMENT_KNOBS = {
    cls.name: tuple(
        field.name for field in dataclasses.fields(cls)
        if field.name != "context"
    )
    for cls in (MultiprocessBackend, DistributedBackend)
}
_KNOB_NAMES = frozenset().union(*_PLACEMENT_KNOBS.values())

#: Why ``backend='distributed'`` refuses a local-pool knob.
_NOT_DISTRIBUTED = {
    "workers": "workers= is fixed by the host topology for "
               "backend='distributed'; set per-host counts in hosts=",
    "task_timeout": "task_timeout is enforced agent-side for "
                    "backend='distributed'; start agents with "
                    "`repro agent --task-timeout`",
    "pool_faults": "pool_faults applies to local worker pools; use "
                   "net_faults for backend='distributed'",
}


def _placement(
    backend: Any, knobs: dict[str, Any]
) -> "MultiprocessBackend | DistributedBackend":
    """The placement record ``backend`` names, built from façade knobs."""
    if not isinstance(backend, str):
        raise ValueError(
            f"pass {next(iter(knobs))}= via the backend instance, not both"
        )
    if backend == "distributed":
        for knob, reason in _NOT_DISTRIBUTED.items():
            if knob in knobs:
                raise ValueError(reason)
    for knob in knobs:
        if knob not in _PLACEMENT_KNOBS.get(backend, ()):
            owner = (
                "multiprocess" if knob in _PLACEMENT_KNOBS["multiprocess"]
                else "distributed"
            )
            raise ValueError(
                f"{knob}= requires backend={owner!r} (got backend={backend!r})"
            )
    return BACKENDS[backend](**knobs)


def _engine_method(config_cls: type, driver: Callable[..., SolveResult]):
    """A parallel method: config + engine driver with backend selection."""

    def run(solver: "_BaseSolver", **params: Any) -> SolveResult:
        backend = params.pop("backend", DEFAULT_BACKEND)
        knobs = {
            name: params.pop(name) for name in list(params)
            if name in _KNOB_NAMES
        }
        if knobs:
            backend = _placement(backend, knobs)
        return driver(solver.instance, config_cls(**params), backend=backend)

    return _MethodSpec(run=run, accepts_backend=True, config_cls=config_cls)


def _serial_method(config_cls: type, driver: Callable[..., SolveResult]):
    """A serial baseline: config + driver, host execution only."""

    def run(solver: "_BaseSolver", **params: Any) -> SolveResult:
        return driver(solver.instance, config_cls(**params))

    return _MethodSpec(run=run, config_cls=config_cls)


def _exact_method() -> _MethodSpec:
    def run(solver: "_BaseSolver", **params: Any) -> SolveResult:
        return solver._solve_exact(**params)

    return _MethodSpec(run=run)


class _BaseSolver:
    """Shared method dispatch for both problem façades."""

    _METHODS: dict[str, _MethodSpec] = {
        "parallel_sa": _engine_method(ParallelSAConfig, parallel_sa),
        "parallel_dpso": _engine_method(ParallelDPSOConfig, parallel_dpso),
        "serial_sa": _serial_method(SerialSAConfig, sa_serial),
        "serial_dpso": _serial_method(DPSOConfig, dpso_serial),
        "serial_ta": _serial_method(
            ThresholdAcceptingConfig, threshold_accepting
        ),
        "serial_es": _serial_method(
            EvolutionStrategyConfig, evolution_strategy
        ),
        "exact": _exact_method(),
    }

    def __init__(self, instance: CDDInstance | UCDDCPInstance) -> None:
        self.instance = instance

    def solve(self, method: str = "parallel_sa", **params: Any) -> SolveResult:
        """Run ``method`` with keyword configuration overrides.

        ``method`` is one of ``parallel_sa`` (default; the paper's main
        algorithm), ``parallel_dpso``, ``serial_sa``, ``serial_dpso``,
        ``serial_ta`` (Threshold Accepting), ``serial_es``
        ((mu+lambda) Evolutionary Strategy -- the [18]-style baselines) or
        ``exact`` (exhaustive / partition DP, small instances only).  The
        parallel methods also take ``backend="gpusim"|"vectorized"|
        "multiprocess"|"distributed"``; the last two take placement knobs
        (``workers=``/``task_timeout=``/... and ``hosts=``/
        ``heartbeat_timeout_s=``/...).
        """
        spec = self._METHODS.get(method)
        if spec is None:
            raise ValueError(
                f"unknown method {method!r}; choose from "
                f"{tuple(self._METHODS)}"
            )
        return spec.run(self, **params)

    def _exact_schedule(self, **params: Any) -> Schedule:
        return adapter_for(self.instance).exact_schedule()

    def _solve_exact(self, **params: Any) -> SolveResult:
        start = time.perf_counter()
        schedule = self._exact_schedule(**params)
        wall = time.perf_counter() - start
        return SolveResult(
            schedule=schedule,
            objective=schedule.objective,
            best_sequence=np.asarray(schedule.sequence),
            evaluations=0,
            wall_time_s=wall,
            params={"algorithm": "exact", **params},
        )


def solver_methods() -> tuple[str, ...]:
    """Names of all registered solve methods (CLI/choices source)."""
    return tuple(_BaseSolver._METHODS)


def _method_spec(method: str) -> _MethodSpec:
    spec = _BaseSolver._METHODS.get(method)
    if spec is None:
        raise ValueError(
            f"unknown method {method!r}; choose from "
            f"{tuple(_BaseSolver._METHODS)}"
        )
    return spec


def method_config_cls(method: str) -> type | None:
    """The config dataclass ``method``'s kwargs construct (``None``: exact).

    Lets request validators construct the config eagerly — running the
    shared config-validation mixins — so a malformed configuration is a
    submission-time error, not a queued job that fails mid-solve.
    """
    return _method_spec(method).config_cls


def method_accepts_backend(method: str) -> bool:
    """Whether ``method`` takes the ``backend=`` execution-backend kwarg."""
    return _method_spec(method).accepts_backend


class CDDSolver(_BaseSolver):
    """Solver façade for the Common Due-Date problem."""

    def __init__(self, instance: CDDInstance) -> None:
        if not isinstance(instance, CDDInstance):
            raise TypeError("CDDSolver requires a CDDInstance")
        super().__init__(instance)


class UCDDCPSolver(_BaseSolver):
    """Solver façade for the unrestricted controllable-processing problem."""

    def __init__(self, instance: UCDDCPInstance) -> None:
        if not isinstance(instance, UCDDCPInstance):
            raise TypeError("UCDDCPSolver requires a UCDDCPInstance")
        super().__init__(instance)


def solver_for(instance: CDDInstance | UCDDCPInstance) -> _BaseSolver:
    """The matching façade for an instance (the one type-dispatch site
    batch drivers and pool workers share)."""
    if isinstance(instance, CDDInstance):
        return CDDSolver(instance)
    if isinstance(instance, UCDDCPInstance):
        return UCDDCPSolver(instance)
    raise TypeError(
        f"no solver for instance type {type(instance).__name__!r}"
    )


def solve_many(
    instances: "list | tuple",
    method: str = "parallel_sa",
    workers: int | None = None,
    **solve_kwargs: Any,
):
    """Solve many instances with one configuration on a process pool.

    Façade entry point for :func:`repro.pool.batch.solve_many`: results
    come back in input order as ``BatchItem`` records, one per instance,
    with per-instance error isolation — a failed solve fills its slot
    with an error record instead of crashing the batch.
    """
    from repro.pool.batch import solve_many as _pool_solve_many

    return _pool_solve_many(instances, method, workers=workers, **solve_kwargs)
