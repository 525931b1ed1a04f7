"""Module-level worker entry points (spawn-safe, picklable payloads).

Everything a worker process needs travels as picklable values: the problem
instance (a frozen dataclass of arrays), the strategy *class*, its config
dataclass, and plain integers.  The worker rebuilds adapter/strategy/kernels
locally, so no live kernel closures or backend state ever cross the process
boundary.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.engine.adapters import adapter_for
from repro.core.engine.backends import VectorizedBackend
from repro.core.engine.driver import ShardResult, run_chains

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine.driver import EnsembleStrategy
    from repro.problems.cdd import CDDInstance
    from repro.problems.ucddcp import UCDDCPInstance

__all__ = ["run_shard", "solve_one"]


def run_shard(
    instance: "CDDInstance | UCDDCPInstance",
    strategy_cls: "type[EnsembleStrategy]",
    config: Any,
    row_offset: int,
    nblocks: int,
    init_rows: np.ndarray,
) -> ShardResult:
    """Run blocks ``[row_offset/block_size, ...)`` of the global ensemble.

    Rebuilds the strategy for the slice, replays ``prepare`` on a fresh
    host RNG with the solve's seed (same draws as the parent's, e.g. the
    T0 estimate), and runs the shared generation loop on a
    :class:`VectorizedBackend` whose RNG is offset by ``row_offset``, so
    every chain draws exactly the stream it would have drawn in the
    unsharded run.  The parent has already applied ``prepare_population``
    (it indexes by *global* row), and ``finalize`` is also the parent's
    job (it runs on the merged best only).
    """
    adapter = adapter_for(instance)
    strategy = strategy_cls(dataclasses.replace(config, grid_size=nblocks))
    strategy.prepare(adapter, np.random.default_rng(config.seed))
    return run_chains(
        strategy, VectorizedBackend(thread_offset=row_offset), adapter,
        init_rows,
    )


def solve_one(
    instance: "CDDInstance | UCDDCPInstance", method: str, kwargs: dict
) -> Any:
    """One full façade solve — the ``solve_many`` task body."""
    from repro.core.solver import solver_for

    return solver_for(instance).solve(method, **kwargs)
