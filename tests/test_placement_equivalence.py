"""Generated-input oracle: every placement returns the same solve.

The chains of one ensemble are independent (or, for the coupled variants,
run whole in one shard), so where they run must not change a result bit.
Hypothesis draws the instance, the method and its coupling, the seed, the
launch geometry and the worker count, and requires ``gpusim`` ==
``vectorized`` == ``multiprocess(workers=k)`` with ``==`` on the objective,
the best sequence's bytes, the history and the evaluation count.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solver import solver_for

from tests.conftest import cdd_instances, ucddcp_instances

METHODS = st.sampled_from([
    ("parallel_sa", {"variant": "async"}),
    ("parallel_sa", {"variant": "sync"}),
    ("parallel_dpso", {"coupling": "async"}),
    ("parallel_dpso", {"coupling": "ring"}),
])


def _fingerprint(result):
    return (
        result.objective,
        result.best_sequence.dtype.str,
        result.best_sequence.tobytes(),
        result.history.tobytes(),
        result.evaluations,
    )


@settings(max_examples=10, deadline=None)
@given(
    instance=st.one_of(
        cdd_instances(min_n=5, max_n=40),
        ucddcp_instances(min_n=5, max_n=40),
    ),
    method=METHODS,
    seed=st.integers(0, 2**31 - 1),
    grid=st.integers(1, 4),
    block=st.integers(4, 16),
    workers=st.integers(1, 3),
)
def test_placements_agree(instance, method, seed, grid, block, workers):
    name, variant = method
    kwargs = dict(
        variant, iterations=12, grid_size=grid, block_size=block, seed=seed,
        record_history=True,
    )
    if name == "parallel_sa":
        kwargs["t0_samples"] = 200
    solver = solver_for(instance)
    gpusim = solver.solve(name, backend="gpusim", **kwargs)
    vectorized = solver.solve(name, backend="vectorized", **kwargs)
    with warnings.catch_warnings():
        # Oversubscribed worker counts and unshardable couplings warn;
        # neither changes the result.
        warnings.simplefilter("ignore", RuntimeWarning)
        pooled = solver.solve(
            name, backend="multiprocess", workers=workers, **kwargs
        )
    assert _fingerprint(vectorized) == _fingerprint(gpusim)
    assert _fingerprint(pooled) == _fingerprint(vectorized)
    assert np.array_equal(pooled.schedule.completion, gpusim.schedule.completion)
