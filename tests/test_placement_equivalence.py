"""Generated-input oracle: every placement returns the same solve.

The chains of one ensemble are independent (or, for the coupled variants,
run whole in one shard), so where they run must not change a result bit.
Hypothesis draws the instance, the method and its coupling, the seed, the
launch geometry and the worker count, and requires ``gpusim`` ==
``vectorized`` == ``multiprocess(workers=k)`` with ``==`` on the objective,
the best sequence's bytes, the history and the evaluation count.

The replay leg carries one drawn solve through the service's persistence:
its result document must come back from the result cache and from the
job journal with the same canonical JSON bytes it went in with.
"""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solver import solver_for
from repro.service.cache import CacheKey, ResultCache
from repro.service.journal import JobJournal

from tests.conftest import cdd_instances, ucddcp_instances

METHODS = st.sampled_from([
    ("parallel_sa", {"variant": "async"}),
    ("parallel_sa", {"variant": "sync"}),
    ("parallel_dpso", {"coupling": "async"}),
    ("parallel_dpso", {"coupling": "ring"}),
])


GEOMETRY = dict(
    instance=st.one_of(
        cdd_instances(min_n=5, max_n=40),
        ucddcp_instances(min_n=5, max_n=40),
    ),
    method=METHODS,
    seed=st.integers(0, 2**31 - 1),
    grid=st.integers(1, 4),
    block=st.integers(4, 16),
)


def _solve_kwargs(name, variant, seed, grid, block):
    kwargs = dict(
        variant, iterations=12, grid_size=grid, block_size=block, seed=seed,
        record_history=True,
    )
    if name == "parallel_sa":
        kwargs["t0_samples"] = 200
    return kwargs


def _fingerprint(result):
    return (
        result.objective,
        result.best_sequence.dtype.str,
        result.best_sequence.tobytes(),
        result.history.tobytes(),
        result.evaluations,
    )


@settings(max_examples=10, deadline=None)
@given(workers=st.integers(1, 3), **GEOMETRY)
def test_placements_agree(instance, method, seed, grid, block, workers):
    name, variant = method
    kwargs = _solve_kwargs(name, variant, seed, grid, block)
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


def _canonical(document):
    return json.dumps(document, sort_keys=True).encode("utf-8")


@settings(max_examples=10, deadline=None)
@given(**GEOMETRY)
def test_cache_and_journal_replay(instance, method, seed, grid, block):
    name, variant = method
    result = solver_for(instance).solve(
        name, backend="vectorized",
        **_solve_kwargs(name, variant, seed, grid, block),
    )
    key = CacheKey(
        instance="0" * 64, method=name, config="1" * 64, seed=seed,
        device_profile="gt560m",
    )
    document = {
        "instance": instance.name,
        "method": name,
        "key": key.hex,
        "result": result.to_dict(),
    }
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        cache.store(key, document)
        assert _canonical(cache.load(key)) == _canonical(document)

        journal = JobJournal(Path(tmp) / "journal.jsonl")
        journal.record_submitted(
            "j000001", seq=1, request={"method": name}, key=key.hex,
            method=name, instance_name=instance.name,
        )
        journal.record_done(
            "j000001", document=document, cached=False, duration_s=0.1,
        )
        replayed = JobJournal(journal.path)
        replayed.replay()
        view = replayed.lookup("j000001")
        assert _canonical(view["document"]) == _canonical(document)
