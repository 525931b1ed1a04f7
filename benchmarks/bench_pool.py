"""Host-side pool throughput: batched ``solve_many`` vs the serial loop,
and warm workers vs a fresh child per solve.

The pool exists to spread independent instance solves across CPU cores.
This bench measures the wall-clock effect directly: one benchmark-set
sweep (>= 10 instances) solved serially, then through
``solve_many(workers=4)``, with identical per-instance results asserted.
On a multi-core host the pool wins roughly linearly up to the core count;
on a single-core container the process overhead makes it a wash -- the
table reports ``os.cpu_count()`` so the number can be read in context.
"""

import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import _shared
from repro.core.solver import solve_many, solver_for
from repro.instances.biskup import biskup_instance
from repro.pool.dispatch import SupervisedDispatch
from repro.pool.worker import solve_one
from repro.problems.validation import validate_schedule

WORKERS = 4
SOLVE_KW = dict(
    backend="vectorized", iterations=120, grid_size=2, block_size=32, seed=13
)


def _instances():
    # 12 instances: 10..45 jobs across the restrictive h factors.
    return [
        biskup_instance(n, h, 1)
        for n in (10, 25, 45)
        for h in (0.2, 0.4, 0.6, 0.8)
    ]


def _run_pool_study():
    instances = _instances()

    start = time.perf_counter()
    serial = [
        solver_for(inst).solve("parallel_sa", **SOLVE_KW)
        for inst in instances
    ]
    t_serial = time.perf_counter() - start

    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # cpu oversubscribe
        items = solve_many(
            instances, "parallel_sa", workers=WORKERS, **SOLVE_KW
        )
    t_pool = time.perf_counter() - start

    assert all(item.ok for item in items)
    for ref, item in zip(serial, items):
        assert item.result.objective == ref.objective
        assert np.array_equal(item.result.best_sequence, ref.best_sequence)
    return len(instances), t_serial, t_pool


def _render(n_instances, t_serial, t_pool) -> str:
    ncpu = os.cpu_count() or 1
    speedup = t_serial / t_pool
    lines = [
        f"Pool throughput -- solve_many({WORKERS} workers) vs serial loop",
        f"({n_instances} CDD instances, parallel SA, "
        f"iterations={SOLVE_KW['iterations']}, 64 chains; identical "
        "per-instance results asserted)",
        "",
        f"{'mode':>22} {'wall [s]':>10}",
        f"{'serial loop':>22} {t_serial:>10.3f}",
        f"{f'solve_many x{WORKERS}':>22} {t_pool:>10.3f}",
        "",
        f"speedup {speedup:.2f}x on {ncpu} CPU core(s)",
        "",
        "Each instance is one task on a warm worker process, with bounded",
        "in-flight work; the win tracks the host's core count (a",
        "single-core runner only measures the process/pickle overhead).",
    ]
    return "\n".join(lines)


def test_solve_many_throughput(benchmark):
    n_instances, t_serial, t_pool = benchmark.pedantic(
        _run_pool_study, rounds=1, iterations=1
    )
    _shared.publish("pool_throughput", _render(n_instances, t_serial, t_pool))

    # The result contract is asserted inside the study; the wall-clock win
    # is asserted only where it can exist (the CI benchmark job runs on
    # multi-core runners; single-core containers just publish the table).
    if (os.cpu_count() or 1) >= 4:
        assert t_pool < t_serial


# -- warm workers vs fork-per-task on small instances ----------------------

SMALL_SOLVE_KW = dict(
    backend="vectorized", iterations=60, grid_size=2, block_size=32, seed=13
)


def _small_instances():
    # 24 small instances (n <= 20): the regime where forking a process
    # per solve costs about as much as the solve itself.
    return [
        biskup_instance(n, h, k)
        for n in (10, 20)
        for h in (0.2, 0.4, 0.6, 0.8)
        for k in (1, 2, 3)
    ]


def _fork_per_task(instances):
    """Every solve in a fresh child: ``SupervisedDispatch`` (one child per
    job, the service's path) from ``WORKERS`` threads, each result
    validated as ``solve_many`` validates it."""

    def solve(instance):
        status, result = SupervisedDispatch().run(
            solve_one, (instance, "parallel_sa", dict(SMALL_SOLVE_KW))
        )
        assert status == "ok", result
        validate_schedule(instance, result.schedule)
        return result

    with ThreadPoolExecutor(WORKERS) as threads:
        return list(threads.map(solve, instances))


def _warm(instances):
    items = solve_many(
        instances, "parallel_sa", workers=WORKERS, **SMALL_SOLVE_KW
    )
    assert all(item.ok for item in items)
    return [item.result for item in items]


def _run_warm_study():
    instances = _small_instances()
    timings = {}
    reference = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # cpu oversubscribe
        for mode, run in (("fork per task", _fork_per_task),
                          ("warm workers", _warm)):
            start = time.perf_counter()
            results = run(instances)
            timings[mode] = time.perf_counter() - start
            outcome = [
                (r.objective, r.best_sequence.tobytes(), r.evaluations)
                for r in results
            ]
            if reference is None:
                reference = outcome
            else:
                # Reusing a child changes the dispatch cost only; the
                # results must be bit-identical.
                assert outcome == reference
    return len(instances), timings


def _render_warm(n_instances, timings) -> str:
    ncpu = os.cpu_count() or 1
    base = timings["fork per task"]
    lines = [
        "Warm workers -- solve_many vs a fresh child per solve, on small "
        "instances",
        f"({n_instances} CDD instances with n <= 20, parallel SA, "
        f"iterations={SMALL_SOLVE_KW['iterations']}, {WORKERS} workers; "
        "identical results asserted across modes)",
        "",
        f"{'dispatch':>22} {'wall [s]':>10} {'vs fork per task':>17}",
    ]
    for mode, wall in timings.items():
        lines.append(f"{mode:>22} {wall:>10.3f} {base / wall:>16.2f}x")
    lines += [
        "",
        f"on {ncpu} CPU core(s)",
        "",
        "solve_many forks one child per worker for the whole batch and",
        "sends it task indices; 'fork per task' starts a fresh child per",
        "solve (the service's SupervisedDispatch, one thread per worker).",
        "Both validate every schedule (see docs/parallel.md).",
    ]
    return "\n".join(lines)


def test_solve_many_warm_workers(benchmark):
    n_instances, timings = benchmark.pedantic(
        _run_warm_study, rounds=1, iterations=1
    )
    _shared.publish("pool_warm_workers", _render_warm(n_instances, timings))
    # Bit-identity across dispatch modes is asserted inside the study;
    # the wall-clock comparison is published, not asserted -- the win
    # depends on how fast the host forks relative to a 60-iteration solve.
