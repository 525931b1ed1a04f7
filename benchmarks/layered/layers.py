"""Per-layer metrics of a traced run.

Three sources, all outside ``src/``:

* spans the workload recorded around its calls into the program, kernel
  launches included (see :mod:`spans`);
* direct calls into public layer functions at the workloads' shapes:
  the T0 estimate, initial population, schedule reconstruction, the
  process pool, admission, the result cache, the journal and the
  supervised dispatch;
* the server's own ``/metrics`` counters and job documents.

:func:`per_layer` gives the metrics of one traced workload.  Metrics a
workload does not exercise (DPSO kernels outside solve-large, service
traffic outside the service workloads) read 0.  The modeled gpusim
timings and the pool and service probes do not depend on the workload;
:func:`probes` measures them once per traced run, in its own
interpreter::

    PYTHONPATH=src python benchmarks/layered/layers.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import pickle
import shutil
import sys
import time
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from common import WORK, WORKERS, canonical, median, percentile
from loadgen import Client, PhaseResult, Server, fresh_call, metrics_doc
from oracle import Oracle
from spans import Tracer, span_cost_s

if TYPE_CHECKING:  # pragma: no cover
    from workloads import Workload

KERNELS = ("fitness_cdd", "fitness_ucddcp", "perturbation", "acceptance",
           "reduction_min_elitist", "dpso_update", "dpso_pbest")
#: Span-name prefixes that name a layer; other spans (``phase``,
#: ``request``) only group them.
LAYER_PREFIXES = ("kernels.", "engine.", "pool.", "service.", "loadgen.")

UNITS: dict[str, str] = {}
for _k in KERNELS:
    UNITS[f"kernels.{_k}.ms_per_launch"] = "ms"
    UNITS[f"kernels.{_k}.launches"] = "count"
    UNITS[f"kernels.{_k}.share"] = "share"
    UNITS[f"gpusim.{_k}.modeled_ms_per_launch"] = "ms"
UNITS.update({
    "kernels.fitness_cdd.computed_mb_per_launch": "MB",
    "kernels.fitness_ucddcp.computed_mb_per_launch": "MB",
    "gpusim.modeled_device_s": "s",
    "engine.t0_estimate_ms": "ms",
    "engine.init_population_ms": "ms",
    "engine.reconstruct_ms": "ms",
    "engine.loop_ms_per_gen": "ms",
    "engine.share": "share",
    "pool.noop_task_ms": "ms",
    "pool.task_overhead_ms": "ms",
    "pool.validate_ms": "ms",
    "pool.args_kb": "KB",
    "pool.result_kb": "KB",
    "pool.efficiency": "share",
    "service.admission_ms": "ms",
    "service.cache_key_ms": "ms",
    "service.cache_load_ms": "ms",
    "service.cache_store_ms": "ms",
    "service.journal_append_ms": "ms",
    "service.dispatch_noop_ms": "ms",
    "service.http_rtt_keepalive_ms": "ms",
    "service.http_rtt_fresh_ms": "ms",
    "service.job_duration_p50_s": "s",
    "service.non_solve_p50_ms": "ms",
    "service.exchanges_per_request": "count",
    "service.journal_appends_per_request": "count",
    "service.cache_hit_share": "share",
    "loadgen.late_p95_ms": "ms",
    "trace.overhead_share": "share",
    "unexplained_share": "share",
})
#: Measured from a service workload's own traffic (0 elsewhere).
TRAFFIC_KEYS = (
    "service.job_duration_p50_s", "service.non_solve_p50_ms",
    "service.exchanges_per_request", "service.journal_appends_per_request",
    "service.cache_hit_share",
)
#: Measured once per traced run by :func:`probes`; the rest per workload.
PROBE_KEYS = frozenset(
    k for k in UNITS
    if k.startswith(("gpusim.", "pool.")) or (
        k.startswith("service.") and k not in TRAFFIC_KEYS)
)
WORKLOAD_KEYS = frozenset(UNITS) - PROBE_KEYS


def _timed_ms(fn: Callable[[], Any], reps: int) -> float:
    """Median wall of ``reps`` calls, in milliseconds."""
    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return 1000.0 * median(walls)


def _noop() -> None:
    return None


# -- kernels and engine (from the workload's traced solves) -------------


def kernel_metrics(tracer: Tracer, solve_wall: float) -> dict[str, float]:
    by_name = tracer.self_by_name()
    out = {}
    for k in KERNELS:
        count, total = by_name.get(f"kernels.{k}", (0, 0.0))
        out[f"kernels.{k}.launches"] = float(count)
        out[f"kernels.{k}.ms_per_launch"] = 1000.0 * total / count \
            if count else 0.0
        out[f"kernels.{k}.share"] = total / solve_wall
    for k in ("fitness_cdd", "fitness_ucddcp"):
        count = by_name.get(f"kernels.{k}", (0, 0.0))[0]
        moved = tracer.counters.get(f"kernels.{k}.bytes", 0.0)
        out[f"kernels.{k}.computed_mb_per_launch"] = moved / count / 1e6 \
            if count else 0.0
    return out


def engine_metrics(workload: "Workload", tracer: Tracer) -> dict[str, float]:
    """Engine parts timed by direct calls at each traced solve's shape;
    the driver loop is the solve span's remaining self time."""
    from repro.core.cooling import estimate_initial_temperature
    from repro.core.engine.adapters import adapter_for
    from repro.initialization import initial_population

    selfs = tracer.self_times()
    solve_spans = [s for s in tracer.spans if s.name == "engine.solve"]
    engine_self = {s.sid: selfs[s.sid] for s in solve_spans}
    for s in tracer.spans:
        if s.name in ("engine.stage", "engine.download") \
                and s.parent in engine_self:
            engine_self[s.parent] += selfs[s.sid]
    parts: dict[tuple, tuple[float, float, float]] = {}
    t0s, inits, recons = [], [], []
    loop_s = engine_s = wall_s = 0.0
    gens = 0
    for (solve, wall), span in zip(workload.replays, solve_spans):
        inst, kw = solve.instance, solve.kwargs
        pop = kw.get("grid_size", 4) * kw.get("block_size", 192)
        shape = (type(inst).__name__, inst.n, pop, solve.method)
        if shape not in parts:
            rng = np.random.default_rng(0)
            adapter = adapter_for(inst)
            seq = np.arange(inst.n)
            t0 = _timed_ms(lambda: estimate_initial_temperature(
                inst, 5000, rng), 3) if solve.method == "parallel_sa" else 0.0
            parts[shape] = (
                t0,
                _timed_ms(lambda: initial_population(inst, pop, rng), 3),
                _timed_ms(lambda: adapter.reconstruct(seq), 5),
            )
        t0, init, recon = parts[shape]
        if solve.method == "parallel_sa":
            t0s.append(t0)
        inits.append(init)
        recons.append(recon)
        driver_self = selfs[span.sid] * 1000.0 - t0 - init - recon
        loop_s += driver_self / 1000.0
        gens += kw.get("iterations", 1000)
        engine_s += engine_self[span.sid]
        wall_s += wall
    return {
        "engine.t0_estimate_ms": float(np.mean(t0s)) if t0s else 0.0,
        "engine.init_population_ms": float(np.mean(inits)),
        "engine.reconstruct_ms": float(np.mean(recons)),
        "engine.loop_ms_per_gen": 1000.0 * loop_s / gens,
        "engine.share": engine_s / wall_s,
    }


# -- modeled device time (never mixed with measured time) ----------------


def gpusim_modeled(smoke: bool = False) -> dict[str, float]:
    """Modeled GT 560M time of the seed-0 solve-large cases."""
    from repro import solver_for
    from repro.core.engine.backends import GpusimBackend

    import workloads

    total = 0.0
    per: dict[str, list[float]] = {k: [] for k in KERNELS}
    for solve in workloads.large_solves(0, smoke):
        backend = GpusimBackend()
        result = solver_for(solve.instance).solve(
            solve.method, backend=backend, **solve.kwargs)
        total += result.modeled_device_time_s
        for name, events in backend.device.profiler.by_name().items():
            if name in per:
                per[name].extend(e.duration for e in events)
    out = {"gpusim.modeled_device_s": total}
    for k in KERNELS:
        out[f"gpusim.{k}.modeled_ms_per_launch"] = (
            1000.0 * sum(per[k]) / len(per[k]) if per[k] else 0.0)
    return out


# -- pool (direct calls at the batch-small shape) -----------------------


def pool_metrics(smoke: bool) -> dict[str, float]:
    from repro import solve_many, solver_for
    from repro.pool.executor import ProcessPool
    from repro.pool.worker import solve_one
    from repro.problems.validation import validate_schedule

    import workloads

    instances, kwargs = workloads.batch_inputs(0, smoke)
    sample = instances[::6]
    kw = {**kwargs, "backend": "vectorized"}
    results, in_process = [], 0.0
    for inst in sample:
        start = time.perf_counter()
        results.append(solver_for(inst).solve("parallel_sa", **kw))
        in_process += time.perf_counter() - start
    start = time.perf_counter()
    items = solve_many(sample, "parallel_sa", workers=WORKERS, **kw)
    pooled = time.perf_counter() - start
    if not all(item.ok for item in items):
        raise RuntimeError("pool probe: a solve failed")
    pool = ProcessPool(workers=1)
    noop = _timed_ms(lambda: pool.map(_noop, [()] * 8), 3) / 8
    return {
        "pool.noop_task_ms": noop,
        "pool.task_overhead_ms": 1000.0 * (WORKERS * pooled - in_process)
        / len(sample),
        "pool.efficiency": in_process / (WORKERS * pooled),
        "pool.validate_ms": float(np.mean([
            _timed_ms(lambda: validate_schedule(i, r.schedule), 5)
            for i, r in zip(sample, results)])),
        "pool.args_kb": float(np.mean([
            len(pickle.dumps((solve_one, (i, "parallel_sa", kw))))
            for i in sample])) / 1024.0,
        "pool.result_kb": float(np.mean([
            len(pickle.dumps(r)) for r in results])) / 1024.0,
    }


# -- service (direct calls at the service-miss shape) -------------------


def service_metrics(smoke: bool) -> dict[str, float]:
    from repro import solver_for
    from repro.pool.dispatch import SupervisedDispatch
    from repro.service.admission import AdmissionPolicy, validate_request
    from repro.service.cache import CacheKey, ResultCache
    from repro.service.journal import JobJournal

    import workloads

    solve = workloads.service_solves(0, "service-miss", 1, smoke)[0]
    body = json.loads(solve.body())
    policy = AdmissionPolicy()
    validated = validate_request(body, policy)
    key = CacheKey.for_job(validated)
    result = solver_for(solve.instance).solve(
        solve.method, backend="vectorized", **solve.kwargs)
    document = {"instance": solve.instance.name, "method": solve.method,
                "key": key.hex, "result": result.to_dict()}
    probe_dir = WORK / f"probe-{time.monotonic_ns()}"
    server = Server(probe_dir / "server", WORKERS)
    try:
        cache = ResultCache(probe_dir / "cache")
        journal = JobJournal(probe_dir / "journal.jsonl")
        out = {
            "service.admission_ms": _timed_ms(
                lambda: validate_request(body, policy), 20),
            "service.cache_key_ms": _timed_ms(
                lambda: CacheKey.for_job(validated), 20),
            "service.cache_store_ms": _timed_ms(
                lambda: cache.store(key, document), 10),
            "service.cache_load_ms": _timed_ms(lambda: cache.load(key), 20),
            "service.journal_append_ms": _timed_ms(
                lambda: journal.record_done("j000001", document=document,
                                            cached=False, duration_s=0.1),
                10),
            "service.dispatch_noop_ms": _timed_ms(
                lambda: SupervisedDispatch().run(_noop, ()), 5),
        }
        server.start()
        client = Client(server.host, server.port)
        try:
            out["service.http_rtt_keepalive_ms"] = _timed_ms(
                lambda: client.call("GET", "/healthz"), 20)
        finally:
            client.close()
        out["service.http_rtt_fresh_ms"] = _timed_ms(
            lambda: fresh_call(server.host, server.port, "GET", "/healthz"),
            20)
    finally:
        server.stop()
        shutil.rmtree(probe_dir, ignore_errors=True)
    return out


def service_counters(client: Client) -> dict[str, int]:
    doc = metrics_doc(client)
    counters = doc["counters"]
    return {
        "journal_appends": (doc["journal"] or {}).get("appends", 0),
        "cache_hits": counters.get("cache_hits", 0),
        "cache_misses": counters.get("cache_misses", 0),
    }


def service_traffic(client: Client, before: dict[str, int],
                    phase: PhaseResult, tracer: Tracer) -> dict[str, float]:
    """Traffic metrics of a service phase, and its spans.

    Client-side exchanges become ``service.http.*`` spans under one
    ``request`` span each; the server's reported job duration becomes a
    ``service.job`` span placed just before the poll that saw it done;
    stretches with nothing outstanding become ``loadgen.idle``.
    """
    after = service_counters(client)
    reqs = phase.requests
    phase_id = tracer.add("phase", phase.start, phase.end)
    durations, non_solve, busy = [], [], []
    for req in reqs:
        due = phase.start + req.due
        end = req.done if req.done is not None else (
            req.exchanges[-1][2] if req.exchanges else due)
        busy.append((due, end))
        rid = req.job_id or f"r{req.index}"
        root = tracer.add("request", due, end, parent=phase_id,
                          request_id=rid)
        for name, t0, t1 in req.exchanges:
            tracer.add(name, t0, t1, parent=root, request_id=rid)
        if req.done is None:
            continue
        duration = None
        if req.job_id and not json.loads(req.submit_body).get("cached"):
            status, body = fresh_call(client.conn.host, client.conn.port,
                                      "GET", f"/v1/jobs/{req.job_id}")
            if status == 200:
                duration = json.loads(body).get("duration_s")
        if duration is not None:
            durations.append(duration)
            poll_start = req.exchanges[-1][1]
            tracer.add("service.job", poll_start - duration, poll_start,
                       parent=root, request_id=rid)
        non_solve.append(1000.0 * (phase.latency(req) - (duration or 0.0)))
    reach = phase.start
    for lo, hi in sorted(busy):
        if lo > reach:
            tracer.add("loadgen.idle", reach, lo, parent=phase_id)
        reach = max(reach, hi)
    hits = after["cache_hits"] - before["cache_hits"]
    lookups = hits + after["cache_misses"] - before["cache_misses"]
    return {
        "service.job_duration_p50_s": median(durations) if durations else 0.0,
        "service.non_solve_p50_ms": median(non_solve) if non_solve else 0.0,
        "service.exchanges_per_request": sum(len(r.exchanges) for r in reqs)
        / len(reqs),
        "service.journal_appends_per_request":
            (after["journal_appends"] - before["journal_appends"]) / len(reqs),
        "service.cache_hit_share": hits / lookups if lookups else 0.0,
    }


# -- whole run ----------------------------------------------------------


def unexplained_share(tracer: Tracer) -> float:
    """Share of the measured phase no layer span covers."""
    phase = next(s for s in tracer.spans if s.name == "phase")
    intervals = sorted(
        (max(s.start, phase.start), min(s.end, phase.end))
        for s in tracer.spans if s.name.startswith(LAYER_PREFIXES))
    covered, reach = 0.0, phase.start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return 1.0 - covered / (phase.end - phase.start)


def _table(values: dict[str, float], keys: frozenset[str]
           ) -> dict[str, dict[str, Any]]:
    """``{name: {"value", "unit"}}``, checked to hold exactly ``keys``."""
    differ = set(keys) ^ set(values)
    if differ:
        raise RuntimeError(f"per-layer metric set differs: {sorted(differ)}")
    return {k: {"value": float(v), "unit": UNITS[k]}
            for k, v in sorted(values.items())}


def per_layer(workload: "Workload", wall: float,
              traffic: dict[str, float] | None = None,
              late: list[float] | None = None) -> dict[str, dict[str, Any]]:
    """The per-layer metrics of one traced workload."""
    tracer = workload.tracer
    values: dict[str, float] = {}
    values.update(kernel_metrics(
        tracer, sum(wall_s for _, wall_s in workload.replays)))
    values.update(engine_metrics(workload, tracer))
    values.update(traffic or {k: 0.0 for k in TRAFFIC_KEYS})
    values["loadgen.late_p95_ms"] = 1000.0 * percentile(late, 95) \
        if late else 0.0
    values["trace.overhead_share"] = tracer.live * span_cost_s() / wall
    values["unexplained_share"] = unexplained_share(tracer)
    return _table(values, WORKLOAD_KEYS)


def probes(smoke: bool) -> dict[str, Any]:
    """The workload-independent per-layer metrics, with the gpusim pins
    checked: ``{"per_layer", "wrong", "problems"}``."""
    modeled = gpusim_modeled(smoke)
    problems = Oracle().check_gpusim(modeled, smoke)
    values = {**modeled, **pool_metrics(smoke), **service_metrics(smoke)}
    return {"per_layer": _table(values, PROBE_KEYS),
            "wrong": len(problems), "problems": problems}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Per-layer probes.")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    print("RESULT " + canonical(probes(args.smoke)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
