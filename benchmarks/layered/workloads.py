"""The four workloads of the layered benchmark.

Each workload runs in a fresh interpreter started by ``run.py``::

    python benchmarks/layered/workloads.py --workload W --seed S \
        --seconds T --trace 0|1 [--smoke]

The child builds its inputs from the seed and prints ``READY`` once set
up (the parent times spawn -> ``READY``).  It then reads one line from
stdin: ``exit`` ends it, ``run`` runs the measured phase and prints
``RESULT <json>``.  Only public surfaces are driven: ``solver_for(...)
.solve``, ``solve_many`` (without ``chunk_size``) and the ``repro serve``
HTTP API.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import layers
from common import (
    DEFAULT_SECONDS,
    SMOKE_SECONDS,
    WORK,
    WORKERS,
    WORKLOADS,
    canonical,
    percentile,
)
from loadgen import (
    GIVE_UP_S,
    Client,
    PhaseResult,
    Request,
    Server,
    open_loop,
    paced_arrivals,
    serial_loop,
)
from oracle import Oracle
from repro import biskup_instance, solve_many, solver_for, ucddcp_instance
from spans import GenerationClock, TimingBackend, Tracer

H_FACTORS = (0.2, 0.4, 0.6, 0.8)
K_MAX = 10

#: solve-large: the paper geometry (4 x 192 = 768 chains) at the largest
#: benchmark sizes, where kernel bodies are ~90% of the wall time.  At 20
#: generations one pass over the four cases takes ~8 s on the 2-core box,
#: so a 20 s run measures two passes: 8 solves, ~150 generations.  The CDD
#: restriction factor is held at 0.4: solve times moved with h by up to
#: 25% between seeds.
LARGE_CASES = (
    ("cdd", 1000, "parallel_sa"), ("ucddcp", 1000, "parallel_sa"),
    ("cdd", 500, "parallel_dpso"), ("ucddcp", 500, "parallel_dpso"),
)
LARGE_CONFIG = {"iterations": 20, "grid_size": 4, "block_size": 192}
SMOKE_LARGE_CASES = (
    ("cdd", 100, "parallel_sa"), ("ucddcp", 100, "parallel_sa"),
    ("cdd", 50, "parallel_dpso"), ("ucddcp", 50, "parallel_dpso"),
)
SMOKE_CONFIG = {"iterations": 5, "grid_size": 1, "block_size": 32}
LARGE_H = 0.4

#: batch-small: the experiments' smoke scale, many tiny solves.
BATCH_CONFIG = {"iterations": 60, "grid_size": 2, "block_size": 32}
BATCH_SIZES = (10, 20, 50)

#: service-*: default geometry (768 chains); 3 in 8 requests are n=50.
#: Misses of 20 generations (~95 ms jobs) at 10 req/s keep the two
#: workers ~47% busy; a 20 s run sends 200, and 20 latencies lie beyond
#: p90.  With Poisson arrivals p50/p95 moved 9-40% between runs of the
#: same seed on the 2-core box: bursts cascade through the keep-alive
#: stall and two solves contend for the cores.  Arrivals are therefore
#: paced, one per slot, placed within +-10% of the slot's middle; with
#: +-25% the p50 still spread 11% over ten seeds, with +-10% 4%.
SERVICE_CONFIG = {"iterations": 20}
SERVICE_SIZES = (20, 50)
SERVICE_BIG_SHARE = 3 / 8
MISS_RATE, MISS_LIMIT_S, MISS_JITTER = 10.0, 2.0, 0.1
#: An exchange that starts soon after the previous one on its keep-alive
#: connection waits ~44 ms (the server's two writes meet the client's
#: delayed ACK).  A hit's result fetch follows its submit at once, so it
#: always waits.  Paced at 8 req/s, every submit starts >= 52 ms after the
#: previous fetch, and none waited in 26 runs.  At 10 req/s (>= 48 ms)
#: whole runs flipped to waiting on every submit, doubling p50; Poisson
#: hits mixed the modes by chance, and p50 moved up to 7x between seeds.
#: A 20 s run sends 160 hits, 16 of them beyond p90.
HIT_RATE, HIT_LIMIT_S, HIT_JITTER = 8.0, 0.25, 0.1
HIT_DISTINCT = 16


@dataclass(frozen=True)
class Solve:
    """One solve request: instance, method and its kwargs (no backend)."""

    instance: Any
    method: str
    kwargs: dict

    @property
    def key(self) -> str:
        return f"{self.instance.name}|{self.method}|{canonical(self.kwargs)}"

    def body(self) -> bytes:
        return json.dumps({
            "instance": self.instance.to_dict(), "method": self.method,
            "config": self.kwargs,
        }).encode()


# -- inputs (a pure function of the seed) -------------------------------


def _rng(seed: int, workload: str, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), stream])



def _instance(kind: str, n: int, rng: np.random.Generator,
              h: float | None = None) -> Any:
    """Replicate ``k`` (and, unless given, the CDD ``h``) from ``rng``."""
    k = int(rng.integers(1, K_MAX + 1))
    if kind == "cdd":
        return biskup_instance(
            n, float(rng.choice(H_FACTORS)) if h is None else h, k)
    return ucddcp_instance(n, k)


def large_solves(seed: int, smoke: bool) -> list[Solve]:
    rng = _rng(seed, "solve-large")
    cases, config = (
        (SMOKE_LARGE_CASES, SMOKE_CONFIG) if smoke
        else (LARGE_CASES, LARGE_CONFIG)
    )
    return [
        Solve(_instance(kind, n, rng, LARGE_H), method,
              {**config, "seed": int(rng.integers(2**31))})
        for kind, n, method in cases
    ]


def batch_inputs(seed: int, smoke: bool) -> tuple[list[Any], dict]:
    """48 CDD (n x h x 4) and 48 UCDDCP (n x 16) instances, one config."""
    rng = _rng(seed, "batch-small")
    sizes, per = ((10,), 1) if smoke else (BATCH_SIZES, 4)
    instances = []
    for n in sizes:
        for h in H_FACTORS:
            for _ in range(per):
                k = int(rng.integers(1, K_MAX + 1))
                instances.append(biskup_instance(n, h, k))
        for _ in range(per * len(H_FACTORS)):
            instances.append(ucddcp_instance(n, int(rng.integers(1, K_MAX + 1))))
    config = SMOKE_CONFIG if smoke else BATCH_CONFIG
    return instances, {**config, "seed": int(rng.integers(2**31))}


def service_shapes(count: int) -> list[tuple[str, int, float]]:
    """``(kind, n, h)`` of each request, the same for every seed.

    The n=50 requests are spread evenly through the stream, kinds
    alternate within each size and CDD requests cycle through the ``h``
    factors, so no seed gets more or longer jobs, or more of them back to
    back, than another.
    """
    shapes = []
    so_far = dict.fromkeys(SERVICE_SIZES, 0)
    for i in range(count):
        big = int((i + 1) * SERVICE_BIG_SHARE) > int(i * SERVICE_BIG_SHARE)
        n = SERVICE_SIZES[big]
        j = so_far[n]
        so_far[n] += 1
        shapes.append(("cdd" if j % 2 == 0 else "ucddcp", n,
                       H_FACTORS[j // 2 % len(H_FACTORS)]))
    return shapes


def service_solves(seed: int, workload: str, count: int, smoke: bool,
                   stream: int = 0) -> list[Solve]:
    """``count`` distinct parallel_sa requests of :func:`service_shapes`;
    the seed picks each instance replicate ``k`` and solver seed."""
    rng = _rng(seed, workload, stream)
    seeds = rng.choice(2**31 - 1, size=count, replace=False)
    config = SMOKE_CONFIG if smoke else SERVICE_CONFIG
    return [
        Solve(_instance(kind, n, rng, h), "parallel_sa",
              {**config, "seed": int(s)})
        for (kind, n, h), s in zip(service_shapes(count), seeds)
    ]


def request_count(rate: float, seconds: float) -> int:
    return max(1, round(rate * seconds))


def hit_distinct(smoke: bool) -> int:
    return 4 if smoke else HIT_DISTINCT


def expected_solves(seed: int) -> list[Solve]:
    """Every solve whose result ``expected.json`` pins for ``seed``."""
    out = []
    for smoke, seconds in ((False, DEFAULT_SECONDS), (True, SMOKE_SECONDS)):
        out += large_solves(seed, smoke)
        out += service_solves(seed, "service-miss",
                              request_count(MISS_RATE, seconds), smoke)
        out += service_solves(seed, "service-hit", hit_distinct(smoke), smoke)
    return out


# -- measurement helpers ------------------------------------------------


def metric(value: float, unit: str, samples: int) -> dict[str, Any]:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def another_round(start: float, round_start: float, seconds: float) -> bool:
    """Whether to repeat a round that began at ``round_start``: yes while
    the next one would end nearer ``seconds`` after ``start`` than this
    one did.  A run of 8-10 s rounds then always measures two of them,
    where stopping before ``seconds`` measured one on a slow stretch."""
    now = time.perf_counter()
    return now - start + (now - round_start) / 2 <= seconds


def own_peak_rss_mb(children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


class Workload:
    """Set-up, one measured phase, close; subclasses fill in the three."""

    name = ""

    def __init__(self, seed: int, seconds: float, smoke: bool,
                 tracer: Tracer) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.tracer = tracer
        self.oracle = Oracle()
        self.wrong = 0
        self.failed = 0
        self.problems: list[str] = []
        #: In-process solves on the timing backend: (solve, wall seconds).
        self.replays: list[tuple[Solve, float]] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> dict[str, Any]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def check(self, solve: Solve, sequence: list[int], objective: float) -> bool:
        problem = self.oracle.check(solve.key, solve.instance, sequence,
                                    objective)
        if problem is not None:
            self.wrong += 1
            self.problems.append(problem)
        return problem is None

    def solve_in_process(self, solve: Solve) -> tuple[Any, list[float]]:
        """One in-process solve and its generation times; kernel spans
        when tracing."""
        clock = TimingBackend(self.tracer) if self.tracer.enabled \
            else GenerationClock()
        start = time.perf_counter()
        with self.tracer.span("engine.solve", request_id=solve.key):
            result = solver_for(solve.instance).solve(
                solve.method, backend=clock, **solve.kwargs)
        if self.tracer.enabled:
            self.replays.append((solve, time.perf_counter() - start))
        return result, clock.generation_s(solve.kwargs["iterations"])

    def outcome(self, attempted: int, latencies: list[float], good: int,
                evals: int, wall: float, rss_mb: float,
                extra: dict[str, Any] | None = None) -> dict[str, Any]:
        """The end-to-end metrics.  A failed operation is in ``latencies``
        as :data:`GIVE_UP_S`, past every latency limit."""
        if not latencies:
            raise RuntimeError(f"{self.name}: no operation completed")
        return {
            "attempted": attempted,
            "metrics": {
                "evals_per_s": metric(evals / wall, "evals/s", good),
                "goodput_per_s": metric(good / wall, "1/s", attempted),
                "latency_p50_s": metric(percentile(latencies, 50), "s",
                                        len(latencies)),
                "latency_p90_s": metric(percentile(latencies, 90), "s",
                                        len(latencies)),
                "peak_rss_mb": metric(rss_mb, "MB", 1),
            },
            "counts": {"measured_s": wall, **(extra or {})},
        }


class SolveLarge(Workload):
    """Four large in-process solves in fixed order, repeated whole.

    A latency sample is one generation of the 768-chain ensemble: a run
    has only ~8 solves, too few for a tail percentile, but ~150
    generations.  Whole passes keep the four cases' shares equal, so the
    percentiles do not move with how a run's time split between them.
    """

    name = "solve-large"

    def setup(self) -> None:
        self.solves = large_solves(self.seed, self.smoke)
        solver_for(biskup_instance(50, 0.4, 1)).solve(
            "parallel_sa", backend="vectorized", **SMOKE_CONFIG)

    def run(self) -> dict[str, Any]:
        generations: list[float] = []
        passes = 0
        solve_wall = 0.0
        good = evals = 0
        start = time.perf_counter()
        with self.tracer.span("phase"):
            while True:
                pass_start = time.perf_counter()
                for solve in self.solves:
                    t0 = time.perf_counter()
                    result, gens = self.solve_in_process(solve)
                    solve_wall += time.perf_counter() - t0
                    generations += gens
                    if self.check(solve, result.best_sequence.tolist(),
                                  result.objective):
                        good += 1
                        evals += result.evaluations
                passes += 1
                if not another_round(start, pass_start, self.seconds):
                    break
        wall = time.perf_counter() - start
        out = self.outcome(passes * len(self.solves), generations, good,
                           evals, wall, own_peak_rss_mb(), {"passes": passes})
        # Evaluations per second of solve() wall, not of the whole phase.
        out["metrics"]["evals_per_s"]["value"] = evals / solve_wall
        if self.tracer.enabled:
            out["per_layer"] = layers.per_layer(self, wall)
        return out


class BatchSmall(Workload):
    """``solve_many`` over 96 small instances on the process pool.

    A latency sample is one solve as its pool worker timed it
    (``SolveResult.wall_time_s``, engine open to the downloaded best; the
    host-side T0 estimate comes before it): a run has only ~5 batches,
    but ~500 solves.
    """

    name = "batch-small"

    def setup(self) -> None:
        self.instances, self.kwargs = batch_inputs(self.seed, self.smoke)
        solver_for(self.instances[0]).solve(
            "parallel_sa", backend="vectorized", **self.kwargs)

    def run(self) -> dict[str, Any]:
        latencies: list[float] = []
        batches = 0
        attempted = good = evals = 0
        start = time.perf_counter()
        with self.tracer.span("phase"):
            while True:
                t0 = time.perf_counter()
                with self.tracer.span("pool.solve_many"):
                    items = solve_many(
                        self.instances, "parallel_sa", workers=WORKERS,
                        backend="vectorized", **self.kwargs)
                batches += 1
                more = another_round(start, t0, self.seconds)
                for instance, item in zip(self.instances, items):
                    attempted += 1
                    if not item.ok:
                        self.failed += 1
                        self.problems.append(
                            f"{instance.name}: {item.error.error_type}")
                        latencies.append(GIVE_UP_S)
                        continue
                    solve = Solve(instance, "parallel_sa", self.kwargs)
                    r = item.result
                    latencies.append(r.wall_time_s)
                    if self.check(solve, r.best_sequence.tolist(), r.objective):
                        good += 1
                        evals += r.evaluations
                if not more:
                    break
        wall = time.perf_counter() - start
        out = self.outcome(attempted, latencies, good, evals, wall,
                           own_peak_rss_mb(children=True),
                           {"batches": batches})
        if self.tracer.enabled:
            for instance in self.instances[::6]:
                self.solve_in_process(
                    Solve(instance, "parallel_sa", self.kwargs))
            out["per_layer"] = layers.per_layer(self, wall)
        return out


class ServiceWorkload(Workload):
    """A ``repro serve`` subprocess driven by the load generator."""

    rate: float
    limit_s: float

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.server = Server(WORK / f"{self.name}-{os.getpid()}", WORKERS)

    def setup(self) -> None:
        self.server.start()

    def close(self) -> None:
        self.server.stop()

    def requests(self) -> tuple[list[Solve], list[Request]]:
        raise NotImplementedError

    def accept(self, solve: Solve, req: Request) -> bool:
        """Check one settled request; ``True`` when its answer is right."""
        doc = json.loads(req.result_body)["result"]
        return self.check(solve, doc["best_sequence"], doc["objective"])

    def warm_up(self, solves: list[Solve]) -> list[Request]:
        """Serve ``solves`` before timing, so lazy set-up is paid first."""
        warm = [Request(i, 0.0, s.body()) for i, s in enumerate(solves)]
        open_loop(self.server.host, self.server.port, warm)
        for solve, req in zip(solves, warm):
            if req.error is not None \
                    or not ServiceWorkload.accept(self, solve, req):
                raise RuntimeError(f"warm-up of {solve.key} failed: "
                                   f"{req.error or self.problems[-1:]}")
        return warm

    def drive(self, reqs: list[Request]) -> PhaseResult:
        """Two connections: submits when due, results polled round-robin."""
        return open_loop(self.server.host, self.server.port, reqs)

    def run(self) -> dict[str, Any]:
        solves, reqs = self.requests()
        client = Client(self.server.host, self.server.port)
        try:
            before = layers.service_counters(client) if self.tracer.enabled \
                else None
            phase = self.drive(reqs)
            rss = self.server.peak_rss_mb()
            latencies = []
            good = evals = 0
            for solve, req in zip(solves, reqs):
                if req.error is not None:
                    self.failed += 1
                    self.problems.append(f"request {req.index}: {req.error}")
                    latencies.append(GIVE_UP_S)
                    continue
                latencies.append(phase.latency(req))
                if self.accept(solve, req):
                    evals += json.loads(req.result_body)["result"]["evaluations"]
                    if phase.latency(req) <= self.limit_s:
                        good += 1
            wall = phase.end - phase.start
            late = [r.sent - phase.start - r.due for r in reqs
                    if r.sent is not None]
            out = self.outcome(len(reqs), latencies, good, evals, wall, rss, {
                "late_p95_s": percentile(late or [0.0], 95),
                "within_limit": good,
                "limit_s": self.limit_s,
            })
            if self.tracer.enabled:
                traffic = layers.service_traffic(client, before, phase,
                                                 self.tracer)
                for solve in solves[:2 if self.smoke else 8]:
                    self.solve_in_process(solve)
                out["per_layer"] = layers.per_layer(
                    self, wall, traffic=traffic, late=late)
        finally:
            client.close()
        return out


class ServiceMiss(ServiceWorkload):
    """Unique requests: every one runs the service's write path."""

    name = "service-miss"
    rate, limit_s = MISS_RATE, MISS_LIMIT_S

    def requests(self) -> tuple[list[Solve], list[Request]]:
        self.warm_up(service_solves(self.seed, self.name, 2, self.smoke,
                                    stream=3))
        count = request_count(self.rate, self.seconds)
        solves = service_solves(self.seed, self.name, count, self.smoke)
        due = paced_arrivals(_rng(self.seed, self.name, 1), self.rate, count,
                             MISS_JITTER)
        return solves, [Request(i, t, s.body())
                        for i, (s, t) in enumerate(zip(solves, due))]


class ServiceHit(ServiceWorkload):
    """Repeats of warmed-up requests: the cache-hit read path."""

    name = "service-hit"
    rate, limit_s = HIT_RATE, HIT_LIMIT_S

    def requests(self) -> tuple[list[Solve], list[Request]]:
        distinct = service_solves(self.seed, self.name,
                                  hit_distinct(self.smoke), self.smoke)
        self.warm_bytes = {solve.key: req.result_body for solve, req
                           in zip(distinct, self.warm_up(distinct))}
        # Each distinct request repeats equally often, in seeded order.
        count = request_count(self.rate, self.seconds)
        picks = _rng(self.seed, self.name, 2).permutation(
            np.resize(np.arange(len(distinct)), count))
        due = paced_arrivals(_rng(self.seed, self.name, 1), self.rate, count,
                             HIT_JITTER)
        solves = [distinct[int(p)] for p in picks]
        return solves, [Request(i, t, s.body())
                        for i, (s, t) in enumerate(zip(solves, due))]

    def drive(self, reqs: list[Request]) -> PhaseResult:
        """One connection: each submit is followed by its result fetch."""
        return serial_loop(self.server.host, self.server.port, reqs)

    def accept(self, solve: Solve, req: Request) -> bool:
        submitted = json.loads(req.submit_body)
        if req.submit_status != 200 or not submitted.get("cached"):
            self.wrong += 1
            self.problems.append(f"request {req.index}: not a cache hit "
                                 f"(HTTP {req.submit_status})")
            return False
        if req.result_body != self.warm_bytes[solve.key]:
            self.wrong += 1
            self.problems.append(f"request {req.index}: replay bytes differ "
                                 "from the warm-up response")
            return False
        return True


IMPLS = {cls.name: cls for cls in (SolveLarge, BatchSmall, ServiceMiss,
                                   ServiceHit)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="write the trace's spans to this JSONL file")
    args = parser.parse_args(argv)

    def _terminate(signum: int, frame: Any) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _terminate)
    tracer = Tracer(enabled=bool(args.trace))
    workload = IMPLS[args.workload](args.seed, args.seconds, args.smoke,
                                    tracer)
    try:
        workload.setup()
        print("READY", flush=True)
        if sys.stdin.readline().strip() != "run":
            return 0
        result = workload.run()
        result.update(failed=workload.failed, wrong=workload.wrong,
                      problems=workload.problems[:10],
                      pinned=workload.oracle.pinned)
        if args.spans and tracer.enabled:
            tracer.write_jsonl(Path(args.spans))
            result["spans_file"] = args.spans
        print("RESULT " + canonical(result), flush=True)
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
