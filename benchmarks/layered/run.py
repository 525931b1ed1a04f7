"""Layered benchmark: one command for every workload and metric.

Usage (from the repository root)::

    python benchmarks/layered/run.py --seed 0                  # all four
    python benchmarks/layered/run.py --seed 3 --workload service-hit
    python benchmarks/layered/run.py --seed 0 --trace          # per-layer

Each workload runs in fresh interpreters (see ``workloads.py``): set-up is
timed from spawn to ``READY`` five times and reported as the median
``setup_s``; the third interpreter runs the measured phase, so the
set-ups bracket it.  End-to-end metrics come from untraced runs only;
``--trace`` is a separate run that reports the per-layer metrics of each
workload, measures the workload-independent probes once (``layers.py``)
and writes the spans as JSONL.

The run prints every metric with its unit and sample count, writes one
canonical (sorted-key) JSON record, and ends with one JSON line::

    {"attempted": .., "correct": .., "failed": .., "metrics": {..}}

It exits 1 when a result is wrong, 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from common import (
    DEFAULT_SECONDS,
    HERE,
    OUT,
    ROOT,
    SMOKE_SECONDS,
    SRC,
    WORKLOADS,
    canonical,
    child_env,
    env_block,
    median,
)

#: Fresh-interpreter set-ups per untraced run; their median is
#: ``setup_s``.  Single set-ups spread ~30% from run to run on the 2-core
#: box, as the VM's speed drifts over minutes.
SETUPS = 5
#: Wall-clock budget of one workload, set-ups included, and of the probes.
WORKLOAD_BUDGET_S = 170.0


class ChildFailed(RuntimeError):
    pass


class Child:
    """One benchmark interpreter, in its own process group."""

    def __init__(self, script: str, args: list[str], deadline: float
                 ) -> None:
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )

    def read_until(self, prefix: str) -> str:
        assert self.proc.stdout is not None
        while True:
            left = self.deadline - time.monotonic()
            if left <= 0:
                raise ChildFailed(f"no {prefix!r} before the time budget")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise ChildFailed(
                    f"workload exited ({self.proc.wait()}) before {prefix!r}")
            if line.startswith(prefix):
                return line[len(prefix):].strip()

    def send(self, command: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.close()

    def finish(self) -> None:
        """Wait for a clean exit; on overrun stop the whole group."""
        try:
            code = self.proc.wait(max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        self.kill()
        if code != 0:
            raise ChildFailed(f"workload exited with {code}")

    def kill(self) -> None:
        """Stop every process left in the group, then reap the child."""
        try:
            os.killpg(self.proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        else:
            try:
                self.proc.wait(5)
            except subprocess.TimeoutExpired:
                pass
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, spans: Path | None) -> dict[str, Any]:
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    args = ["--workload", name, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(int(trace))]
    if smoke:
        args.append("--smoke")
    if spans is not None:
        args += ["--spans", str(spans)]
    setups = 1 if smoke or trace else SETUPS
    setup_walls = []
    for attempt in range(setups):
        start = time.perf_counter()
        child = Child("workloads.py", args, deadline)
        try:
            child.read_until("READY")
            setup_walls.append(time.perf_counter() - start)
            if attempt != setups // 2:
                child.send("exit")
            else:
                child.send("run")
                result = child.read_until("RESULT ")
            child.finish()
        finally:
            child.kill()
    doc = json.loads(result)
    doc["setup_samples"] = setup_walls
    if not trace:
        doc["metrics"]["setup_s"] = {"value": median(setup_walls),
                                     "unit": "s", "samples": setups}
    doc["error_rate"] = (doc["failed"] + doc["wrong"]) / doc["attempted"]
    doc["correct"] = doc["wrong"] == 0
    return doc


def run_probes(smoke: bool) -> dict[str, Any]:
    """The workload-independent per-layer metrics (``layers.py``)."""
    child = Child("layers.py", ["--smoke"] if smoke else [],
                  time.monotonic() + WORKLOAD_BUDGET_S)
    try:
        doc = json.loads(child.read_until("RESULT "))
        child.finish()
    finally:
        child.kill()
    return doc


def report(header: str, doc: dict[str, Any], table: dict[str, Any]) -> None:
    print(f"== {header}")
    for metric, entry in sorted(table.items()):
        samples = entry.get("samples")
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"  {metric:<48} {entry['value']:>14.6g} {entry['unit']}"
              f"{suffix}")
    for problem in doc["problems"]:
        print(f"  PROBLEM {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Layered benchmark of the solver, pool and service.")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per workload (default "
                             f"{DEFAULT_SECONDS}, smoke {SMOKE_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced run: per-layer metrics and spans")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the tests")
    parser.add_argument("--record", type=Path, default=None,
                        help="where to write the JSON record")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"layered benchmark: no package at {SRC / 'repro'}; run it "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)
    trace = bool(args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    tag = (f"{args.workload or 'all'}-seed{args.seed}"
           f"{'-trace' if trace else ''}{'-smoke' if args.smoke else ''}")
    record_path = args.record or OUT / f"record-{tag}.json"
    record: dict[str, Any] = {
        "env": env_block(), "seed": args.seed, "seconds": seconds,
        "smoke": args.smoke, "trace": trace, "workloads": {},
    }
    record_path.parent.mkdir(parents=True, exist_ok=True)
    for name in names:
        spans = record_path.parent / f"spans-{name}-seed{args.seed}" \
            f"{'-smoke' if args.smoke else ''}.jsonl" if trace else None
        try:
            doc = run_workload(name, args.seed, seconds, trace, args.smoke,
                               spans)
        except ChildFailed as exc:
            print(f"layered benchmark: {name}: {exc}", file=sys.stderr)
            return 2
        record["workloads"][name] = doc
        report(f"{name}: attempted {doc['attempted']}, failed "
               f"{doc['failed']}, wrong {doc['wrong']}, error_rate "
               f"{doc['error_rate']:.4f}",
               doc, doc["per_layer"] if trace else doc["metrics"])
    if trace:
        try:
            probes = record["probes"] = run_probes(args.smoke)
        except ChildFailed as exc:
            print(f"layered benchmark: probes: {exc}", file=sys.stderr)
            return 2
        report(f"probes: wrong {probes['wrong']}", probes,
               probes["per_layer"])
    record_path.write_text(canonical(record) + "\n", encoding="utf-8")
    print(f"record written to {record_path}")

    docs = record["workloads"]
    metrics = {}
    for name, doc in docs.items():
        table = doc["per_layer"] if trace else doc["metrics"]
        for metric, entry in table.items():
            key = metric if len(docs) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
    wrong = sum(doc["wrong"] for doc in docs.values())
    if trace:
        wrong += record["probes"]["wrong"]
        for metric, entry in record["probes"]["per_layer"].items():
            metrics[metric] = {"value": entry["value"], "unit": entry["unit"]}
    print(canonical({
        "correct": wrong == 0,
        "attempted": sum(doc["attempted"] for doc in docs.values()),
        "failed": wrong + sum(doc["failed"] for doc in docs.values()),
        "metrics": metrics,
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
