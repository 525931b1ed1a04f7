"""Smoke tests of the layered benchmark (``pytest benchmarks``).

Every workload runs at ``--smoke`` size once untraced, and one workload
once traced; together they take well under 30 s.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from common import ROOT, WORKLOADS, canonical
from compare import compare, verdict

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = Path(__file__).resolve().parent / "run.py"


def _run(tmp_path: Path, *args: str) -> tuple[dict, dict, str, str]:
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seed", "0",
         "--record", str(record), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    text = record.read_text(encoding="utf-8")
    return json.loads(last), json.loads(text), last, text


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("traced"), "--trace",
                "--workload", "batch-small")


def test_every_end_to_end_metric_is_emitted_with_its_unit(untraced):
    summary, record, _, _ = untraced
    assert summary["correct"] and summary["failed"] == 0
    assert set(record["workloads"]) == set(WORKLOADS)
    for name, doc in record["workloads"].items():
        for spec in BENCH["end_to_end"]:
            entry = doc["metrics"][spec["name"]]
            assert entry["unit"] == spec["unit"], (name, spec["name"])
            assert entry["value"] > 0 and entry["samples"] >= 1
            key = f"{name}/{spec['name']}"
            assert summary["metrics"][key]["unit"] == spec["unit"]


def test_every_per_layer_metric_is_emitted_with_its_unit(traced):
    summary, record, _, _ = traced
    assert summary["correct"]
    emitted = {**record["workloads"]["batch-small"]["per_layer"],
               **record["probes"]["per_layer"]}
    assert set(emitted) == {spec["name"] for spec in BENCH["per_layer"]}
    for spec in BENCH["per_layer"]:
        assert emitted[spec["name"]]["unit"] == spec["unit"], spec["name"]
        assert summary["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_output_is_canonical_json(untraced):
    summary, record, last, text = untraced
    assert last == canonical(summary)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert text == canonical(record) + "\n"


def test_env_block_is_complete(untraced):
    env = untraced[1]["env"]
    for key in ("git_sha", "nproc", "python", "numpy", "src_loc"):
        assert env[key], key
    assert env["src_loc"] > 1000 and env["nproc"] >= 1


def test_span_self_times_are_non_negative(traced):
    record = traced[1]
    path = Path(record["workloads"]["batch-small"]["spans_file"])
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert any(s["name"].startswith("kernels.") for s in spans)
    assert all(s["self_s"] >= 0 and s["end"] >= s["start"] for s in spans)


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    faster = [v * 0.8 for v in base]
    assert verdict(base, faster, 0.1, higher_better=False)[0] == "gain"
    assert verdict(base, faster, 0.1, higher_better=True)[0] == "regression"
    assert verdict(base, base, 0.1, higher_better=False)[0] == "same"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert verdict(noisy, base, 0.1, higher_better=False)[0] == "unresolved"
    # A clearly worse median is a regression however noisy the runs.
    slower = [v * 1.5 for v in noisy]
    assert verdict(base, slower, 0.1, higher_better=False)[0] == "regression"
    assert verdict(noisy, slower, 0.1, higher_better=False)[0] == "regression"


def _records(values: list[float], failed: int) -> list[dict]:
    return [{"trace": False, "workloads": {name: {
        "attempted": 100, "failed": failed, "wrong": 0,
        "metrics": {s["name"]: {"value": v, "unit": s["unit"]}
                    for s in BENCH["end_to_end"]}}
        for name in WORKLOADS}} for v in values]


def test_compare_counts_failures():
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    rows, regressed = compare(_records(base, 0), _records(base, 0), BENCH)
    assert not regressed and all("regression" not in r for r in rows)
    # Faster on every lower-is-better metric, but more operations fail:
    # the workload regresses and no gain counts.
    rows, regressed = compare(_records(base, 0),
                              _records([v * 0.8 for v in base], 3), BENCH)
    assert regressed
    assert all("failures=regression" in r and "=gain(" not in r
               for r in rows)
