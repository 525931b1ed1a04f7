"""Noise-aware comparison of two sets of layered-benchmark records.

Usage::

    python benchmarks/layered/compare.py --base P1.json P2.json ... \
        --change C1.json C2.json ...

Each file is a record written by ``run.py`` or a bundle
``{"sets": [[record, ...], ...]}`` such as ``records/BENCH_<n>.json``;
``FILE#k`` takes the k-th set of a bundle only, so
``--base B.json#0 --change B.json#1`` checks that the benchmark agrees
with itself.  Traced records carry no end-to-end numbers and are
skipped.  The i-th base record and the i-th change record form a pair;
measure them alternating which side runs first.  For every workload and
end-to-end metric of ``BENCHMARK.json``, in this order:

* **regression** -- the change's median is worse than the base median by
  more than the bound, however wide the spread;
* **gain** -- at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither), and the medians differ by more than the base
  runs' interquartile range;
* **unresolved** -- either side's spread (interquartile range over its
  median) exceeds the metric's bound, unless every change run reads
  better than every base run;
* **same** -- otherwise.

Each row also compares the share of operations that failed or returned
a wrong result.  A higher share at the change is a regression of the
workload, and its gains do not count (``gain-void``).  It prints one row
per workload and exits 1 on any regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

from common import ROOT

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(specs: list[str]) -> list[dict[str, Any]]:
    out = []
    for spec in specs:
        path, _, index = spec.partition("#")
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if "sets" not in doc:
            out.append(doc)
            continue
        for chosen in ([doc["sets"][int(index)]] if index else doc["sets"]):
            out.extend(chosen)
    return [record for record in out if not record["trace"]]


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base: list[float], change: list[float], bound: float,
            higher_better: bool) -> tuple[str, float, int, int]:
    """``(verdict, relative change of the median, wins, pairs)``."""
    sign = 1.0 if higher_better else -1.0
    med_b, med_c = statistics.median(base), statistics.median(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    delta = (med_c - med_b) / med_b
    if -sign * delta > bound:
        return "regression", delta, wins, len(pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (med_c - med_b) > iqr(base)):
        return "gain", delta, wins, len(pairs)
    spread = max(iqr(base) / med_b, iqr(change) / med_c)
    all_better = (min(change) > max(base)) if higher_better \
        else (max(change) < min(base))
    if spread > bound and not all_better:
        return "unresolved", delta, wins, len(pairs)
    return "same", delta, wins, len(pairs)


def failure_share(records: list[dict[str, Any]], name: str) -> float:
    """Failed or wrong operations over attempted, across ``records``."""
    docs = [r["workloads"][name] for r in records if name in r["workloads"]]
    attempted = sum(d["attempted"] for d in docs)
    return sum(d["failed"] + d["wrong"] for d in docs) / max(attempted, 1)


def compare(base: list[dict[str, Any]], change: list[dict[str, Any]],
            bench: dict[str, Any]) -> tuple[list[str], bool]:
    rows, regressed = [], False
    workloads = [w["name"] for w in bench["workloads"]]
    for name in workloads:
        fail_b, fail_c = failure_share(base, name), failure_share(change, name)
        more_failures = fail_c > fail_b
        regressed |= more_failures
        cells = [f"failures={'regression' if more_failures else 'same'}"
                 f"({fail_b:.2%}->{fail_c:.2%})"]
        for spec in bench["end_to_end"]:
            metric = spec["name"]
            b = [r["workloads"][name]["metrics"][metric]["value"]
                 for r in base if name in r["workloads"]]
            c = [r["workloads"][name]["metrics"][metric]["value"]
                 for r in change if name in r["workloads"]]
            if not b or not c:
                cells.append(f"{metric}=missing")
                continue
            kind, delta, wins, pairs = verdict(
                b, c, spec["bound"], spec["better"] == "higher")
            if kind == "gain" and more_failures:
                kind = "gain-void"
            regressed |= kind == "regression"
            cells.append(f"{metric}={kind}({delta:+.1%},{wins}/{pairs})")
        rows.append(f"{name:<14} " + "  ".join(cells))
    return rows, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True,
                        help="records of the parent (FILE or FILE#set)")
    parser.add_argument("--change", nargs="+", required=True,
                        help="records of the change (FILE or FILE#set)")
    parser.add_argument("--bench", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads(args.bench.read_text(encoding="utf-8"))
    rows, regressed = compare(load_records(args.base),
                              load_records(args.change), bench)
    print("verdict(median change, change wins/pairs) per end-to-end metric")
    for row in rows:
        print(row)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
