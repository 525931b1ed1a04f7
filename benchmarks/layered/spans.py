"""In-memory span recorder and the kernel-timing backend of traced runs.

A span is ``(name, start, end, parent, request id)``.  Spans stay in
memory while the workload runs and are written as JSONL at exit.  A
span's *self time* is its duration minus the part of it covered by its
children.

Spans are recorded only from the benchmark's own files, around calls into
the program's public surfaces.  Kernel launches are timed through
:class:`TimingBackend`, a :class:`VectorizedBackend` subclass handed to the
public ``backend=`` argument of ``solve``, so nothing inside ``src/``
changes between traced and untraced runs.  Untraced runs pass its base,
:class:`GenerationClock`, which only notes when each generation ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.core.engine.backends import VectorizedBackend


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    request_id: str | None


class Tracer:
    """Collects spans; ``enabled=False`` makes :meth:`span` free of work."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        #: Named totals recorded at span boundaries (e.g. bytes moved).
        self.counters: dict[str, float] = {}
        #: Spans recorded while the workload ran (not added afterwards).
        self.live = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request_id: str | None = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        self.live += 1
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(Span(sid, name, time.perf_counter(), 0.0, parent,
                               request_id))
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid].end = time.perf_counter()

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, request_id: str | None = None) -> int:
        """Record a span measured elsewhere (another thread, or a server's
        reported duration); ``parent=None`` hangs it off the open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        sid = len(self.spans)
        self.spans.append(Span(sid, name, start, end, parent, request_id))
        return sid

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            reach = s.start
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.sid] = max(0.0, (s.end - s.start) - covered)
        return out

    def self_by_name(self) -> dict[str, tuple[int, float]]:
        """Span name -> (count, total self seconds)."""
        selfs = self.self_times()
        out: dict[str, tuple[int, float]] = {}
        for s in self.spans:
            count, total = out.get(s.name, (0, 0.0))
            out[s.name] = (count + 1, total + selfs[s.sid])
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent,
                    "request_id": s.request_id, "self_s": selfs[s.sid],
                }, sort_keys=True) + "\n")


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of recording one span (the tracing overhead model)."""
    probe = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - start) / samples


class GenerationClock(VectorizedBackend):
    """The vectorized backend, noting the time of every ``synchronize()``.

    The engine driver synchronizes once after each generation and once
    more before the final download, so the gaps between consecutive
    in-loop marks are generation times.  One clock read per generation
    costs nothing next to a 768-chain generation; results are
    bit-identical to ``backend="vectorized"``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.marks: list[float] = []

    def synchronize(self) -> None:
        super().synchronize()
        self.marks.append(time.perf_counter())

    def generation_s(self, iterations: int) -> list[float]:
        """Seconds of generations 2..``iterations`` of the last solve."""
        marks = self.marks[:iterations]
        return [b - a for a, b in zip(marks, marks[1:])]


class TimingBackend(GenerationClock):
    """The vectorized backend with a span around every kernel launch.

    Each launch records ``kernels.<name>``; fitness launches also count
    their computed bytes moved (from array sizes, not measured): the
    sequence matrix, one gathered float64 per job and per-job array, and
    the output.  Staging (``open``) and the result download are recorded
    as engine spans.  Results are bit-identical to
    ``backend="vectorized"``.
    """

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def open(self, adapter: Any, seed: int, device_spec: Any,
             timing: Any = None) -> None:
        with self.tracer.span("engine.stage"):
            super().open(adapter, seed, device_spec, timing)

    def launch(self, kern: Any, config: Any, *args: Any) -> None:
        with self.tracer.span(f"kernels.{kern.name}"):
            super().launch(kern, config, *args)
        if kern.name.startswith("fitness"):
            seqs, per_job, out = args[0].array, args[1:-1], args[-1].array
            moved = seqs.nbytes + len(per_job) * seqs.size * 8 + out.nbytes
            key = f"kernels.{kern.name}.bytes"
            self.tracer.counters[key] = self.tracer.counters.get(key, 0) + moved

    def download(self, buf: Any) -> Any:
        with self.tracer.span("engine.download"):
            return super().download(buf)
