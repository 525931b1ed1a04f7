"""An nvprof-like profiler for the simulated device.

Records every kernel launch, memory transfer and synchronization with its
simulated start time and duration, and renders the familiar summary table
(time share, call count, average/total duration per activity).  The paper
reports using the Nvidia CUDA profiler to optimize performance and memory
usage; the experiment harness uses this module the same way -- e.g. to show
where the SA generation loop spends modeled time and to account the
host<->device transfers included in the speedup figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = ["ProfileEvent", "Profiler"]


@dataclass(frozen=True)
class ProfileEvent:
    """One recorded device activity."""

    name: str
    kind: str  # "kernel" | "memcpy_htod" | "memcpy_dtoh" | "sync"
    start: float
    duration: float
    details: dict[str, Any] = field(default_factory=dict, compare=False)

    @property
    def end(self) -> float:
        """Simulated end time of the activity."""
        return self.start + self.duration


class Profiler:
    """Collects :class:`ProfileEvent` records and renders summaries."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: list[ProfileEvent] = []

    def record(
        self,
        name: str,
        kind: str,
        start: float,
        duration: float,
        **details: Any,
    ) -> None:
        """Append one event (no-op when disabled)."""
        if self.enabled:
            self.events.append(
                ProfileEvent(name=name, kind=kind, start=start,
                             duration=duration, details=dict(details))
            )

    def reset(self) -> None:
        """Drop all recorded events."""
        self.events.clear()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def total_time(self, kinds: Iterable[str] | None = None) -> float:
        """Summed duration over events, optionally filtered by kind."""
        wanted = set(kinds) if kinds is not None else None
        return sum(
            e.duration for e in self.events
            if wanted is None or e.kind in wanted
        )

    def kernel_time(self) -> float:
        """Total modeled time spent in kernels."""
        return self.total_time(["kernel"])

    def memcpy_time(self) -> float:
        """Total modeled time spent in host<->device transfers."""
        return self.total_time(["memcpy_htod", "memcpy_dtoh"])

    def component_totals(self) -> dict[str, float]:
        """Kernel time attributed to timing-model components.

        Sums the per-launch ``components`` breakdown the device records
        (overhead / compute / memory / staging / dispatch / atomic; the
        losing roofline leg is attributed zero, so the totals sum to
        :meth:`kernel_time`).
        """
        totals: dict[str, float] = {}
        for e in self.events:
            if e.kind != "kernel":
                continue
            for comp, t in e.details.get("components", {}).items():
                totals[comp] = totals.get(comp, 0.0) + t
        return totals

    def component_summary(self) -> str:
        """Textual attribution of kernel time to model components."""
        totals = self.component_totals()
        if not totals:
            return "No kernel component attribution recorded."
        total = sum(totals.values())
        denom = total or 1.0
        lines = [f"{'Time(%)':>8} {'Time':>12}  Component"]
        for comp, t in sorted(totals.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"{100.0 * t / denom:7.2f}% {_fmt_s(t):>12}  {comp}"
            )
        lines.append(f"Total attributed kernel time: {_fmt_s(total)}")
        return "\n".join(lines)

    def by_name(self) -> dict[str, list[ProfileEvent]]:
        """Events grouped by activity name."""
        groups: dict[str, list[ProfileEvent]] = {}
        for e in self.events:
            groups.setdefault(e.name, []).append(e)
        return groups

    def summary(self) -> str:
        """nvprof-style textual summary, activities sorted by total time.

        Percentages and the total cover device activity only (kernels and
        transfers); host ``synchronize`` waits overlap that activity, so
        they are reported on their own line instead of as a row.
        """
        total = self.kernel_time() + self.memcpy_time()
        denom = total or 1.0
        waits = [e for e in self.events if e.kind == "sync"]
        rows = []
        for name, evs in self.by_name().items():
            if evs[0].kind == "sync":
                continue
            t = sum(e.duration for e in evs)
            rows.append((t, 100.0 * t / denom, len(evs), t / len(evs), name))
        rows.sort(reverse=True)
        lines = [
            f"{'Time(%)':>8} {'Time':>12} {'Calls':>7} {'Avg':>12}  Name",
        ]
        for t, pct, calls, avg, name in rows:
            lines.append(
                f"{pct:7.2f}% {_fmt_s(t):>12} {calls:7d} {_fmt_s(avg):>12}  {name}"
            )
        if waits:
            lines.append(
                f"Host synchronize waits: {len(waits)} calls, "
                f"{_fmt_s(sum(e.duration for e in waits))} (not device time)"
            )
        lines.append(f"Total modeled device time: {_fmt_s(total)}")
        return "\n".join(lines)


def _fmt_s(seconds: float) -> str:
    """Human-friendly duration (s / ms / us / ns)."""
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.3f}us"
    return f"{seconds * 1e9:.1f}ns"
