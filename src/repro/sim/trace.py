"""Execution traces and latency statistics.

The engine emits a stream of timestamped :class:`TraceEvent` records — EPR
generation start/ready, qubit teleportations, classical correction messages,
operation start/end — which :class:`TraceRecorder` collects together with
per-link busy windows.  :class:`LatencyDistribution` summarises the program
latencies of a seeded Monte-Carlo run.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..obs.metrics import sample_summary, sorted_percentile

__all__ = ["TraceEvent", "TraceRecorder", "LatencyDistribution"]


class TraceEvent(NamedTuple):
    """One timestamped event of a simulated execution.

    A tuple record (traces hold several per comm op): immutable and
    without a per-instance ``__dict__``; ``event._replace(...)`` derives a
    changed copy.
    """

    time: float
    kind: str                    # "epr-start", "epr-ready", "teleport",
                                 # "classical-msg", "op-start", "op-end", ...
    index: int = -1              # schedulable item index, -1 for global events
    nodes: Tuple[int, ...] = ()
    detail: str = ""


class TraceRecorder:
    """Collects trace events and per-link occupancy during one simulation."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: List[TraceEvent] = []
        # Busy windows of EPR generation per unordered node pair.
        self.link_busy: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}

    def record(self, time: float, kind: str, index: int = -1,
               nodes: Sequence[int] = (), detail: str = "") -> None:
        if not self.enabled:
            return
        self.events.append(TraceEvent(time, kind, index, tuple(nodes),
                                      detail))

    def record_link(self, node_a: int, node_b: int, start: float,
                    end: float) -> None:
        if not self.enabled:
            return
        key = (node_a, node_b) if node_a < node_b else (node_b, node_a)
        self.link_busy.setdefault(key, []).append((start, end))

    # ---------------------------------------------------------------- queries

    def timeline(self) -> List[TraceEvent]:
        """All events in time order (stable for equal timestamps)."""
        return sorted(self.events, key=lambda e: e.time)

    def events_of(self, kind: str) -> List[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def num_events(self) -> int:
        return len(self.events)

    def link_utilisation(self, horizon: float) -> Dict[Tuple[int, int], float]:
        """Fraction of time each link spent generating EPR pairs.

        Degenerate horizons — zero, negative or non-finite, as produced by
        an empty program's zero makespan — yield zero utilisation for every
        recorded link instead of dividing by them.
        """
        if not math.isfinite(horizon) or horizon <= 0:
            return {pair: 0.0 for pair in self.link_busy}
        return {pair: sum(e - s for (s, e) in windows) / horizon
                for pair, windows in self.link_busy.items()}

    def event_dicts(self) -> List[Dict[str, object]]:
        """Timeline as JSON-ready dicts (one per event, time order)."""
        return [{"time": event.time, "kind": event.kind, "index": event.index,
                 "nodes": list(event.nodes), "detail": event.detail}
                for event in self.timeline()]

    def write_jsonl(self, path) -> int:
        """Write the timeline as JSON Lines; returns the event count.

        One JSON object per line (``time``/``kind``/``index``/``nodes``/
        ``detail``), consumable with ``jq`` or a line-by-line reader without
        loading the whole trace.  Used by ``repro.cli simulate --trace-out``.
        """
        events = self.event_dicts()
        with open(path, "w") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")
        return len(events)

    def render(self, limit: Optional[int] = None) -> str:
        """Human-readable event log (used by the CLI's ``--trace`` flag)."""
        lines = []
        events = self.timeline()
        shown = events if limit is None else events[:limit]
        for event in shown:
            nodes = ",".join(str(n) for n in event.nodes)
            where = f" nodes={nodes}" if nodes else ""
            which = f" op={event.index}" if event.index >= 0 else ""
            detail = f" {event.detail}" if event.detail else ""
            lines.append(f"t={event.time:10.2f}  {event.kind:<13}{which}{where}{detail}")
        if limit is not None and len(events) > limit:
            lines.append(f"... {len(events) - limit} more events")
        return "\n".join(lines)


class LatencyDistribution:
    """Summary statistics over the latencies of a Monte-Carlo run."""

    def __init__(self, latencies: Sequence[float]) -> None:
        if not latencies:
            raise ValueError("a latency distribution needs at least one sample")
        self.latencies = sorted(float(x) for x in latencies)

    def __len__(self) -> int:
        return len(self.latencies)

    @property
    def mean(self) -> float:
        return sample_summary(self.latencies)["mean"]

    @property
    def std(self) -> float:
        mean = self.mean
        return math.sqrt(math.fsum((x - mean) ** 2 for x in self.latencies)
                         / len(self.latencies))

    @property
    def minimum(self) -> float:
        return self.latencies[0]

    @property
    def maximum(self) -> float:
        return self.latencies[-1]

    def percentile(self, q: float) -> float:
        """Linearly interpolated percentile, ``q`` in [0, 100]."""
        return sorted_percentile(self.latencies, q)

    def histogram(self, bins: int = 10) -> List[Tuple[float, float, int]]:
        """(low, high, count) triples covering [minimum, maximum]."""
        if bins <= 0:
            raise ValueError("bins must be positive")
        low, high = self.minimum, self.maximum
        if high <= low:
            return [(low, high, len(self.latencies))]
        width = (high - low) / bins
        counts = [0] * bins
        for value in self.latencies:
            slot = min(int((value - low) / width), bins - 1)
            counts[slot] += 1
        return [(low + i * width, low + (i + 1) * width, counts[i])
                for i in range(bins)]

    def summary(self) -> Dict[str, float]:
        stats = sample_summary(self.latencies)
        return {"trials": float(len(self.latencies)), "mean": stats["mean"],
                "std": self.std, **stats}
