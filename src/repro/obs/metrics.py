"""Simulator metrics registry: counters, gauges and histograms.

The discrete-event engine records *what the machine did* — per-link EPR
generations and queue waits, retry counts, comm-qubit occupancy, migration
stalls — into a :class:`MetricsRegistry`.  One registry can be shared
across the trials of a Monte-Carlo run (every trial engine writes into the
same instruments) so the aggregate answers questions like "which link was
the contention bottleneck over 200 trials?" without keeping 200 traces.

Like the span layer, metrics only observe: they consume no randomness and
feed nothing back into execution, so enabling or disabling them leaves
simulated latencies and Monte-Carlo streams bit-identical
(``tests/sim/test_trace_disabled.py`` asserts this together with the trace
recorder's disabled mode).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "sample_summary", "sorted_percentile"]

#: Internal metric key: (name, sorted (label, value) pairs).
_Key = Tuple[str, Tuple[Tuple[str, str], ...]]


def sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile of ascending ``ordered``, ``q`` in
    [0, 100].

    Interpolates as ``a + (b - a) * f`` between the neighbouring samples
    ``a <= b``: equal neighbours give exactly ``a``, so the result never
    leaves the sample range (``a * (1 - f) + b * f`` can land one ULP
    below the minimum of equal samples).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    low_value = ordered[low]
    return low_value + (ordered[high] - low_value) * (position - low)


def sample_summary(ordered: Sequence[float]) -> Dict[str, float]:
    """Mean, min, p50, p95 and max of ascending, non-empty ``ordered``.

    The one summary of every sample set (a Monte-Carlo run's latencies, a
    histogram instrument), so one set reports one mean wherever it shows.
    The mean is the exactly rounded :func:`math.fsum` over the count, which
    no sample order changes, kept inside ``[min, max]``: the division can
    round one ULP past a run of equal samples.
    """
    low, high = ordered[0], ordered[-1]
    mean = math.fsum(ordered) / len(ordered)
    return {"mean": min(max(mean, low), high), "min": low,
            "p50": sorted_percentile(ordered, 50),
            "p95": sorted_percentile(ordered, 95), "max": high}


class Counter:
    """Monotonically accumulating count (EPR attempts, generations, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, value: float = 1) -> None:
        self.value += value

    def as_value(self) -> float:
        return self.value


class Gauge:
    """Last-written value (plan size, analytical latency, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value

    def as_value(self) -> Optional[float]:
        return self.value


class Histogram:
    """Distribution of observed samples (queue waits, occupancies, ...).

    Raw samples are kept (simulation runs observe at most a few samples per
    scheduled op per trial), so percentiles are exact and two histograms
    merge losslessly when Monte-Carlo metrics are aggregated.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.summary()["mean"]

    def percentile(self, q: float) -> float:
        """Linearly interpolated percentile, ``q`` in [0, 100]."""
        return sorted_percentile(sorted(self.values) or [0.0], q)

    def summary(self) -> Dict[str, float]:
        if not self.values:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                    "p50": 0.0, "p95": 0.0, "max": 0.0}
        return {"count": self.count, "sum": self.total,
                **sample_summary(sorted(self.values))}


class _NullInstrument:
    """Shared no-op served by a disabled registry."""

    __slots__ = ()
    value = 0

    def inc(self, value: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named, labelled counters/gauges/histograms for one run (or many).

    Instruments are addressed by name plus keyword labels::

        registry.counter("link.epr_generations", link="0-1").inc(2)
        registry.histogram("comm.queue_wait", kind="tp").observe(3.5)

    A disabled registry serves shared no-op instruments, so call sites can
    stay unconditional.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[_Key, Counter] = {}
        self._gauges: Dict[_Key, Gauge] = {}
        self._histograms: Dict[_Key, Histogram] = {}
        #: Free-form instrument-handle cache for hot callers: lookups build
        #: sorted label keys, so code on a per-trial path resolves each
        #: instrument once and parks the handle here under its own key
        #: (shared-registry Monte-Carlo trials then reuse the handles).
        self.handles: Dict[object, object] = {}

    # ------------------------------------------------------------- accessors

    @staticmethod
    def _key(name: str, labels: Dict[str, object]) -> _Key:
        if not labels:
            return (name, ())
        return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))

    def counter(self, name: str, **labels) -> Counter:
        if not self.enabled:
            return _NULL_INSTRUMENT
        key = self._key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        if not self.enabled:
            return _NULL_INSTRUMENT
        key = self._key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels) -> Histogram:
        if not self.enabled:
            return _NULL_INSTRUMENT
        key = self._key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    # -------------------------------------------------------------- queries

    @staticmethod
    def _format_key(key: _Key) -> str:
        name, labels = key
        if not labels:
            return name
        inner = ",".join(f"{k}={v}" for k, v in labels)
        return f"{name}{{{inner}}}"

    def counter_values(self) -> Dict[str, float]:
        return {self._format_key(k): c.value
                for k, c in sorted(self._counters.items())}

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot: counters/gauges as values, histogram summaries."""
        return {
            "counters": {self._format_key(k): c.value
                         for k, c in sorted(self._counters.items())},
            "gauges": {self._format_key(k): g.value
                       for k, g in sorted(self._gauges.items())},
            "histograms": {self._format_key(k): h.summary()
                           for k, h in sorted(self._histograms.items())},
        }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (counters add, gauges
        overwrite, histograms pool their samples)."""
        for key, counter in other._counters.items():
            mine = self._counters.get(key)
            if mine is None:
                mine = self._counters[key] = Counter()
            mine.inc(counter.value)
        for key, gauge in other._gauges.items():
            if gauge.value is not None:
                mine = self._gauges.get(key)
                if mine is None:
                    mine = self._gauges[key] = Gauge()
                mine.set(gauge.value)
        for key, histogram in other._histograms.items():
            mine = self._histograms.get(key)
            if mine is None:
                mine = self._histograms[key] = Histogram()
            mine.values.extend(histogram.values)

    def top_counters(self, prefix: str, n: int = 5) -> List[Tuple[str, float]]:
        """The ``n`` largest counters whose name starts with ``prefix``."""
        matches = [(self._format_key(k), c.value)
                   for k, c in self._counters.items()
                   if k[0].startswith(prefix)]
        matches.sort(key=lambda kv: (-kv[1], kv[0]))
        return matches[:n]

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))
