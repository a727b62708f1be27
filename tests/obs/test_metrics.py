"""Unit tests for the counters/gauges/histograms metrics registry."""

import random

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim.trace import LatencyDistribution


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_keeps_last_value(self):
        gauge = Gauge()
        assert gauge.as_value() is None
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.as_value() == 1.5

    def test_histogram_summary(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(10.0)
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["p50"] == pytest.approx(2.5)

    def test_empty_histogram_summary_is_zeroes(self):
        assert Histogram().summary() == {"count": 0, "sum": 0.0, "mean": 0.0,
                                         "min": 0.0, "p50": 0.0, "p95": 0.0,
                                         "max": 0.0}

    def test_histogram_percentile_bounds(self):
        histogram = Histogram()
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(101)


def _summaries(samples):
    """``LatencyDistribution`` and ``Histogram`` summaries of ``samples``."""
    histogram = Histogram()
    for value in samples:
        histogram.observe(value)
    return LatencyDistribution(samples).summary(), histogram.summary()


class TestPercentileRange:
    """Percentiles interpolate between neighbouring samples, so they never
    leave ``[min, max]``, not even in the last bit."""

    def test_equal_samples_give_that_sample(self):
        # Equal latencies, as a ``p_epr=1.0`` Monte-Carlo run produces:
        # ``a * (1 - f) + b * f`` put p95 one ULP below the minimum.
        value = 950.0587958510158
        for summary in _summaries([value] * 74):
            assert summary["min"] == summary["p50"] == summary["p95"] \
                == summary["max"] == summary["mean"] == value
        # ``sum / n`` put the mean one ULP below the minimum and the std
        # at 5.7e-13.
        assert LatencyDistribution([value] * 74).std == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_percentiles_stay_ordered_within_the_samples(self, seed):
        rng = random.Random(seed)
        for _ in range(500):
            base = rng.uniform(0.0, 5000.0)
            size = rng.randint(1, 80)
            # Runs of equal samples, ULP-close ones and spread ones.
            samples = rng.choice((
                [base] * size,
                [base + rng.choice((0.0, 1e-12)) for _ in range(size)],
                [rng.uniform(0.0, 5000.0) for _ in range(size)]))
            latency, histogram = _summaries(samples)
            for summary in (latency, histogram):
                assert (summary["min"] <= summary["p50"] <= summary["p95"]
                        <= summary["max"])
                assert summary["min"] <= summary["mean"] <= summary["max"]
            assert latency["mean"] == histogram["mean"]


class TestMetricsRegistry:
    def test_same_name_and_labels_share_an_instrument(self):
        registry = MetricsRegistry()
        registry.counter("epr", link="0-1").inc()
        registry.counter("epr", link="0-1").inc(2)
        registry.counter("epr", link="1-2").inc()
        values = registry.counter_values()
        assert values == {"epr{link=0-1}": 3, "epr{link=1-2}": 1}

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("x", a=1, b=2).inc()
        registry.counter("x", b=2, a=1).inc()
        assert registry.counter_values() == {"x{a=1,b=2}": 2}

    def test_as_dict_sections(self):
        registry = MetricsRegistry()
        registry.counter("trials").inc(3)
        registry.gauge("latency").set(42.0)
        registry.histogram("wait").observe(1.0)
        snapshot = registry.as_dict()
        assert snapshot["counters"] == {"trials": 3}
        assert snapshot["gauges"] == {"latency": 42.0}
        assert snapshot["histograms"]["wait"]["count"] == 1

    def test_disabled_registry_serves_noops_and_stays_empty(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("a").inc(5)
        registry.gauge("b").set(1.0)
        registry.histogram("c").observe(2.0)
        assert len(registry) == 0
        assert registry.as_dict() == {"counters": {}, "gauges": {},
                                      "histograms": {}}

    def test_merge_pools_all_instrument_kinds(self):
        left = MetricsRegistry()
        left.counter("n").inc(1)
        left.gauge("g").set(1.0)
        left.histogram("h").observe(1.0)
        right = MetricsRegistry()
        right.counter("n").inc(2)
        right.counter("extra").inc(1)
        right.gauge("g").set(9.0)
        right.histogram("h").observe(3.0)

        left.merge(right)
        assert left.counter_values() == {"extra": 1, "n": 3}
        assert left.gauge("g").value == 9.0
        assert left.histogram("h").summary()["count"] == 2

    def test_chunked_merge_equals_sequential_registry(self):
        """Process-pool aggregation: one registry per worker chunk, merged
        in chunk order, must equal the registry a sequential run fills."""
        def record(registry, trial):
            registry.counter("epr.attempts").inc(trial + 1)
            registry.counter("link.gen", link=f"{trial % 3}").inc(2)
            registry.gauge("plan.size").set(40 + trial)
            registry.histogram("queue.wait").observe(float(trial) * 1.5)
            registry.histogram("occupancy", node="0").observe(trial % 4)

        trials = list(range(11))
        sequential = MetricsRegistry()
        for trial in trials:
            record(sequential, trial)

        merged = MetricsRegistry()
        chunks = [trials[0:4], trials[4:8], trials[8:11]]
        for chunk in chunks:
            worker = MetricsRegistry()
            for trial in chunk:
                record(worker, trial)
            merged.merge(worker)

        assert merged.as_dict() == sequential.as_dict()
        assert merged.counter_values() == sequential.counter_values()
        # Chunk-ordered histogram merge preserves the raw sample order, so
        # exact percentiles coincide at every quantile.
        for key, seq_hist in sequential._histograms.items():
            merged_hist = merged._histograms[key]
            assert merged_hist.values == seq_hist.values
            for q in (0, 10, 50, 95, 100):
                assert merged_hist.percentile(q) == seq_hist.percentile(q)
        # Gauges keep the last write (final trial), counters the exact sum.
        assert merged.gauge("plan.size").value == 40 + trials[-1]
        assert (merged.top_counters("link.", n=5)
                == sequential.top_counters("link.", n=5))

    def test_top_counters_orders_by_value(self):
        registry = MetricsRegistry()
        registry.counter("link.epr", link="0-1").inc(10)
        registry.counter("link.epr", link="1-2").inc(30)
        registry.counter("link.epr", link="2-3").inc(20)
        registry.counter("other").inc(99)
        top = registry.top_counters("link.", n=2)
        assert top == [("link.epr{link=1-2}", 30), ("link.epr{link=2-3}", 20)]
