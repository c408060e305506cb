"""MetricsTimeseries unit tests: sampling, merging, tee, emission."""

import json

from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsTimeseries,
    RecorderTee,
    combined_recorder,
    metrics_part,
    trace_part,
)
from repro.obs.trace import TraceRecorder


class TestSampling:
    def test_samples_carry_counter_deltas_not_cumulative_values(self):
        metrics = MetricsTimeseries()
        metrics.count("engine:queries", 10)
        metrics.sample(time_s=60.0)
        metrics.count("engine:queries", 5)
        metrics.sample(time_s=120.0)
        first, second = metrics.samples
        assert first["counters"]["engine:queries"] == 10
        assert second["counters"]["engine:queries"] == 5
        # Cumulative value reconstructs by summing the deltas.
        assert metrics.counter("engine:queries") == 15

    def test_unmoved_counters_are_omitted_from_the_sample(self):
        metrics = MetricsTimeseries()
        metrics.count("engine:queries", 3)
        metrics.sample(time_s=60.0)
        metrics.count("cache:admit")
        metrics.sample(time_s=120.0)
        second = metrics.samples[1]
        assert "engine:queries" not in second["counters"]
        assert second["counters"]["cache:admit"] == 1

    def test_hit_rate_derives_from_the_epoch_deltas(self):
        metrics = MetricsTimeseries()
        metrics.count("engine:queries", 4)
        metrics.count("engine:cache_hits", 3)
        metrics.sample(time_s=60.0)
        assert metrics.samples[0]["hit_rate"] == 0.75

    def test_batch_occupancy_derives_from_window_events(self):
        metrics = MetricsTimeseries()
        metrics.event("batch_window", time_s=10.0, size=4)
        metrics.event("batch_window", time_s=20.0, size=2)
        metrics.sample(time_s=60.0)
        assert metrics.samples[0]["batch_occupancy"] == 3.0

    def test_epochs_auto_increment_per_source(self):
        metrics = MetricsTimeseries()
        metrics.sample(time_s=60.0)
        metrics.sample(time_s=120.0)
        metrics.sample(time_s=180.0, final=True)
        assert [s["epoch"] for s in metrics.samples] == [1, 2, 3]
        assert [s["final"] for s in metrics.samples] == [False, False, True]

    def test_gauges_ride_the_sample_payload(self):
        metrics = MetricsTimeseries()
        metrics.sample(time_s=60.0, provider_credit=12.5, cache_entries=3)
        sample = metrics.samples[0]
        assert sample["provider_credit"] == 12.5
        assert sample["cache_entries"] == 3

    def test_events_fold_into_counters_without_per_event_storage(self):
        metrics = MetricsTimeseries()
        for _ in range(100):
            metrics.event("QueryArrivalEvent", time_s=1.0)
        metrics.span("settlement", start_s=0.0, end_s=60.0)
        assert metrics.counter("event:QueryArrivalEvent") == 100
        assert metrics.counter("event:settlement") == 1
        assert len(metrics) == 0  # no samples yet, nothing stored per event


class TestAbsorb:
    def test_absorb_keeps_source_tags_and_sums_per_source(self):
        merged = MetricsTimeseries(source="merge")
        for index in range(2):
            part = MetricsTimeseries(source=f"partition{index}")
            part.count("engine:queries", 60)
            part.sample(time_s=60.0)
            merged.absorb(part)
        assert sorted(merged.counters) == ["partition0", "partition1"]
        # Replicated replays must not double-count across sources.
        assert merged.counter("engine:queries", source="partition0") == 60
        assert len(merged.samples) == 2

    def test_absorbed_emission_is_sorted_and_deterministic(self):
        first = MetricsTimeseries(source="b")
        first.sample(time_s=60.0)
        second = MetricsTimeseries(source="a")
        second.sample(time_s=60.0)
        merged = MetricsTimeseries(source="merge")
        merged.absorb(first)
        merged.absorb(second)
        sources = [s["source"] for s in merged.samples]
        assert sources == ["a", "b"]
        reversed_merge = MetricsTimeseries(source="merge")
        reversed_merge.absorb(second)
        reversed_merge.absorb(first)
        assert merged.jsonl_lines() == reversed_merge.jsonl_lines()


class TestEmission:
    def test_header_samples_and_counters_in_order(self):
        metrics = MetricsTimeseries()
        metrics.count("engine:queries", 6)
        metrics.sample(time_s=60.0, final=True)
        lines = [json.loads(line) for line in metrics.jsonl_lines()]
        assert lines[0]["kind"] == "metrics_header"
        assert lines[0]["schema_version"] == METRICS_SCHEMA_VERSION
        assert lines[0]["samples"] == 1
        assert lines[1]["kind"] == "sample"
        assert lines[2] == {"kind": "counter", "source": "run",
                            "name": "engine:queries", "value": 6}

    def test_write_roundtrips(self, tmp_path):
        metrics = MetricsTimeseries()
        metrics.sample(time_s=60.0)
        path = tmp_path / "m.jsonl"
        metrics.write(str(path))
        assert path.read_text().splitlines() == metrics.jsonl_lines()


class TestTee:
    def test_tee_fans_out_to_both_sinks(self):
        trace = TraceRecorder()
        metrics = MetricsTimeseries()
        tee = RecorderTee(trace, metrics)
        tee.count("cache:admit")
        tee.event("eviction", time_s=5.0)
        tee.span("build", start_s=0.0, end_s=2.0)
        assert trace.counter("cache:admit") == 1
        assert metrics.counter("cache:admit") == 1
        assert metrics.counter("event:eviction") == 1
        assert metrics.counter("event:build") == 1

    def test_combined_recorder_picks_the_minimal_sink(self):
        trace = TraceRecorder()
        metrics = MetricsTimeseries()
        assert combined_recorder(None, None) is None
        assert combined_recorder(trace, None) is trace
        assert combined_recorder(None, metrics) is metrics
        both = combined_recorder(trace, metrics)
        assert isinstance(both, RecorderTee)

    def test_parts_unwrap_any_attached_shape(self):
        trace = TraceRecorder()
        metrics = MetricsTimeseries()
        tee = RecorderTee(trace, metrics)
        assert trace_part(tee) is trace
        assert metrics_part(tee) is metrics
        assert trace_part(trace) is trace
        assert metrics_part(trace) is None
        assert trace_part(metrics) is None
        assert metrics_part(metrics) is metrics
        assert trace_part(None) is None
        assert metrics_part(None) is None
