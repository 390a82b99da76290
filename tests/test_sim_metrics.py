"""Unit and property tests for metrics primitives."""

import math

# Module scope: paying numpy's first-import cost inside a Hypothesis example
# blows the deadline on loaded machines.
import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.metrics import (
    BandwidthMeter,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    WindowTruncatedError,
)


class TestCounter:
    def test_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_and_peak(self):
        g = Gauge("g")
        g.set(5.0)
        g.set(2.0)
        assert g.value == 2.0
        assert g.peak == 5.0

    def test_add(self):
        g = Gauge("g")
        g.add(3.0)
        g.add(-1.0)
        assert g.value == 2.0

    def test_peak_of_negative_only_gauge(self):
        # Regression: peak used to start at 0.0, so a gauge that only ever
        # held negative values reported a peak that was never set.
        g = Gauge("g")
        g.set(-5.0)
        g.set(-2.0)
        g.set(-9.0)
        assert g.peak == -2.0

    def test_peak_unset_is_nan(self):
        assert math.isnan(Gauge("g").peak)


class TestHistogram:
    def test_empty_stats_are_nan(self):
        h = Histogram("h")
        assert math.isnan(h.mean())
        assert math.isnan(h.percentile(50))

    def test_basic_percentiles(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(50) == pytest.approx(50.5)

    def test_percentile_bounds_checked(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_observe_after_percentile(self):
        h = Histogram("h")
        h.observe(10.0)
        assert h.percentile(50) == 10.0
        h.observe(0.0)
        assert h.percentile(0) == 0.0

    def test_summary_fields(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["max"] == 3.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    def test_percentiles_monotone_and_bounded(self, values):
        h = Histogram("h")
        for v in values:
            h.observe(v)
        p50, p75, p99 = h.percentile(50), h.percentile(75), h.percentile(99)
        # Linear interpolation can exceed the extremes by float epsilon.
        tolerance = 1e-9 + abs(max(values)) * 1e-12
        assert min(values) - tolerance <= p50 <= p75 + tolerance
        assert p75 <= p99 + tolerance
        assert p99 <= max(values) + tolerance

    @settings(deadline=1000)
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100))
    def test_percentile_matches_numpy(self, values):
        h = Histogram("h")
        for v in values:
            h.observe(v)
        for p in (25, 50, 90):
            assert h.percentile(p) == pytest.approx(
                float(numpy.percentile(values, p)), rel=1e-6, abs=1e-6
            )


class TestStreamingHistogram:
    def test_empty_stats_are_nan(self):
        h = Histogram("h", streaming=True)
        assert math.isnan(h.mean())
        assert math.isnan(h.percentile(50))
        assert math.isnan(h.min())
        assert math.isnan(h.max())

    def test_exact_count_total_min_max(self):
        h = Histogram("h", streaming=True)
        for v in (3.0, -1.0, 10.0, 0.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(12.0)
        assert h.mean() == pytest.approx(3.0)
        assert h.min() == -1.0
        assert h.max() == 10.0

    def test_extremes_exact(self):
        h = Histogram("h", streaming=True)
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0

    def test_percentile_within_relative_error(self):
        h = Histogram("h", streaming=True)
        values = [1.5 ** i for i in range(40)]
        for v in values:
            h.observe(v)
        values.sort()
        for p in (10, 50, 90, 99):
            k = max(1, math.ceil(p / 100 * len(values)))
            exact = values[k - 1]
            assert h.percentile(p) == pytest.approx(exact, rel=0.02)

    def test_negative_values(self):
        h = Histogram("h", streaming=True)
        for v in (-100.0, -10.0, -1.0):
            h.observe(v)
        assert h.percentile(0) == -100.0
        assert -11.0 < h.percentile(50) < -9.0

    def test_summary_shape_matches_exact_mode(self):
        exact, streaming = Histogram("e"), Histogram("s", streaming=True)
        for v in range(1, 1001):
            exact.observe(float(v))
            streaming.observe(float(v))
        se, ss = exact.summary(), streaming.summary()
        assert set(se) == set(ss)
        assert ss["count"] == se["count"]
        assert ss["p99"] == pytest.approx(se["p99"], rel=0.03)

    def test_bounds_checked(self):
        h = Histogram("h", streaming=True)
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(-1)


class TestHistogramMerge:
    values = st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        max_size=60,
    )

    @pytest.mark.parametrize("streaming", [False, True], ids=["exact", "streaming"])
    @given(left=values, right=values)
    @settings(max_examples=60)
    def test_merged_percentiles_match_union(self, streaming, left, right):
        merged = Histogram("a", streaming=streaming)
        other = Histogram("b", streaming=streaming)
        union = Histogram("u", streaming=streaming)
        for v in left:
            merged.observe(v)
            union.observe(v)
        for v in right:
            other.observe(v)
            union.observe(v)
        merged.merge(other)
        assert merged.count == union.count
        for p in (0, 1, 25, 50, 75, 99, 100):
            got, want = merged.percentile(p), union.percentile(p)
            assert got == want or (math.isnan(got) and math.isnan(want))
        assert merged.min() == union.min() or math.isnan(union.min())
        assert merged.max() == union.max() or math.isnan(union.max())
        assert merged.total == pytest.approx(union.total)

    def test_mixed_modes_rejected(self):
        with pytest.raises(ValueError):
            Histogram("a").merge(Histogram("b", streaming=True))


class TestTimeSeries:
    def test_window_and_mean(self):
        ts = TimeSeries("t")
        for i in range(10):
            ts.record(float(i), float(i) * 2)
        assert len(ts.window(2.0, 4.0)) == 3
        assert ts.mean_over(0.0, 9.0) == pytest.approx(9.0)

    def test_mean_empty_window_nan(self):
        ts = TimeSeries("t")
        assert math.isnan(ts.mean_over(0, 1))

    def test_out_of_order_records_still_queryable(self):
        ts = TimeSeries("t")
        for t in (5.0, 1.0, 3.0):
            ts.record(t, t * 10)
        assert ts.window(0.0, 3.5) == [(1.0, 10.0), (3.0, 30.0)]
        assert ts.mean_over(0.0, 6.0) == pytest.approx(30.0)

    def test_interleaved_record_and_query(self):
        ts = TimeSeries("t")
        for t in range(100):
            ts.record(float(t), 1.0)
            assert ts.mean_over(0.0, float(t)) == pytest.approx(1.0)


class TestBandwidthMeter:
    def test_totals(self):
        m = BandwidthMeter("m")
        m.on_send_many(0.0, 100, 1)
        m.on_receive(1.0, 50)
        assert m.bytes_sent == 100
        assert m.bytes_received == 50
        assert m.total_bytes == 150
        assert m.messages_sent == 1
        assert m.messages_received == 1

    def test_windowed_rate(self):
        m = BandwidthMeter("m")
        for t in range(10):
            m.on_send_many(float(t), 100, 1)
        assert m.bytes_in_window(0.0, 4.0) == 500
        assert m.rate_bps(0.0, 10.0) == pytest.approx(100.0)

    def test_rate_requires_positive_window(self):
        m = BandwidthMeter("m")
        with pytest.raises(ValueError):
            m.rate_bps(1.0, 1.0)

    def test_reset(self):
        m = BandwidthMeter("m")
        m.on_send_many(0.0, 100, 1)
        m.reset()
        assert m.total_bytes == 0
        assert m.bytes_in_window(0, 10) == 0

    def test_no_event_recording(self):
        m = BandwidthMeter("m", record_events=False)
        m.on_send_many(0.0, 100, 1)
        m.on_receive(2.0, 50)
        assert m.bytes_sent == 100
        # Aggregate mode: a window covering every observed event answers
        # exactly from the totals ...
        assert m.bytes_in_window(0, 10) == 150
        assert m.bytes_in_window(0.0, 2.0) == 150
        # ... and a partial window raises instead of undercounting (the
        # per-event breakdown was never recorded).
        with pytest.raises(WindowTruncatedError):
            m.bytes_in_window(1.0, 10.0)
        with pytest.raises(WindowTruncatedError):
            m.bytes_in_window(0.0, 1.5)

    def test_no_event_recording_empty_meter(self):
        m = BandwidthMeter("m", record_events=False)
        assert m.bytes_in_window(0, 10) == 0

    def test_interleaved_record_and_window_query(self):
        m = BandwidthMeter("m")
        for t in range(50):
            m.on_send_many(float(t), 10, 1)
            assert m.bytes_in_window(0.0, float(t)) == 10 * (t + 1)

    def test_out_of_order_events_still_counted(self):
        m = BandwidthMeter("m")
        for t in (5.0, 1.0, 3.0):
            m.on_send_many(t, 100, 1)
        assert m.bytes_in_window(0.0, 3.5) == 200
        assert m.bytes_in_window(0.0, 10.0) == 300

    def test_event_accessors(self):
        m = BandwidthMeter("m")
        m.on_send_many(1.0, 10, 1)
        m.on_receive(2.0, 20)
        assert m.sent_events() == [(1.0, 10)]
        assert m.received_events() == [(2.0, 20)]


class TestBandwidthMeterTruncation:
    times = st.floats(min_value=0, max_value=1000, allow_nan=False)
    sizes = st.integers(min_value=0, max_value=10**6)
    events = st.lists(st.tuples(times, sizes), min_size=1, max_size=300)

    @given(sent=events, received=events, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_recent_windows_agree_with_untruncated_meter(
        self, sent, received, data
    ):
        """Any window starting inside the horizon is truncation-invariant."""
        horizon = data.draw(st.floats(min_value=1.0, max_value=500.0))
        plain = BandwidthMeter("plain")
        ring = BandwidthMeter("ring", horizon=horizon)
        for t, size in sorted(sent):
            plain.on_send_many(t, size, 1)
            ring.on_send_many(t, size, 1)
        for t, size in sorted(received):
            plain.on_receive(t, size)
            ring.on_receive(t, size)
        ring.truncate_now()
        newest = max(t for t, _ in sent + received)
        start = data.draw(
            st.floats(min_value=max(0.0, newest - horizon), max_value=newest)
        )
        end = data.draw(st.floats(min_value=start, max_value=1000.0))
        assert ring.bytes_in_window(start, end) == plain.bytes_in_window(start, end)
        # Totals never truncate.
        assert ring.total_bytes == plain.total_bytes
        assert ring.messages_sent == plain.messages_sent

    def test_truncation_drops_old_events(self):
        m = BandwidthMeter("m", horizon=10.0)
        for t in range(100):
            m.on_send_many(float(t), 1, 1)
        m.truncate_now()
        assert len(m.sent_events()) == 11  # t in [89, 99]
        assert m.bytes_in_window(89.0, 99.0) == 11
        assert m.bytes_sent == 100  # totals unaffected

    def test_auto_truncation_bounds_memory(self):
        m = BandwidthMeter("m", horizon=1.0)
        step = 1.0 / 256  # 256 events per horizon; sweep every 1024
        for i in range(20_000):
            m.on_send_many(i * step, 1, 1)
        # Without truncation the log would hold 20k events; with it the log
        # can never exceed one horizon plus one sweep period of backlog.
        assert len(m.sent_events()) <= 256 + m._TRUNCATE_EVERY

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            BandwidthMeter("m", horizon=0.0)

    def test_truncate_now_requires_horizon(self):
        m = BandwidthMeter("m")
        with pytest.raises(ValueError):
            m.truncate_now()

    def test_window_behind_truncation_point_raises(self):
        """A query reaching behind the horizon must raise, not undercount:
        events there are gone, so any number it returned would be wrong."""
        m = BandwidthMeter("m", horizon=10.0)
        for t in range(100):
            m.on_send_many(float(t), 1, 1)
        m.truncate_now()
        assert m.truncated_before == 89.0
        with pytest.raises(WindowTruncatedError):
            m.bytes_in_window(0.0, 99.0)
        with pytest.raises(WindowTruncatedError):
            m.rate_bps(50.0, 99.0)
        # Starting exactly at the truncation point is the oldest exact query.
        assert m.bytes_in_window(89.0, 99.0) == 11
        assert m.bytes_in_window(95.0, 99.0) == 5

    def test_truncated_before_is_minus_inf_until_events_dropped(self):
        m = BandwidthMeter("m", horizon=10.0)
        assert m.truncated_before == -math.inf
        m.on_send_many(1.0, 1, 1)
        m.on_receive(2.0, 1)
        m.truncate_now()  # nothing older than the horizon: no-op
        assert m.truncated_before == -math.inf
        assert m.bytes_in_window(0.0, 5.0) == 2  # pre-truncation starts fine

    def test_truncated_before_tracks_both_directions(self):
        m = BandwidthMeter("m", horizon=5.0)
        for t in range(20):
            m.on_send_many(float(t), 1, 1)
        m.on_receive(19.0, 1)
        m.truncate_now()  # drops sends before 14.0; receive log untouched
        assert m.truncated_before == 14.0
        with pytest.raises(WindowTruncatedError):
            m.bytes_in_window(13.0, 19.0)
        assert m.bytes_in_window(14.0, 19.0) == 7

    def test_reset_clears_truncation_point(self):
        m = BandwidthMeter("m", horizon=1.0)
        for t in range(10):
            m.on_send_many(float(t), 1, 1)
        m.truncate_now()
        assert m.truncated_before > -math.inf
        m.reset()
        assert m.truncated_before == -math.inf
        m.on_send_many(0.5, 3, 1)
        assert m.bytes_in_window(0.0, 1.0) == 3

    def test_window_truncated_error_is_value_error(self):
        # Callers that already guard bytes_in_window with ValueError keep
        # working; the subclass only adds precision.
        assert issubclass(WindowTruncatedError, ValueError)


class TestRegistry:
    def test_same_name_same_instance(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")
        assert r.gauge("g") is r.gauge("g")
        assert r.histogram("h") is r.histogram("h")
        assert r.timeseries("t") is r.timeseries("t")

    def test_names_listing(self):
        r = MetricsRegistry()
        r.counter("a")
        r.histogram("b")
        names = r.names()
        assert "a" in names["counters"]
        assert "b" in names["histograms"]

    def test_get_counter_missing(self):
        assert MetricsRegistry().get_counter("nope") is None
