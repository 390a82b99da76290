"""Property tests pinning the optimized kernel hot paths to naive reference
implementations, plus a determinism test over a seeded gossip run.

The perf pass replaced linear scans (``BandwidthMeter.bytes_in_window``,
``TimeSeries.window``/``mean_over``) with bisect + prefix sums and added a
bucketed streaming percentile mode; these tests assert the fast paths agree
with the obviously-correct O(n) versions on random inputs, and that a
fixed-seed simulation still produces byte-identical metric summaries run to
run.
"""

import json
import math

import pytest
from hypothesis import given, strategies as st

from repro.gossip.swim import SwimAgent, SwimConfig
from repro.sim import Network, Simulator, Topology
from repro.sim.metrics import BandwidthMeter, Histogram, TimeSeries

times = st.floats(min_value=0, max_value=1e6, allow_nan=False)
sizes = st.integers(min_value=0, max_value=10**6)
events = st.lists(st.tuples(times, sizes), max_size=200)
windows = st.tuples(times, times)


def naive_bytes_in_window(event_list, start, end):
    return sum(size for t, size in event_list if start <= t <= end)


class TestBandwidthMeterAgainstNaive:
    @given(sent=events, received=events, window=windows)
    def test_bytes_in_window_matches_scan(self, sent, received, window):
        start, end = min(window), max(window)
        meter = BandwidthMeter("m")
        for t, size in sent:
            meter.on_send_many(t, size, 1)
        for t, size in received:
            meter.on_receive(t, size)
        expected = naive_bytes_in_window(sent, start, end) + naive_bytes_in_window(
            received, start, end
        )
        assert meter.bytes_in_window(start, end) == expected

    @given(sent=events, window=windows)
    def test_queries_interleaved_with_appends(self, sent, window):
        start, end = min(window), max(window)
        meter = BandwidthMeter("m")
        for t, size in sent:
            meter.on_send_many(t, size, 1)
            # Query after every append so the prefix cache is repeatedly
            # extended and (on out-of-order input) rebuilt.
            meter.bytes_in_window(start, end)
        expected = naive_bytes_in_window(sent, start, end)
        assert meter.bytes_in_window(start, end) == expected


class TestTimeSeriesAgainstNaive:
    samples = st.lists(st.tuples(times, st.floats(-1e6, 1e6)), max_size=200)

    @given(samples=samples, window=windows)
    def test_window_matches_scan(self, samples, window):
        start, end = min(window), max(window)
        ts = TimeSeries("t")
        for t, v in samples:
            ts.record(t, v)
        expected = sorted(
            [(t, v) for t, v in samples if start <= t <= end],
            key=lambda sample: sample[0],
        )
        got = ts.window(start, end)
        assert sorted(got, key=lambda sample: sample[0]) == expected
        assert got == sorted(got, key=lambda sample: sample[0])

    @given(samples=samples, window=windows)
    def test_mean_over_matches_scan(self, samples, window):
        start, end = min(window), max(window)
        ts = TimeSeries("t")
        for t, v in samples:
            ts.record(t, v)
        in_window = [v for t, v in samples if start <= t <= end]
        if not in_window:
            assert math.isnan(ts.mean_over(start, end))
        else:
            assert ts.mean_over(start, end) == pytest.approx(
                sum(in_window) / len(in_window)
            )


class TestStreamingPercentileAgainstExact:
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=300,
        ),
        p=st.floats(min_value=0, max_value=100),
    )
    def test_within_bucket_relative_error(self, values, p):
        h = Histogram("h", streaming=True)
        for v in values:
            h.observe(v)
        ordered = sorted(values)
        if p == 0:
            assert h.percentile(p) == ordered[0]
            return
        if p == 100:
            assert h.percentile(p) == ordered[-1]
            return
        # The streaming value's bucket contains the exact nearest-rank
        # sample, so the error is bounded by the bucket width (~1% relative)
        # plus the sub-1e-9 magnitudes collapsed into the zero bucket.
        k = max(1, math.ceil((p / 100) * len(ordered)))
        exact = ordered[k - 1]
        assert h.percentile(p) == pytest.approx(exact, rel=0.02, abs=1e-8)


def run_seeded_gossip(seed: int = 7) -> str:
    """A fixed-seed SWIM run; returns a canonical JSON metrics summary."""
    sim = Simulator(seed=seed)
    topology = Topology()
    network = Network(sim, topology)
    regions = [r.name for r in topology.regions]
    agents = []
    for i in range(8):
        agent = SwimAgent(
            sim,
            network,
            f"n{i}",
            f"addr{i}",
            regions[i % len(regions)],
            SwimConfig(sync_interval=5.0),
        )
        agent.start()
        agents.append(agent)
    for agent in agents[1:]:
        agent.join(["addr0"])
    sim.run_until(8.0)
    agents[3].stop()  # in-flight messages to it exercise the dead-endpoint path
    sim.run_until(20.0)

    summary = {
        "events_processed": sim.events_processed,
        "counters": {
            name: network.metrics.counter(name).value
            for name in network.metrics.names()["counters"]
        },
        "meters": {
            f"addr{i}": [
                network.meter(f"addr{i}").total_bytes,
                network.meter(f"addr{i}").bytes_in_window(0.0, 10.0),
                network.meter(f"addr{i}").bytes_in_window(5.0, 20.0),
            ]
            for i in range(8)
        },
        "alive_views": sorted(
            (agent.name, sorted(m.name for m in agent.alive_members()))
            for agent in agents
            if agent.running
        ),
    }
    return json.dumps(summary, sort_keys=True)


class TestSeededDeterminism:
    def test_same_seed_byte_identical_summaries(self):
        assert run_seeded_gossip(7) == run_seeded_gossip(7)

    def test_different_seed_differs(self):
        assert run_seeded_gossip(7) != run_seeded_gossip(8)

    def test_optimized_windows_match_naive_on_real_run(self):
        sim = Simulator(seed=11)
        topology = Topology()
        network = Network(sim, topology)
        regions = [r.name for r in topology.regions]
        agents = []
        for i in range(6):
            agent = SwimAgent(
                sim, network, f"n{i}", f"addr{i}", regions[i % len(regions)]
            )
            agent.start()
            agents.append(agent)
        for agent in agents[1:]:
            agent.join(["addr0"])
        sim.run_until(10.0)
        for i in range(6):
            meter = network.meter(f"addr{i}")
            for start, end in ((0.0, 10.0), (2.5, 7.5), (9.0, 9.5)):
                expected = naive_bytes_in_window(
                    meter.sent_events(), start, end
                ) + naive_bytes_in_window(meter.received_events(), start, end)
                assert meter.bytes_in_window(start, end) == expected
