"""Scheduler equivalence and edge-case tests.

The calendar-queue/heap hybrid and the timer wheel must be *bit-identical*
to the reference single-heap scheduler with self-scheduling timers (the
oracles in ``tests/oracles.py``): same event order, same RNG draws, same
``events_processed``, same metrics. These tests pin that equivalence on a
real seeded SWIM run and on randomized synthetic workloads, then cover the
edge cases a bucketed scheduler can get wrong: bucket-boundary exactness,
cancellation races, tombstone compaction, overflow migration, and the
timer-wheel interval-class bookkeeping.
"""

import json
import random
from contextlib import ExitStack, contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.gossip.swim import SwimAgent, SwimConfig
from repro.sim import Network, Simulator, Topology, loop
from repro.sim.events import DEFAULT_BUCKET_WIDTH, EventQueue
from tests.oracles import (
    HeapEventQueue,
    SelfSchedulingTimer,
    heap_scheduler,
    self_scheduling_timers,
)

#: (scheduler, timer wheel) per arm: ``"heap"`` swaps in the heap oracle and
#: ``False`` the self-scheduling timer oracle. The first arm is the
#: all-oracle reference; the last is the production kernel.
CONFIGS = [
    ("heap", False),
    ("heap", True),
    ("calendar", False),
    ("calendar", True),
]

CONFIG_IDS = [f"{s}-{'wheel' if c else 'plain'}" for s, c in CONFIGS]


@contextmanager
def arm(scheduler: str, coalesce: bool):
    """Build simulators and timers inside this block on the given arm."""
    with ExitStack() as stack:
        if scheduler == "heap":
            stack.enter_context(heap_scheduler())
        if not coalesce:
            stack.enter_context(self_scheduling_timers())
        yield


def check_arm(sim: Simulator, scheduler: str, coalesce=None) -> None:
    """The arm really ran its oracles (or really ran without them).

    ``coalesce=None`` skips the timer check, for runs with no periodic
    timers.
    """
    expected = HeapEventQueue if scheduler == "heap" else EventQueue
    assert type(sim._queue) is expected
    if coalesce is not None:
        assert (sim._wheel.class_count() > 0) == coalesce


def swim_summary(scheduler: str, coalesce: bool, seed: int = 7) -> str:
    """Canonical JSON summary of a seeded SWIM run under one scheduler."""
    with arm(scheduler, coalesce):
        sim, agents, network = _swim_run(seed)
    check_arm(sim, scheduler, coalesce)
    summary = {
        "events_processed": sim.events_processed,
        "counters": {
            name: network.metrics.counter(name).value
            for name in network.metrics.names()["counters"]
        },
        "meters": {
            f"addr{i}": [
                network.meter(f"addr{i}").total_bytes,
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


def _swim_run(seed: int):
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
    agents[3].stop()  # exercise timer teardown + dead-endpoint deliveries
    sim.run_until(20.0)
    return sim, agents, network


class TestSchedulerEquivalence:
    """The acceptance gate: every backend produces the same bytes."""

    def test_swim_run_identical_across_all_configs(self):
        reference = swim_summary("heap", False)
        for scheduler, coalesce in CONFIGS[1:]:
            assert swim_summary(scheduler, coalesce) == reference, (
                f"{scheduler}/coalesce={coalesce} diverged from heap baseline"
            )

    def test_synthetic_timer_storm_trace_identical(self):
        """Mixed-interval repeating timers: exact (time, seq, cb) traces."""

        def trace(scheduler, coalesce):
            log = []
            timers = []
            with arm(scheduler, coalesce):
                sim = Simulator(seed=3)
                for i, interval in enumerate([0.1, 0.1, 0.25, 0.25, 1.0, 0.1]):
                    timers.append(
                        sim.call_every(
                            interval,
                            (lambda i=i: log.append((round(sim.now, 9), i))),
                            jitter=interval * 0.1,
                            rng=sim.derive_rng(f"t{i}"),
                        )
                    )
            check_arm(sim, scheduler, coalesce)
            sim.schedule(2.0, timers[1].stop)
            sim.schedule(3.0, lambda: timers[2].set_interval(0.5))
            sim.run_until(6.0)
            return log, sim.events_processed

        reference = trace("heap", False)
        for scheduler, coalesce in CONFIGS[1:]:
            assert trace(scheduler, coalesce) == reference

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_random_one_shot_workload_order_identical(self, seed):
        """Random schedule/cancel mixes pop in identical order everywhere."""
        rng = random.Random(seed)
        ops = []
        t = 0.0
        for i in range(120):
            t += rng.random() * 2.0
            # Delays straddle the wheel horizon (0.05 * 512 = 25.6 s) so
            # bucket inserts, front pushes and overflow all get exercised.
            ops.append((t, rng.random() * 40.0, rng.random() < 0.25))

        def run(scheduler):
            with arm(scheduler, True):
                sim = Simulator(seed=0)
            check_arm(sim, scheduler)
            fired = []
            for i, (at, delay, cancel) in enumerate(ops):
                def schedule_one(i=i, delay=delay, cancel=cancel):
                    handle = sim.schedule(delay, lambda i=i: fired.append((round(sim.now, 9), i)))
                    if cancel:
                        handle.cancel()
                sim.schedule_at(at, schedule_one)
            sim.run_until(120.0)
            return fired, sim.events_processed

        assert run("calendar") == run("heap")


class TestCalendarQueueEdges:
    def test_run_until_exact_at_bucket_edge(self):
        """Events exactly on a bucket boundary fire when the clock reaches it."""
        sim = Simulator(seed=0)
        width = sim._queue.bucket_width
        fired = []
        for k in (1, 2, 3):
            sim.schedule_at(k * width, lambda k=k: fired.append(k))
        sim.run_until(2 * width)
        assert fired == [1, 2]
        assert sim.now == 2 * width
        sim.run_until(3 * width)
        assert fired == [1, 2, 3]

    def test_zero_delay_self_rescheduling(self):
        """Zero-delay chains land in the already-draining front bucket."""
        sim = Simulator(seed=0)
        hits = []

        def chain(n):
            hits.append(n)
            if n < 5:
                sim.schedule(0.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run_until(0.0)
        assert hits == [0, 1, 2, 3, 4, 5]
        assert sim.now == 0.0

    def test_cancel_then_fire_race_across_bucket_boundary(self):
        """Cancelling from an earlier bucket suppresses a later-bucket event."""
        sim = Simulator(seed=0)
        width = sim._queue.bucket_width
        fired = []
        victim = sim.schedule(2.5 * width, lambda: fired.append("victim"))
        sim.schedule(0.5 * width, victim.cancel)
        sim.schedule(2.5 * width, lambda: fired.append("survivor"))
        sim.run_until(5 * width)
        assert fired == ["survivor"]
        assert victim.cancelled

    def test_overflow_migrates_into_wheel(self, monkeypatch):
        """Far-future events beyond the horizon still fire, in order."""
        monkeypatch.setattr(loop, "EventQueue", lambda: EventQueue(wheel_span=8))
        sim = Simulator(seed=0)
        monkeypatch.undo()
        width = sim._queue.bucket_width
        horizon = 8 * width
        fired = []
        # Far beyond the horizon, scheduled out of order.
        for k in (40, 10, 25):
            sim.schedule(horizon * k, lambda k=k: fired.append(k))
        sim.schedule(0.5 * width, lambda: fired.append("near"))
        sim.run_until(horizon * 50)
        assert fired == ["near", 10, 25, 40]

    def test_overflow_only_queue_jumps_window(self):
        """An empty wheel with a distant head jumps instead of spinning."""
        sim = Simulator(seed=0)
        fired = []
        sim.schedule(10_000.0, lambda: fired.append("far"))
        sim.run_until(10_000.0)
        assert fired == ["far"]
        assert sim.events_processed == 1

    def test_compaction_purges_tombstones_preserving_order(self):
        queue = EventQueue()
        handles = []
        for i in range(2000):
            handles.append(queue.push(i * 0.01, lambda: None, (i,)))
        # Cancel 90% of them through the tombstone path; compaction fires
        # whenever >=512 tombstones outnumber the remaining entries, so the
        # queue must end far below its 2000-entry peak (only the tail of
        # cancellations after the last sweep may still linger).
        for i, event in enumerate(handles):
            if i % 10:
                event.cancelled = True
                queue.note_cancelled()
        assert len(queue) < 1000
        fired = []
        while True:
            event = queue.pop()
            if event is None:
                break
            fired.append(event.args[0])
        assert fired == [i for i in range(2000) if i % 10 == 0]

    def test_len_tracks_live_and_cancelled_entries(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None, ()) for i in range(10)]
        assert len(queue) == 10
        for event in events[:3]:
            event.cancelled = True
            queue.note_cancelled()
        # Below the compaction threshold nothing is swept yet.
        assert len(queue) == 10
        for _ in range(7):
            queue.pop()
        assert len(queue) == 0

    def test_bad_scheduler_name_rejected(self):
        # The scheduler is no longer selectable: any ``scheduler=`` is an
        # unknown keyword.
        with pytest.raises(TypeError):
            Simulator(scheduler="fifo")

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            EventQueue(bucket_width=0.0)
        with pytest.raises(ValueError):
            EventQueue(wheel_span=0)

    def test_default_width_matches_probe_interval_fraction(self):
        assert DEFAULT_BUCKET_WIDTH == pytest.approx(
            SwimConfig().probe_interval / 20
        )


class TestTimerWheel:
    def test_same_interval_timers_share_one_class(self):
        sim = Simulator(seed=0)
        for _ in range(50):
            sim.call_every(1.0, lambda: None)
        for _ in range(30):
            sim.call_every(0.1, lambda: None)
        assert sim._wheel.class_count() == 2
        # 80 timers, but only one queued sentinel per interval class.
        assert len(sim._queue) == 2

    def test_set_interval_mid_flight_moves_class(self):
        sim = Simulator(seed=0)
        fired = []
        timer = sim.call_every(1.0, lambda: fired.append(sim.now))
        sim.run_until(2.5)
        assert fired == [1.0, 2.0]
        timer.set_interval(0.5)
        sim.run_until(4.1)
        # Next firing still honours the old arming (3.0), then 0.5 cadence.
        assert fired == [1.0, 2.0, 3.0, 3.5, 4.0]
        # The abandoned 1.0s class is reaped once its last member migrates.
        assert sim._wheel.class_count() == 1

    def test_idle_interval_classes_are_reaped(self):
        # ROADMAP-noted leak: a sim churning through many distinct intervals
        # (adaptive probe timers) must not accumulate empty classes.
        sim = Simulator(seed=0)
        for i in range(100):
            timer = sim.call_every(1.0 + i * 0.01, lambda: None)
            timer.stop()
        assert sim._wheel.class_count() == 0
        # Only cancelled tombstones remain queued (reclaimed by compaction).
        sim.run_until(2.0)
        assert len(sim._queue) == 0

    def test_adaptive_interval_churn_bounds_class_count(self):
        sim = Simulator(seed=0)
        fired = []
        timer = sim.call_every(1.0, lambda: fired.append(sim.now))
        # Adapt the interval every firing; each migration must reap the
        # class left behind, keeping exactly one live class.
        for i in range(50):
            sim.run_until(sim.now + timer.interval + 0.001)
            timer.set_interval(timer.interval * 1.01)
            assert sim._wheel.class_count() <= 2
        assert len(fired) >= 50
        assert sim._wheel.class_count() == 1

    def test_reaped_class_is_recreated_on_reuse(self):
        sim = Simulator(seed=0)
        fired = []
        first = sim.call_every(1.0, lambda: fired.append("first"))
        first.stop()
        assert sim._wheel.class_count() == 0
        sim.call_every(1.0, lambda: fired.append("second"))
        assert sim._wheel.class_count() == 1
        sim.run_until(1.0)
        assert fired == ["second"]

    def test_stop_from_own_callback(self):
        sim = Simulator(seed=0)
        fired = []
        timer = sim.call_every(0.5, lambda: (fired.append(sim.now), timer.stop()))
        sim.run_until(5.0)
        assert fired == [0.5]

    def test_stop_head_retargets_sentinel_to_next_member(self):
        sim = Simulator(seed=0)
        fired = []
        first = sim.call_every(1.0, lambda: fired.append("first"))
        second = sim.call_every(1.0, lambda: fired.append("second"))
        first.stop()  # first holds the earlier (time, seq); sentinel re-aims
        sim.run_until(1.0)
        assert fired == ["second"]

    def test_stopped_timer_cannot_restart(self):
        sim = Simulator(seed=0)
        timer = sim.call_every(1.0, lambda: None)
        timer.stop()
        with pytest.raises(SimulationError):
            timer.start()

    def test_wheel_off_matches_wheel_on_per_timer_state(self):
        traces = {}
        for coalesce in (False, True):
            fired = []
            with arm("calendar", coalesce):
                sim = Simulator(seed=5)
                timer = sim.call_every(
                    0.25, lambda: fired.append(round(sim.now, 9))
                )
            assert isinstance(timer, SelfSchedulingTimer) != coalesce
            sim.run_until(2.0)
            traces[coalesce] = fired
        assert traces[False] == traces[True] != []
