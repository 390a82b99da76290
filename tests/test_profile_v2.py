"""Determinism-profile (v1 vs v2) equivalence and arena round-trip tests.

The v2 fast profile replaces per-draw ``random.Random`` calls with batched
numpy draws, per-message objects with arena slots, and leaves the GC frozen
over the hot population — so its byte stream legitimately differs from
v1's. What must hold instead:

* v1 stays byte-identical to the committed reference (the pinned
  ``1431b395…`` checksum) — selecting a profile must not perturb the other;
* v2 is exactly as deterministic as v1: same seed, same checksum, across
  runs and platforms (the numpy seed derivation hashes the label with
  sha256, so no ``PYTHONHASHSEED`` dependence);
* within v2, every implementation arm (delivery route, arena on/off, GC
  freeze on/off) is byte-identical to every other — the profile is the
  *only* sanctioned source of divergence;
* v1 and v2 agree statistically: same converged membership views, same
  failure detections, event/byte totals within a few percent;
* arena-backed message records round-trip bit-identically to object-backed
  ones (Hypothesis property below).
"""

from __future__ import annotations

import json
from contextlib import ExitStack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.gossip.swim import SwimAgent, SwimConfig
from repro.sim import Network, Simulator, Topology
from repro.sim.network import Message, MessageArena
from repro.sim.process import Process
from repro.sim.rpc import DEFERRED, RpcMixin
from tests.oracles import assert_direct_only, direct_delivery

#: The committed v1 determinism checksum (BENCH_kernel.json); byte-exactness
#: of the v1 profile is part of this repo's public contract.
V1_DETERMINISM_CHECKSUM = (
    "1431b395e0579b616f40dc342ee1d6b74d2ee0ca57e81adb77c59af4b8849bba"
)


def swim_profile_run(
    *,
    profile: str,
    seed: int = 99,
    num_nodes: int = 6,
    duration: float = 15.0,
    direct: bool = False,
    arena=None,
    freeze: bool = False,
    crash_at=None,
):
    """One seeded SWIM run; returns the canonical byte-level summary.

    Mirrors ``benchmarks/bench_kernel.py::determinism_checksum`` so the
    pinned-checksum test below really pins the benchmark's contract.
    ``crash_at=(t, index)`` stops one agent mid-run to exercise failure
    detection; the returned summary then also carries each surviving
    agent's view of the victim.

    ``direct=True`` forces every delivery onto the direct per-message post.
    ``arena`` overrides the profile's arena choice (on exactly under
    v2) by swapping the network's arena after construction.
    """
    sim = Simulator(seed=seed, profile=profile)
    topology = Topology()
    with direct_delivery() if direct else ExitStack():
        network = Network(sim, topology)
    if arena is not None:
        network._arena = MessageArena() if arena else None
    regions = [r.name for r in topology.regions]
    agents = []
    for i in range(num_nodes):
        agent = SwimAgent(
            sim, network, f"n{i}", f"a{i}", regions[i % len(regions)],
            SwimConfig(sync_interval=5.0),
        )
        agent.start()
        agents.append(agent)
    for agent in agents[1:]:
        agent.join(["a0"])
    victim = None
    if crash_at is not None:
        at, index = crash_at
        victim = agents[index]
        sim.schedule_at(at, victim.stop)
    if freeze:
        sim.run_until(1.0)  # short warmup, then pin the built population
        sim.freeze_hot_state()
    sim.run_until(duration)
    if freeze:
        sim.unfreeze_hot_state()
    if direct:
        assert_direct_only(network)
    summary = {
        "events": sim.events_processed,
        "counters": {
            name: network.metrics.counter(name).value
            for name in network.metrics.names()["counters"]
        },
        "meters": {
            f"a{i}": network.meter(f"a{i}").bytes_in_window(0.0, duration)
            for i in range(num_nodes)
        },
    }
    if victim is not None:
        summary["victim_views"] = sorted(
            (a.name, a.members.get(victim.name).state.value)
            for a in agents
            if a is not victim and a.members.get(victim.name) is not None
        )
    return json.dumps(summary, sort_keys=True)


class TestProfileSelection:
    def test_unknown_profile_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(seed=0, profile="v3")

    def test_bad_gc_thresholds_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(seed=0, gc_thresholds=(0, 10, 10))
        with pytest.raises(SimulationError):
            Simulator(seed=0, gc_thresholds=(700,))

    def test_v2_defaults_gc_thresholds(self):
        sim = Simulator(seed=0, profile="v2")
        assert sim.gc_thresholds is not None
        assert Simulator(seed=0).gc_thresholds is None

    def test_derive_np_rng_is_label_and_seed_keyed(self):
        sim = Simulator(seed=5)
        a = sim.derive_np_rng("x").random(4).tolist()
        assert a == sim.derive_np_rng("x").random(4).tolist()
        assert a != sim.derive_np_rng("y").random(4).tolist()
        assert a != Simulator(seed=6).derive_np_rng("x").random(4).tolist()


class TestV1ByteExactness:
    def test_v1_checksum_is_the_committed_constant(self):
        """The benchmark's seeded 6-node run digests to the pinned value."""
        import hashlib
        summary = swim_profile_run(profile="v1")
        # determinism_checksum() digests the identical summary structure;
        # assert against it directly so a drift in either copy is caught.
        import sys
        from pathlib import Path
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
        try:
            from bench_kernel import determinism_checksum
        finally:
            sys.path.pop(0)
        assert determinism_checksum() == V1_DETERMINISM_CHECKSUM
        assert hashlib.sha256(summary.encode()).hexdigest() == (
            V1_DETERMINISM_CHECKSUM
        )

    def test_v1_unaffected_by_arena_opt_in(self):
        """Forcing the arena under v1 changes object lifetimes only."""
        reference = swim_profile_run(profile="v1")
        assert swim_profile_run(profile="v1", arena=True) == reference

    def test_v1_unaffected_by_freeze(self):
        reference = swim_profile_run(profile="v1")
        assert swim_profile_run(profile="v1", freeze=True) == reference


class TestV2Determinism:
    def test_v2_checksum_stable_across_runs(self):
        assert swim_profile_run(profile="v2") == swim_profile_run(profile="v2")

    def test_v2_differs_from_v1(self):
        """A v2 run that happened to equal v1 would mean the profile knob
        is dead — the RNG swap must actually be in effect."""
        assert swim_profile_run(profile="v2") != swim_profile_run(profile="v1")

    def test_v2_arms_byte_identical(self):
        """Delivery route, arena, and GC freeze are all implementation
        details *within* the v2 stream."""
        reference = swim_profile_run(profile="v2")
        arms = [
            dict(direct=True),
            dict(arena=False),
            dict(freeze=True),
        ]
        for arm in arms:
            assert swim_profile_run(profile="v2", **arm) == reference, arm

    def test_v2_detects_crash_deterministically(self):
        a = swim_profile_run(profile="v2", crash_at=(5.0, 3), duration=20.0)
        b = swim_profile_run(profile="v2", crash_at=(5.0, 3), duration=20.0)
        assert a == b
        assert "victim_views" in json.loads(a)


class TestStatisticalEquivalence:
    """v1 and v2 are different byte streams over the same protocol: they
    must agree on everything a protocol-level observer can measure."""

    def test_same_convergence_and_close_totals(self):
        v1 = json.loads(swim_profile_run(profile="v1", crash_at=(5.0, 3),
                                         duration=20.0))
        v2 = json.loads(swim_profile_run(profile="v2", crash_at=(5.0, 3),
                                         duration=20.0))
        # Identical failure-detection outcome: every survivor has marked the
        # victim dead in both profiles by the end of the window.
        assert v1["victim_views"] == v2["victim_views"]
        states = {state for _, state in v1["victim_views"]}
        assert states == {"dead"}
        # Event and byte totals within a few percent: the profiles run the
        # same protocol at the same rates, just different random orders.
        for key in ("events",):
            rel = abs(v1[key] - v2[key]) / max(v1[key], 1)
            assert rel < 0.05, (key, v1[key], v2[key])
        sent1 = v1["counters"]["messages_sent"]
        sent2 = v2["counters"]["messages_sent"]
        assert abs(sent1 - sent2) / max(sent1, 1) < 0.05

    def test_detection_latency_distributions_close(self):
        """Mean failure-detection latency across seeds within 25% between
        profiles (same protocol timers, so the distributions must match)."""

        def detection_latency(profile: str, seed: int) -> float:
            sim = Simulator(seed=seed, profile=profile)
            topology = Topology()
            network = Network(sim, topology)
            regions = [r.name for r in topology.regions]
            agents = []
            for i in range(8):
                agent = SwimAgent(
                    sim, network, f"n{i}", f"a{i}",
                    regions[i % len(regions)], SwimConfig(sync_interval=5.0),
                )
                agent.start()
                agents.append(agent)
            for agent in agents[1:]:
                agent.join(["a0"])
            crash_time = 6.0
            detected = []
            for agent in agents[:-1]:
                agent.on_member_dead.append(
                    lambda m, t=sim: detected.append(t.now)
                    if m.name == "n7" else None
                )
            sim.schedule_at(crash_time, agents[7].stop)
            sim.run_until(40.0)
            assert detected, f"{profile}/seed {seed}: crash never detected"
            return min(detected) - crash_time

        seeds = [1, 2, 3, 4]
        mean_v1 = sum(detection_latency("v1", s) for s in seeds) / len(seeds)
        mean_v2 = sum(detection_latency("v2", s) for s in seeds) / len(seeds)
        assert mean_v1 > 0 and mean_v2 > 0
        assert abs(mean_v1 - mean_v2) / mean_v1 < 0.25, (mean_v1, mean_v2)


class _RpcHost(Process, RpcMixin):
    def __init__(self, sim, network, address, region) -> None:
        Process.__init__(self, sim, network, address, region)
        self.init_rpc()


class TestDeferredRpcUnderArena:
    def test_deferred_respond_survives_flyweight_recycling(self):
        """A DEFERRED handler's ``respond`` must reach the original caller.

        Under v2 the delivered ``Message`` is the arena's flyweight, whose
        fields are overwritten by every subsequent delivery; a respond
        closure that read ``message.src`` lazily would reply to whatever
        endpoint happened to receive a message last (regression: FOCUS group
        queries timed out under v2 because the server never saw the reply).
        """
        sim = Simulator(seed=3, profile="v2")
        network = Network(sim, Topology())
        region = network.topology.regions[0].name
        server = _RpcHost(sim, network, "srv", region)
        client = _RpcHost(sim, network, "cli", region)
        bystander = _RpcHost(sim, network, "other", region)
        for host in (server, client, bystander):
            host.start()
            host.on("noise", lambda message: None)

        def handler(params, respond, message):
            # Respond well after other traffic has recycled the flyweight.
            sim.schedule(1.0, respond, {"echo": params["x"]})
            return DEFERRED

        server.serve("test.echo", handler)
        replies = []
        timeouts = []

        def issue() -> None:
            # Flood first so >= DIRECT_POST_MAX messages are in flight when
            # the request is sent: that pushes the request through the arena
            # (flyweight) path rather than a direct-posted Message object.
            for i in range(12):
                bystander.send("srv", "noise", {"i": i})
            client.call(
                "srv", "test.echo", {"x": 42},
                on_reply=replies.append,
                on_timeout=lambda: timeouts.append(True),
                timeout=5.0,
            )

        sim.schedule(0.1, issue)
        # Deliveries between the request and the deferred respond, so the
        # flyweight last carried a message whose src is NOT the caller.
        for i in range(10):
            sim.schedule(0.5 + 0.05 * i, bystander.send, "srv", "noise", {"i": i})
        sim.run_until(10.0)
        assert replies == [{"echo": 42}]
        assert not timeouts


# --------------------------------------------------------------- arena unit
message_fields = st.tuples(
    st.sampled_from(["swim.ping", "swim.ack", "gossip", "q"]),      # kind
    st.one_of(st.none(), st.dictionaries(st.text(max_size=5),
                                         st.integers(), max_size=3)),
    st.text(min_size=1, max_size=8),                                 # src
    st.text(min_size=1, max_size=8),                                 # dst
    st.integers(min_value=0, max_value=10**6),                       # size
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),        # sent_at
)


class TestMessageArena:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(message_fields, min_size=1, max_size=40),
           st.randoms(use_true_random=False))
    def test_round_trip_matches_object_backed(self, records, rng):
        """Interleaved alloc/release round-trips every field bit-exactly."""
        arena = MessageArena(capacity=4)  # force growth
        flyweight = Message("", None, "", "", 0, 0.0)
        live = {}
        for fields in records:
            slot = arena.alloc(*fields)
            assert slot not in live
            live[slot] = fields
            # Randomly release ~half the live slots as we go.
            for s in [s for s in list(live) if rng.random() < 0.4]:
                kind, payload, src, dst, size, sent_at = live.pop(s)
                loaded = arena.load(s, flyweight)
                assert loaded is flyweight
                assert (loaded.kind, loaded.payload, loaded.src, loaded.dst,
                        loaded.size, loaded.sent_at) == (
                    kind, payload, src, dst, size, sent_at)
                arena.release(s)
        for s, fields in live.items():
            loaded = arena.load(s, flyweight)
            assert (loaded.kind, loaded.payload, loaded.src, loaded.dst,
                    loaded.size, loaded.sent_at) == fields
            arena.release(s)
        assert len(arena) == 0

    def test_slot_reuse_is_lifo_and_growth_preserves_slots(self):
        arena = MessageArena(capacity=2)
        a = arena.alloc("k", {"x": 1}, "s", "d", 10, 1.0)
        b = arena.alloc("k", {"x": 2}, "s", "d", 20, 2.0)
        c = arena.alloc("k", {"x": 3}, "s", "d", 30, 3.0)  # forces growth
        assert arena.capacity == 4
        fly = Message("", None, "", "", 0, 0.0)
        assert arena.load(a, fly).payload == {"x": 1}
        assert arena.load(b, fly).payload == {"x": 2}
        assert arena.load(c, fly).payload == {"x": 3}
        arena.release(b)
        assert arena.alloc("k", None, "s", "d", 0, 0.0) == b  # LIFO reuse
        assert arena.payload[a] == {"x": 1}  # neighbours untouched

    def test_release_drops_references(self):
        arena = MessageArena(capacity=2)
        slot = arena.alloc("k", {"big": "payload"}, "s", "d", 1, 0.0)
        arena.release(slot)
        assert arena.payload[slot] is None
        assert arena.kind[slot] is None
