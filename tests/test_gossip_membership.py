"""Property and equivalence tests for the vectorized membership table.

Two layers of pinning:

* Hypothesis drives :class:`MembershipTable` and the dict-based
  :class:`MemberList` oracle (``tests/oracles.py``) through identical random
  join/suspect/refute/fault/leave/reclaim sequences and asserts every
  observable — record contents, insertion order, alive views, snapshots,
  suspicion deadlines, ``apply`` return values, RNG selection draws — stays
  identical at every step.
* A seeded full-protocol SWIM run (join storm, failure, suspicion, refute
  window, anti-entropy, Serf query) must produce byte-identical summaries
  under every combination of membership backend x probe scheduling,
  pinning event order exactly like the PR 2 scheduler-equivalence gate.
"""

import json
import random
from contextlib import ExitStack

import pytest
from hypothesis import given, settings, strategies as st

from repro.gossip.agent import SerfAgent, SerfConfig
from repro.gossip.member import Member, MemberState
from repro.gossip.membership import MembershipTable, NodeDirectory
from repro.gossip.probe import RegionProbeBatcher
from repro.sim import Network, Simulator, Topology
from tests.oracles import MemberList, member_lists

NAMES = [f"m{i}" for i in range(8)]
REGIONS = ["region-a", "region-b", "region-c"]
SELF = NAMES[0]

states = st.sampled_from(list(MemberState))
names = st.sampled_from(NAMES)
incarnations = st.integers(min_value=0, max_value=6)


def make_member(name: str, state: MemberState, inc: int, t: float) -> Member:
    i = NAMES.index(name)
    return Member(
        name,
        f"{name}/addr",
        REGIONS[i % len(REGIONS)],
        incarnation=inc,
        state=state,
        state_time=t,
    )


operations = st.lists(
    st.one_of(
        st.tuples(st.just("apply"), names, states, incarnations),
        st.tuples(st.just("upsert"), names, states, incarnations),
        st.tuples(st.just("remove"), names),
        st.tuples(st.just("deadline"), names, st.floats(0.0, 50.0)),
        st.tuples(st.just("expire"), st.floats(0.0, 60.0)),
    ),
    min_size=1,
    max_size=60,
)


def observe(backend, now: float):
    return {
        "len": len(backend),
        "alive_count": backend.alive_count,
        "records": [
            (m.name, m.address, m.region, m.incarnation, m.state.value, m.state_time)
            for m in backend
        ],
        "alive": [(m.name, m.address) for m in backend.alive()],
        "alive_ex": [(m.name, m.address) for m in backend.alive(exclude_self=True)],
        "names": backend.alive_names(),
        "names_ex": backend.alive_names(exclude_self=True),
        "suspects": [m.name for m in backend.suspects()],
        "snapshot": backend.snapshot_wire(),
        "snapshot_size": backend.snapshot_size(),
        "peek": [backend.peek(n) for n in NAMES],
        "due": backend.due_suspects(now),
    }


def run_ops(backend, ops):
    """Apply an op sequence; returns the per-step observable trace."""
    trace = []
    for step, op in enumerate(ops):
        t = float(step)
        if op[0] == "apply":
            _, name, state, inc = op
            trace.append(("apply", backend.apply(make_member(name, state, inc, t))))
        elif op[0] == "upsert":
            _, name, state, inc = op
            backend.upsert(make_member(name, state, inc, t))
        elif op[0] == "remove":
            backend.remove(op[1])
        elif op[0] == "deadline":
            backend.set_suspicion_deadline(op[1], op[2])
        else:
            trace.append(("expired", backend.expire_dead(op[1])))
        trace.append(observe(backend, now=t))
    return trace


class TestTableMatchesReference:
    @given(operations)
    @settings(max_examples=150)
    def test_random_sequences_match_dict_reference(self, ops):
        reference = MemberList(SELF)
        table = MembershipTable(SELF)
        assert run_ops(reference, ops) == run_ops(table, ops)

    @given(operations, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=100)
    def test_selection_draws_identical(self, ops, seed):
        reference = MemberList(SELF)
        table = MembershipTable(SELF)
        run_ops(reference, ops)
        run_ops(table, ops)
        for fanout in (1, 3, 8):
            assert reference.gossip_targets(
                random.Random(seed), fanout
            ) == table.gossip_targets(random.Random(seed), fanout)
        assert reference.sync_peer(random.Random(seed)) == table.sync_peer(
            random.Random(seed)
        )
        for exclude in NAMES:
            assert reference.relay_sample(
                random.Random(seed), 3, exclude
            ) == table.relay_sample(random.Random(seed), 3, exclude)

    @given(operations)
    @settings(max_examples=100)
    def test_shared_directory_matches_private(self, ops):
        directory = NodeDirectory()
        shared = MembershipTable(SELF, directory)
        private = MembershipTable(SELF)
        assert run_ops(shared, ops) == run_ops(private, ops)

    def test_removal_reinsertion_moves_to_end_like_dict(self):
        reference = MemberList(SELF)
        table = MembershipTable(SELF)
        for backend in (reference, table):
            for name in NAMES[:4]:
                backend.upsert(make_member(name, MemberState.ALIVE, 0, 0.0))
            backend.remove(NAMES[1])
            backend.upsert(make_member(NAMES[1], MemberState.ALIVE, 1, 1.0))
        assert [m.name for m in reference] == [m.name for m in table]
        assert [m.name for m in table] == [NAMES[0], NAMES[2], NAMES[3], NAMES[1]]


class TestFilterSuperseding:
    wire_updates = st.lists(
        st.tuples(
            st.sampled_from([f"m{i}" for i in range(24)]),
            states,
            incarnations,
        ),
        min_size=16,
        max_size=24,
        unique_by=lambda u: u[0],
    )

    @given(operations, wire_updates)
    @settings(max_examples=100)
    def test_filtered_batch_reaches_same_state(self, ops, updates):
        full = MembershipTable(SELF)
        filtered = MembershipTable(SELF)
        run_ops(full, ops)
        run_ops(filtered, ops)
        batch = [
            {
                "n": name,
                "a": f"{name}/addr",
                "r": REGIONS[0],
                "i": inc,
                "s": state.value,
            }
            for name, state, inc in updates
        ]
        def agent_loop_apply(table, wire):
            # Mirror SwimAgent._apply_updates for one membership wire: drop
            # death notices about unknown members, route self updates to
            # refutation handling (not apply), else apply.
            previous = table.peek(wire["n"])
            if previous is None and wire["s"] in ("dead", "left"):
                return "dropped"
            if wire["n"] == table.self_name:
                return "self"
            return table.apply(Member.from_wire(wire, 99.0))

        kept = filtered.filter_superseding(batch)
        kept_ids = {id(w) for w in kept}
        for wire in batch:
            outcome = agent_loop_apply(full, wire)
            if outcome is True or outcome == "self":
                # The prefilter may only drop updates the agent loop would
                # reject; self updates must always survive (refutation).
                assert id(wire) in kept_ids
        for wire in kept:
            agent_loop_apply(filtered, wire)
        assert observe(full, 99.0) == observe(filtered, 99.0)

    def test_small_batches_and_custom_payloads_pass_through(self):
        table = MembershipTable(SELF)
        small = [{"n": "x", "i": 0, "s": "alive"}] * 3
        assert table.filter_superseding(small) is small
        mixed = [{"t": "q", "id": f"q{i}"} for i in range(20)]
        assert table.filter_superseding(mixed) is mixed

    def test_updates_about_self_are_always_kept(self):
        table = MembershipTable(SELF)
        table.upsert(make_member(SELF, MemberState.ALIVE, 5, 0.0))
        batch = [
            {"n": n, "a": f"{n}/addr", "r": REGIONS[0], "i": 0, "s": "alive"}
            for n in (SELF, *(f"pad{i}" for i in range(16)))
        ]
        kept = table.filter_superseding(batch)
        # Stale by incarnation, but self-updates drive refutation: kept.
        assert batch[0] in kept


class TestDirectoryAndRegions:
    def test_interned_wires_are_shared_across_tables(self):
        directory = NodeDirectory()
        a = MembershipTable("a", directory)
        b = MembershipTable("b", directory)
        member = make_member(NAMES[1], MemberState.ALIVE, 2, 0.0)
        a.upsert(member)
        b.upsert(member)
        (wire_a,) = (w for w in a.snapshot_wire() if w["n"] == NAMES[1])
        (wire_b,) = (w for w in b.snapshot_wire() if w["n"] == NAMES[1])
        assert wire_a is wire_b
        assert wire_a == member.to_wire()

    def test_wire_cache_invalidated_on_address_change(self):
        directory = NodeDirectory()
        table = MembershipTable("a", directory)
        table.upsert(make_member(NAMES[1], MemberState.ALIVE, 0, 0.0))
        first = table.snapshot_wire()[0]
        moved = Member(NAMES[1], "new/addr", REGIONS[1], incarnation=0)
        table.upsert(moved)
        assert table.snapshot_wire()[0] == moved.to_wire()

    def test_region_views(self):
        table = MembershipTable(SELF)
        for name in NAMES:
            table.upsert(make_member(name, MemberState.ALIVE, 0, 0.0))
        table.apply(make_member(NAMES[3], MemberState.DEAD, 1, 1.0))
        counts = table.region_alive_counts()
        by_region = {}
        for m in table.alive():
            by_region[m.region] = by_region.get(m.region, 0) + 1
        assert counts == by_region
        mask = table.region_mask(REGIONS[0])
        expected = {m.name for m in table if m.region == REGIONS[0]}
        got = {
            table.directory.names[slot]
            for slot in range(len(table.directory))
            if mask[slot]
        }
        assert got == expected
        assert not table.region_mask("nowhere").any()


def swim_equivalence_summary(membership: str, batched: bool, seed: int = 7) -> str:
    """Full-protocol seeded run: join storm, crash, suspicion, Serf query.

    ``membership="dict"`` swaps the :class:`MemberList` oracle in.
    """
    sim = Simulator(seed=seed)
    topology = Topology()
    network = Network(sim, topology)
    regions = [r.name for r in topology.regions]
    config = SerfConfig(sync_interval=5.0)
    directory = NodeDirectory() if membership == "table" else None
    batcher = RegionProbeBatcher(sim, config.probe_interval) if batched else None
    agents = []
    answers = []
    backend = MembershipTable if membership == "table" else MemberList
    for i in range(8):
        with member_lists() if membership == "dict" else ExitStack():
            agent = SerfAgent(
                sim,
                network,
                f"n{i}",
                f"addr{i}",
                regions[i % len(regions)],
                config,
                directory=directory,
                probe_batcher=batcher,
            )
        assert type(agent.members) is backend
        agent.on_query("who", lambda payload, origin, a=agent: a.name)
        agent.start()
        agents.append(agent)
    for agent in agents[1:]:
        agent.join(["addr0"])
    sim.run_until(8.0)
    agents[3].stop()  # crash: exercises probe timeout -> suspect -> dead
    sim.schedule_at(
        12.0, lambda: agents[1].query("who", None, lambda r: answers.append(sorted(r)))
    )
    sim.run_until(20.0)
    summary = {
        "events_processed": sim.events_processed,
        "answers": answers,
        "counters": {
            name: network.metrics.counter(name).value
            for name in network.metrics.names()["counters"]
        },
        "meters": {
            f"addr{i}": network.meter(f"addr{i}").total_bytes for i in range(8)
        },
        "alive_views": sorted(
            (agent.name, sorted(m.name for m in agent.alive_members()))
            for agent in agents
            if agent.running
        ),
    }
    return json.dumps(summary, sort_keys=True)


class TestSeededSwimEquivalence:
    """The tentpole acceptance gate: backends cannot perturb event order."""

    ARMS = [
        ("dict", False),
        ("dict", True),
        ("table", False),
        ("table", True),
    ]
    ARM_IDS = [f"{m}-{'batched' if b else 'timers'}" for m, b in ARMS]

    @pytest.mark.parametrize(("membership", "batched"), ARMS[1:], ids=ARM_IDS[1:])
    def test_bit_identical_to_dict_reference(self, membership, batched):
        reference = swim_equivalence_summary("dict", False)
        assert swim_equivalence_summary(membership, batched) == reference

    def test_failure_is_detected_in_reference_run(self):
        summary = json.loads(swim_equivalence_summary("dict", False))
        # The run must actually exercise the suspicion machinery: the
        # crashed agent disappears from every surviving view.
        for _, view in summary["alive_views"]:
            assert "n3" not in view
        assert summary["answers"], "query must complete"


class TestRegionProbeBatcher:
    def test_register_requires_matching_interval(self):
        sim = Simulator(seed=0)
        topology = Topology()
        network = Network(sim, topology)
        batcher = RegionProbeBatcher(sim, 2.0)
        agent = SerfAgent(
            sim, network, "n0", "a0", topology.regions[0].name,
            probe_batcher=batcher,
        )
        with pytest.raises(ValueError):
            agent.start()

    def test_one_sentinel_per_region(self):
        sim = Simulator(seed=0)
        batcher = RegionProbeBatcher(sim, 1.0)
        fired = []
        for i in range(40):
            batcher.register(
                f"region-{i % 4}",
                lambda i=i: fired.append(i),
                jitter=0.1,
                rng=sim.derive_rng(f"t{i}"),
            )
        assert batcher.region_count() == 4
        assert batcher.pending_counts() == {f"region-{r}": 10 for r in range(4)}
        # 40 timers, but only one live sentinel per region (the queue may
        # also hold cancelled tombstones from retargeting, reclaimed lazily).
        assert sum(cls.scheduled for cls in batcher._classes.values()) == 4
        sim.run_until(1.2)
        assert sorted(fired) == list(range(40))

    def test_stop_deactivates_and_retargets(self):
        sim = Simulator(seed=0)
        batcher = RegionProbeBatcher(sim, 1.0)
        fired = []
        timers = [
            batcher.register("r", lambda i=i: fired.append(i), rng=sim.derive_rng(f"t{i}"))
            for i in range(3)
        ]
        timers[0].stop()
        assert timers[0].stopped
        sim.run_until(1.0)
        assert sorted(fired) == [1, 2]
        assert batcher.pending_counts() == {"r": 2}

    def test_matches_per_timer_firing_times(self):
        fire_times = {}
        for batched in (False, True):
            sim = Simulator(seed=3)
            fired = []
            if batched:
                batcher = RegionProbeBatcher(sim, 0.5)
                for i in range(10):
                    batcher.register(
                        "r",
                        lambda i=i: fired.append((round(sim.now, 9), i)),
                        jitter=0.05,
                        rng=sim.derive_rng(f"timer/{i}"),
                    )
            else:
                for i in range(10):
                    sim.call_every(
                        0.5,
                        lambda i=i: fired.append((round(sim.now, 9), i)),
                        jitter=0.05,
                        rng=sim.derive_rng(f"timer/{i}"),
                    )
            sim.run_until(10.0)
            fire_times[batched] = fired
        assert fire_times[False] == fire_times[True] != []
