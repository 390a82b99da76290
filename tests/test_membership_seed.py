"""Bulk warm-start seeding and group-shared node directories.

``MembershipTable.seed_alive`` replaces the per-member ``upsert`` loop that
used to seed converged member lists. That loop lives on here as the oracle
(:func:`seed_by_upsert`): Hypothesis drives both over random group sizes,
member orders, self positions and prior table state, and every observable
must match. The rest pins what a shared directory makes reachable: slots
interned by one table past another table's capacity.
"""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gossip.member import Member, MemberList, MemberState
from repro.gossip.membership import MembershipTable, NodeDirectory, group_directory
from repro.harness.scenarios import build_focus_cluster
from repro.sim.loop import Simulator

REGIONS = ["region-a", "region-b", "region-c"]
POOL = [f"g{i}" for i in range(90)]


def address(name: str) -> str:
    return f"{name}/addr"


def region(name: str) -> str:
    return REGIONS[int(name[1:]) % len(REGIONS)]


def seed_by_upsert(table, names, state_time: float) -> None:
    """The pre-``seed_alive`` warm start: one alive upsert per peer."""
    for name in names:
        if name == table.self_name:
            continue
        table.upsert(
            Member(
                name,
                address(name),
                region(name),
                incarnation=0,
                state=MemberState.ALIVE,
                state_time=state_time,
            )
        )


def observe(table, universe):
    return {
        "order": [m.name for m in table],
        "records": [
            (m.name, m.address, m.region, m.incarnation, m.state.value, m.state_time)
            for m in table
        ],
        "len": len(table),
        "alive_count": table.alive_count,
        "alive_names": table.alive_names(),
        "alive_names_ex": table.alive_names(exclude_self=True),
        "snapshot": table.snapshot_wire(),
        "snapshot_size": table.snapshot_size(),
        "contains": [name in table for name in universe],
        "peek": [table.peek(name) for name in universe],
        "due": table.due_suspects(1e9),
    }


prior_ops = st.lists(
    st.tuples(
        st.sampled_from(["upsert", "remove", "deadline"]),
        st.integers(0, len(POOL) - 1),
        st.sampled_from(list(MemberState)),
        st.integers(0, 4),
    ),
    max_size=12,
)


def run_prior(table, ops) -> None:
    for step, (op, index, state, inc) in enumerate(ops):
        name = POOL[index]
        if op == "upsert":
            table.upsert(
                Member(name, address(name), region(name), incarnation=inc,
                       state=state, state_time=float(step))
            )
        elif op == "remove":
            table.remove(name)
        else:
            table.set_suspicion_deadline(name, float(step))


class TestSeedAliveMatchesUpsertLoop:
    @given(
        size=st.integers(0, 70),
        order_seed=st.integers(0, 10_000),
        self_pos=st.integers(-1, 69),
        foreign=st.integers(0, 20),
        ops=prior_ops,
        state_time=st.floats(0.0, 100.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_observables(
        self, size, order_seed, self_pos, foreign, ops, state_time
    ):
        group = POOL[:size]
        random.Random(order_seed).shuffle(group)
        # self_pos == -1 (or past the group) seeds a table whose node is not
        # in the group.
        self_name = group[self_pos] if 0 <= self_pos < size else POOL[-1]

        oracle = MembershipTable(self_name)
        oracle.upsert(Member(self_name, address(self_name), region(self_name)))
        run_prior(oracle, ops)
        seed_by_upsert(oracle, group, state_time)

        directory = NodeDirectory()
        # Other agents of the group intern first, so the seeded slots can
        # lie past the new table's capacity and in a different order.
        for name in POOL[-1 - foreign:]:
            directory.intern(name, address(name), region(name))
        table = MembershipTable(self_name, directory)
        table.upsert(Member(self_name, address(self_name), region(self_name)))
        run_prior(table, ops)
        slots = [directory.intern(n, address(n), region(n)) for n in group]
        table.seed_alive(slots, state_time)

        assert observe(table, POOL) == observe(oracle, POOL)
        # A deadline set before a member was known belongs to the seeded
        # record, so a later deadline replaces it: re-arm every other
        # member, suspect everyone and compare what falls due.
        for backend in (table, oracle):
            for name in group[::2]:
                backend.set_suspicion_deadline(name, 20.0)
            for name in group:
                backend.apply(
                    Member(name, address(name), region(name), incarnation=0,
                           state=MemberState.SUSPECT, state_time=state_time)
                )
        for now in (0.0, 3.0, 6.0, 12.0, 25.0):
            assert table.due_suspects(now) == oracle.due_suspects(now)


def _share_past_capacity():
    """Table ``small`` (capacity 64, all rows known) and a directory that a
    second table has grown past it with node ``late``."""
    directory = NodeDirectory()
    small = MembershipTable(POOL[0], directory)
    reference = MemberList(POOL[0])
    for name in POOL[:64]:
        member = Member(name, address(name), region(name), incarnation=5)
        small.upsert(member)
        reference.upsert(member)
    assert len(small._known) == 64
    big = MembershipTable(POOL[1], directory)
    big.upsert(Member("late", "late/addr", REGIONS[0]))
    assert directory.slot_of("late") == 64
    return small, reference


class TestSlotsPastCapacity:
    def test_filter_keeps_update_for_node_interned_past_capacity(self):
        small, reference = _share_past_capacity()
        batch = [
            {"n": "late", "a": "late/addr", "r": REGIONS[0], "i": 0, "s": "alive"}
        ] + [
            {"n": name, "a": address(name), "r": region(name), "i": 5, "s": "alive"}
            for name in POOL[1:17]
        ]
        kept = small.filter_superseding(batch)
        # The oracle applies the late join; the prefilter must not drop it
        # as stale against another node's record (the last row's inc 5).
        assert reference.apply(Member.from_wire(batch[0], 1.0)) is True
        assert batch[0] in kept
        for wire in kept:
            small.apply(Member.from_wire(wire, 1.0))
        for wire in batch[1:]:
            reference.apply(Member.from_wire(wire, 1.0))
        assert [(m.name, m.incarnation, m.state) for m in small] == [
            (m.name, m.incarnation, m.state) for m in reference
        ]

    def test_contains_is_false_past_capacity(self):
        small, reference = _share_past_capacity()
        assert ("late" in small) is ("late" in reference) is False

    def test_region_mask_past_capacity(self):
        small, _ = _share_past_capacity()
        mask = small.region_mask(REGIONS[0])
        assert mask.shape == small._known.shape
        got = {small.directory.names[s] for s in np.flatnonzero(mask)}
        assert got == {m.name for m in small if m.region == REGIONS[0]}


class TestGroupDirectories:
    def test_one_directory_per_group_and_simulation(self):
        sim = Simulator(seed=0)
        assert group_directory(sim, "g") is group_directory(sim, "g")
        assert group_directory(sim, "g") is not group_directory(sim, "h")
        assert group_directory(Simulator(seed=0), "g") is not group_directory(sim, "g")

    def test_warm_start_cluster_shares_one_directory_per_group(self):
        scenario = build_focus_cluster(64, seed=5, warm_start=True, with_store=False)
        by_group = {}
        for agent in scenario.agents:
            for membership in agent.memberships.values():
                by_group.setdefault(membership.group, set()).add(
                    id(membership.serf.members.directory)
                )
        groups = {
            group.name
            for service in scenario.services
            for group in service.dgm.groups.all_groups()
        }
        assert set(by_group) == groups
        assert all(len(ids) == 1 for ids in by_group.values())
        assert len(set().union(*by_group.values())) == len(groups)
