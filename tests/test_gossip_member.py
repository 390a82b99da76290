"""Unit and property tests for membership records and SWIM ordering rules."""

from hypothesis import given, strategies as st

from repro.gossip.member import (
    Member,
    MemberState,
    RANK_BY_VALUE,
    STATE_BY_VALUE,
    supersedes,
)
from tests.oracles import MemberList

states = st.sampled_from(list(MemberState))
incarnations = st.integers(min_value=0, max_value=10)


def member(name="n1", state=MemberState.ALIVE, inc=0):
    return Member(name, f"{name}/addr", "us-east-2", incarnation=inc, state=state)


class TestSupersedes:
    def test_higher_incarnation_wins(self):
        assert supersedes(MemberState.ALIVE, 2, MemberState.DEAD, 1)

    def test_lower_incarnation_loses(self):
        assert not supersedes(MemberState.DEAD, 1, MemberState.ALIVE, 2)

    def test_equal_incarnation_dead_beats_suspect_beats_alive(self):
        assert supersedes(MemberState.SUSPECT, 1, MemberState.ALIVE, 1)
        assert supersedes(MemberState.DEAD, 1, MemberState.SUSPECT, 1)
        assert supersedes(MemberState.LEFT, 1, MemberState.ALIVE, 1)
        assert not supersedes(MemberState.ALIVE, 1, MemberState.SUSPECT, 1)

    def test_identical_update_does_not_supersede(self):
        assert not supersedes(MemberState.ALIVE, 1, MemberState.ALIVE, 1)

    @given(states, incarnations, states, incarnations)
    def test_antisymmetric(self, s1, i1, s2, i2):
        """Two different records can't both supersede each other."""
        assert not (supersedes(s1, i1, s2, i2) and supersedes(s2, i2, s1, i1))

    @given(states, incarnations, states, incarnations, states, incarnations)
    def test_transitive(self, s1, i1, s2, i2, s3, i3):
        if supersedes(s1, i1, s2, i2) and supersedes(s2, i2, s3, i3):
            assert supersedes(s1, i1, s3, i3)


class TestWireRoundtrip:
    @given(states, incarnations)
    def test_roundtrip(self, state, inc):
        original = member(state=state, inc=inc)
        restored = Member.from_wire(original.to_wire(), time=1.0)
        assert restored.name == original.name
        assert restored.address == original.address
        assert restored.state == original.state
        assert restored.incarnation == original.incarnation

    def test_wire_size_close_to_estimate(self):
        import json

        m = member()
        actual = len(json.dumps(m.to_wire()))
        assert abs(m.wire_size() - actual) < 20

    def test_state_lookup_tables(self):
        for state in MemberState:
            assert STATE_BY_VALUE[state.value] is state
            assert state.value in RANK_BY_VALUE


class TestMemberList:
    def test_apply_new_member(self):
        ml = MemberList("self")
        assert ml.apply(member("a"))
        assert "a" in ml
        assert len(ml) == 1

    def test_apply_stale_update_rejected(self):
        ml = MemberList("self")
        ml.apply(member("a", MemberState.DEAD, inc=2))
        assert not ml.apply(member("a", MemberState.ALIVE, inc=1))
        assert ml.get("a").state == MemberState.DEAD

    def test_alive_excludes_dead(self):
        ml = MemberList("self")
        ml.apply(member("a"))
        ml.apply(member("b", MemberState.DEAD))
        assert ml.alive_names() == ["a"]

    def test_alive_exclude_self(self):
        ml = MemberList("a")
        ml.apply(member("a"))
        ml.apply(member("b"))
        assert ml.alive_names(exclude_self=True) == ["b"]

    def test_remove(self):
        ml = MemberList("self")
        ml.apply(member("a"))
        ml.remove("a")
        assert "a" not in ml
        assert ml.alive_count == 0

    def test_snapshot_size_tracks_members(self):
        ml = MemberList("self")
        empty = ml.snapshot_size()
        ml.apply(member("a"))
        assert ml.snapshot_size() > empty

    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", "d"]), states, incarnations),
            max_size=40,
        )
    )
    def test_alive_count_invariant(self, updates):
        """The incremental alive counter always equals the recount."""
        ml = MemberList("self")
        for name, state, inc in updates:
            ml.apply(Member(name, f"{name}/addr", "r", incarnation=inc, state=state))
            assert ml.alive_count == len(ml.alive())

    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b"]), states, incarnations),
            max_size=30,
        )
    )
    def test_convergent_regardless_of_order(self, updates):
        """Applying the same updates in any order converges to the same view."""
        forward = MemberList("self")
        backward = MemberList("self")
        for name, state, inc in updates:
            forward.apply(Member(name, f"{name}/a", "r", incarnation=inc, state=state))
        for name, state, inc in reversed(updates):
            backward.apply(Member(name, f"{name}/a", "r", incarnation=inc, state=state))
        for name in ("a", "b"):
            f, b = forward.get(name), backward.get(name)
            if f is None or b is None:
                assert f is b is None
                continue
            # Same incarnation frontier; state agrees at the frontier rank.
            assert f.incarnation == b.incarnation
            assert RANK_BY_VALUE[f.state.value] == RANK_BY_VALUE[b.state.value]
