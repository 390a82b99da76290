"""The FOCUS node agent (§VIII-B).

Two cooperating pieces run on every node:

* the **node manager** (this process): collects attribute values, registers
  with the FOCUS service, asks for group suggestions when a dynamic value
  leaves its group's range, answers direct queries, performs representative
  duty (periodic member-list uploads), and fans group queries into the p2p
  fabric;
* one **p2p agent** (:class:`~repro.gossip.agent.SerfAgent`) per dynamic
  attribute group the node belongs to. Group queries arrive at the manager,
  are gossiped to the whole group via the serf query mechanism, and every
  member's answer returns directly to this node, which filters matches and
  replies to the FOCUS server.

The p2p agents of one group share one
:class:`~repro.gossip.membership.NodeDirectory` per simulation
(:func:`~repro.gossip.membership.group_directory`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional

from repro.core.config import FocusConfig
from repro.core.groups import serf_address
from repro.core.query import Query
from repro.gossip.agent import SerfAgent
from repro.gossip.membership import group_directory
from repro.sim.loop import RepeatingTimer, Simulator
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.rpc import DEFERRED, RpcMixin

#: Serf query name used for FOCUS group queries.
GROUP_QUERY_EVENT = "fq"

#: How long after joining to verify the join actually took.
JOIN_VERIFY_DELAY = 3.0


class GroupMembership:
    """One attribute group this node currently belongs to."""

    __slots__ = ("group", "attribute", "low", "high", "serf", "report_timer")

    def __init__(self, group: str, attribute: str, low: float, high: float, serf: SerfAgent) -> None:
        self.group = group
        self.attribute = attribute
        self.low = low
        self.high = high
        self.serf = serf
        self.report_timer: Optional[RepeatingTimer] = None

    def contains(self, value: float) -> bool:
        return self.low <= value < self.high


class NodeAgent(Process, RpcMixin):
    """The per-node FOCUS agent. Its network address is the node id."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        region: str,
        focus_address: str,
        *,
        static: Optional[Dict[str, object]] = None,
        dynamic: Optional[Dict[str, float]] = None,
        config: Optional[FocusConfig] = None,
        collector: Optional[Callable[[], Dict[str, float]]] = None,
    ) -> None:
        Process.__init__(self, sim, network, node_id, region)
        self.init_rpc()
        self.node_id = node_id
        self.focus_address = focus_address
        self.config = config or FocusConfig()
        self.static = dict(static or {})
        self.dynamic: Dict[str, float] = {k: float(v) for k, v in (dynamic or {}).items()}
        self.collector = collector
        self.memberships: Dict[str, GroupMembership] = {}
        self.registered = False
        self.registration_error: Optional[str] = None
        self._skip_registration = False
        self._moving: set = set()
        self._rng = sim.derive_rng(f"agent/{node_id}")

        #: Materialized views (§XII extension): definitions this node knows,
        #: and the view groups it currently belongs to.
        self.view_definitions: Dict[str, Query] = {}
        self.view_memberships: Dict[str, GroupMembership] = {}
        self._joining_views: set = set()

        self.serve("node.group-query", self._rpc_group_query)
        self.serve("node.query", self._rpc_node_query)
        self.serve("node.be-representative", self._rpc_be_representative)
        self.serve("node.stop-representative", self._rpc_stop_representative)
        self.serve("node.move-group", self._rpc_move_group)
        self.serve("node.view-def", self._rpc_view_def)
        self.serve("node.drop-view", self._rpc_drop_view)

    # ------------------------------------------------------------- lifecycle
    def on_start(self) -> None:
        if not self._skip_registration:
            self.register()
        if self.collector is not None:
            self.every(
                self.config.collection_interval,
                self._collect,
                jitter=self.config.collection_interval * 0.2,
            )

    def on_stop(self) -> None:
        for membership in list(self.memberships.values()) + list(
            self.view_memberships.values()
        ):
            if membership.report_timer is not None:
                membership.report_timer.stop()
            membership.serf.stop()
        self.memberships.clear()
        self.view_memberships.clear()
        # Crash semantics: in-flight joins/moves and outstanding RPC calls
        # must not leak into a restarted incarnation.
        self._moving.clear()
        self._joining_views.clear()
        self.reset_rpc()

    def restart(self) -> None:
        """Crash recovery: come back up and re-register with the service.

        Registration re-triggers group suggestions, so the node rejoins its
        attribute groups (and any materialized views) from scratch — the
        recovery path §VIII-B relies on.
        """
        self._skip_registration = False
        self.registered = False
        self.registration_error = None
        super().restart()

    def start_without_registration(self) -> None:
        """Start without contacting the service (harness warm start)."""
        self._skip_registration = True
        self.start()

    def shutdown(self) -> None:
        """Graceful departure: deregister and let serf agents announce leave."""
        if self.running:
            self.call(
                self.focus_address,
                "focus.deregister",
                {"node_id": self.node_id},
                on_reply=lambda result: None,
            )
        for membership in list(self.memberships.values()) + list(
            self.view_memberships.values()
        ):
            membership.serf.leave()
        self.after(self.config.serf.gossip_interval * 6, self.stop)

    # ------------------------------------------------------------ attributes
    def attributes(self) -> Dict[str, object]:
        """Current full attribute view (static + dynamic + region)."""
        merged: Dict[str, object] = {"region": self.region}
        merged.update(self.static)
        merged.update(self.dynamic)
        return merged

    def set_attribute(self, name: str, value: float) -> None:
        """Update a dynamic attribute; may trigger a group move (§VII).

        Values pass through the schema's normalizer first (§XII), so
        heterogeneous collectors can report in their native units.
        """
        value = float(self.config.schema.normalize_value(name, value))
        self.dynamic[name] = value
        membership = self.memberships.get(name)
        if membership is not None:
            if not membership.contains(value) and name not in self._moving:
                self._request_move(name, value, leaving=membership.group)
        # Event trigger (§XII): a state change may move this node into or
        # out of any materialized view.
        self._reevaluate_views()

    def _collect(self) -> None:
        for name, value in self.collector().items():
            self.set_attribute(name, value)

    # ----------------------------------------------------------- registration
    def register(self) -> None:
        self.call(
            self.focus_address,
            "focus.register",
            {
                "node_id": self.node_id,
                "region": self.region,
                "static": self.static,
                "dynamic": self.dynamic,
            },
            on_reply=self._on_registered,
            on_timeout=self._retry_register,
            timeout=self.config.query_timeout * 2,
        )

    def _retry_register(self) -> None:
        self.after(1.0 + self._rng.random(), self.register)

    def _on_registered(self, result) -> None:
        if result.get("error"):
            self.registration_error = str(result["error"])
            return
        self.registered = True
        for suggestion in result.get("groups", ()):
            self._join_group(suggestion)
        for definition in result.get("views", ()):
            self._learn_view(str(definition["view_id"]), definition["query"])

    # ------------------------------------------------------------- group join
    def _join_group(self, suggestion: Dict[str, object]) -> None:
        group = str(suggestion["name"])
        attribute = str(suggestion["attribute"])
        low, high = suggestion["range"]  # type: ignore[misc]
        address = serf_address(self.node_id, group)
        old = self.memberships.get(attribute)
        if old is not None and old.group == group:
            return
        if self.network.is_registered(address):
            # Rejoining a group whose previous serf agent is still draining
            # its graceful leave: tear it down immediately.
            self.network.endpoint(address).stop()  # type: ignore[attr-defined]
        serf_config = self.config.serf
        fanout = suggestion.get("fanout")
        if fanout is not None and fanout != serf_config.gossip_fanout:
            # §XII: this group runs at its own fanout (time-sensitive apps).
            serf_config = replace(serf_config, gossip_fanout=int(fanout))
        serf = SerfAgent(
            self.sim, self.network, self.node_id, address, self.region, serf_config,
            directory=group_directory(self.sim, group),
        )
        serf.on_query(GROUP_QUERY_EVENT, self._answer_group_query)
        serf.start()
        membership = GroupMembership(group, attribute, float(low), float(high), serf)
        self.memberships[attribute] = membership
        entry_points = list(suggestion.get("entry_points") or ())
        if entry_points:
            serf.join(entry_points)
            self.after(JOIN_VERIFY_DELAY, self._verify_join, attribute, group)
        if suggestion.get("representative"):
            self._start_reporting(membership, float(suggestion.get("report_interval", 5.0)))

    def _verify_join(self, attribute: str, group: str) -> None:
        """Entry points can be stale; re-request a suggestion if isolated."""
        membership = self.memberships.get(attribute)
        if membership is None or membership.group != group or not self.running:
            return
        if membership.serf.group_size() > 1:
            return
        value = self.dynamic.get(attribute)
        if value is not None:
            self._request_move(attribute, value, leaving=group)

    def _request_move(self, attribute: str, value: float, *, leaving: Optional[str]) -> None:
        self._moving.add(attribute)

        def on_reply(result) -> None:
            self._moving.discard(attribute)
            if not self.running or result.get("error"):
                return
            suggestion = result["group"]
            old = self.memberships.get(attribute)
            if old is not None and old.group != suggestion["name"]:
                if old.report_timer is not None:
                    old.report_timer.stop()
                old.serf.leave()
            self._join_group(suggestion)
            # The value may have changed again while the suggestion was in
            # flight; chase it so the node never settles in a wrong group.
            current = self.dynamic.get(attribute)
            landed = self.memberships.get(attribute)
            if (
                current is not None
                and landed is not None
                and not landed.contains(current)
            ):
                self._request_move(attribute, current, leaving=landed.group)

        self.call(
            self.focus_address,
            "focus.suggest",
            {
                "node_id": self.node_id,
                "region": self.region,
                "attribute": attribute,
                "value": value,
                "leaving": leaving,
            },
            on_reply=on_reply,
            on_timeout=lambda: self._moving.discard(attribute),
            timeout=self.config.query_timeout * 2,
        )

    # ------------------------------------------------------ materialized views
    def _rpc_view_def(self, params, respond, message):
        self._learn_view(str(params["view_id"]), params["query"])
        return {"ok": True}

    def _rpc_drop_view(self, params, respond, message):
        view_id = str(params["view_id"])
        self.view_definitions.pop(view_id, None)
        membership = self.view_memberships.pop(view_id, None)
        if membership is not None:
            if membership.report_timer is not None:
                membership.report_timer.stop()
            membership.serf.leave()
        return {"ok": True}

    def _learn_view(self, view_id: str, query_json) -> None:
        self.view_definitions[view_id] = Query.from_json(query_json)
        self._reevaluate_views()

    def _reevaluate_views(self) -> None:
        """The event trigger: join/leave view groups as state changes."""
        if not self.view_definitions or not self.running:
            return
        attrs = self.attributes()
        for view_id, query in self.view_definitions.items():
            matches = query.matches(attrs)
            member = view_id in self.view_memberships
            if matches and not member and view_id not in self._joining_views:
                self._join_view(view_id)
            elif not matches and member:
                self._leave_view(view_id)

    def _join_view(self, view_id: str) -> None:
        self._joining_views.add(view_id)

        def on_reply(result) -> None:
            self._joining_views.discard(view_id)
            if not self.running or result.get("error"):
                return
            group = str(result["name"])
            address = serf_address(self.node_id, group)
            if self.network.is_registered(address):
                self.network.endpoint(address).stop()  # type: ignore[attr-defined]
            serf = SerfAgent(
                self.sim, self.network, self.node_id, address, self.region,
                self.config.serf, directory=group_directory(self.sim, group),
            )
            serf.on_query(GROUP_QUERY_EVENT, self._answer_group_query)
            serf.start()
            membership = GroupMembership(
                group, f"__view__:{view_id}", float("-inf"), float("inf"), serf
            )
            self.view_memberships[view_id] = membership
            entry_points = list(result.get("entry_points") or ())
            if entry_points:
                serf.join(entry_points)
            if result.get("representative"):
                self._start_reporting(
                    membership, float(result.get("report_interval", 5.0))
                )
            # State may have changed again while the join was in flight.
            self._reevaluate_views()

        self.call(
            self.focus_address,
            "focus.join-view",
            {"node_id": self.node_id, "view_id": view_id, "region": self.region},
            on_reply=on_reply,
            on_timeout=lambda: self._joining_views.discard(view_id),
            timeout=self.config.query_timeout * 2,
        )

    def _leave_view(self, view_id: str) -> None:
        membership = self.view_memberships.pop(view_id, None)
        if membership is None:
            return
        if membership.report_timer is not None:
            membership.report_timer.stop()
            membership.report_timer = None
        membership.serf.leave()
        self.call(
            self.focus_address,
            "focus.leave-view",
            {"node_id": self.node_id, "view_id": view_id},
            on_reply=lambda result: None,
        )

    # ------------------------------------------------------ representative duty
    def _start_reporting(self, membership: GroupMembership, interval: float) -> None:
        if membership.report_timer is not None:
            return

        def report() -> None:
            self._upload_report(membership)

        membership.report_timer = self.every(interval, report, jitter=interval * 0.2)

    def _upload_report(self, membership: GroupMembership) -> None:
        # Bare node ids: the service already knows each node's region from
        # registration, so shipping regions would waste upload bandwidth.
        members = [m.name for m in membership.serf.alive_members()]

        def on_reply(result) -> None:
            if not result.get("representative") and membership.report_timer is not None:
                membership.report_timer.stop()
                membership.report_timer = None

        self.call(
            self.focus_address,
            "focus.group-report",
            {"group": membership.group, "reporter": self.node_id, "members": members},
            on_reply=on_reply,
            timeout=self.config.query_timeout,
        )

    # ------------------------------------------------------------ query paths
    def _answer_group_query(self, payload, origin: str) -> Dict[str, object]:
        """Every group member answers; the originator aggregates (§VII).

        Non-matching members answer with a bare "no" — shipping their full
        attribute state would waste the group's bandwidth (Fig. 8b).
        """
        query = Query.from_json(payload)
        attrs = self.attributes()
        if not query.matches(attrs):
            return {"node": self.node_id, "match": False}
        return {
            "node": self.node_id,
            "match": True,
            "attrs": attrs,
            "region": self.region,
        }

    def _rpc_group_query(self, params, respond, message):
        group = str(params["group"])
        membership = None
        for candidate in list(self.memberships.values()) + list(
            self.view_memberships.values()
        ):
            if candidate.group == group:
                membership = candidate
                break
        if membership is None:
            return {"matches": [], "respondents": 0, "error": "not-member"}

        limit = Query.from_json(params["query"]).limit

        def on_complete(responses: Dict[str, object]) -> None:
            matches = [
                {
                    "node": r["node"],
                    "attrs": r["attrs"],
                    "region": r.get("region", ""),
                }
                for r in responses.values()
                if r and r.get("match")
            ]
            if limit is not None:
                # Trim at the aggregating member: the server asked for at
                # most ``limit`` nodes, so don't ship more upstream.
                matches = matches[:limit]
            respond({"matches": matches, "respondents": len(responses)})

        membership.serf.query(
            GROUP_QUERY_EVENT,
            params["query"],
            on_complete,
            timeout=self.config.group_query_timeout,
        )
        return DEFERRED

    def _rpc_node_query(self, params, respond, message):
        query = Query.from_json(params["query"])
        attrs = self.attributes()
        return {
            "node": self.node_id,
            "match": query.matches(attrs),
            "attrs": attrs,
            "region": self.region,
        }

    def _rpc_be_representative(self, params, respond, message):
        group = str(params["group"])
        for membership in list(self.memberships.values()) + list(
            self.view_memberships.values()
        ):
            if membership.group == group:
                self._start_reporting(membership, float(params.get("interval", 5.0)))
                return {"ok": True}
        return {"ok": False, "error": "not-member"}

    def _rpc_stop_representative(self, params, respond, message):
        group = str(params["group"])
        for membership in self.memberships.values():
            if membership.group == group and membership.report_timer is not None:
                membership.report_timer.stop()
                membership.report_timer = None
        return {"ok": True}

    def _rpc_move_group(self, params, respond, message):
        """The DGM asks us to re-request a group (e.g. after a geo split)."""
        attribute = str(params["attribute"])
        value = self.dynamic.get(attribute)
        membership = self.memberships.get(attribute)
        if value is None or membership is None:
            return {"ok": False}
        if attribute not in self._moving:
            self._request_move(attribute, value, leaving=membership.group)
        return {"ok": True}

    # --------------------------------------------------------------- helpers
    def endpoint_addresses(self) -> List[str]:
        """All network addresses owned by this node (manager + serf agents)."""
        addresses = [self.address]
        addresses.extend(m.serf.address for m in self.memberships.values())
        addresses.extend(m.serf.address for m in self.view_memberships.values())
        return addresses

    def total_bandwidth_bytes(self) -> int:
        """Bytes sent+received across every endpoint of this node."""
        return sum(
            self.network.meter(a).total_bytes for a in self.endpoint_addresses()
        )
