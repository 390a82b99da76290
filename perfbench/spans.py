"""Per-layer tracing from outside the program.

:func:`install` replaces the public entry point of each layer with a thin
wrapper that records one span per call: name, start, end and parent. The
spans live in flat arrays in memory and are aggregated once, when the run
ends (:meth:`Tracer.aggregate`). A layer's self time is its spans' total
duration minus the part covered by their direct child spans.

Wrappers are installed on the classes, before any scenario is built, so
bound methods cached at construction time resolve to the wrapper too. The
program's own counters are read afterwards to cross-check the span counts
(see ``run.py``): a wrapper that some call path bypasses shows
up there as a mismatch instead of as a silently low number.

Tracing draws no simulation randomness and schedules no events, so a traced
run must produce the same simulated outcome as an untraced one; the
benchmark checks that by comparing digests.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: (layer name, module path, class name, method name). Layer names are the
#: repository's module layout; they prefix every per-layer metric.
LAYERS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim.loop.run_until", "repro.sim.loop", "Simulator", "run_until"),
    ("sim.process.handle_message", "repro.sim.process", "Process", "handle_message"),
    ("sim.network.send", "repro.sim.network", "Network", "send"),
    ("sim.network.send_fanout", "repro.sim.network", "Network", "send_fanout"),
    ("sim.rpc.call", "repro.sim.rpc", "RpcMixin", "call"),
    ("gossip.membership.upsert", "repro.gossip.membership", "MembershipTable", "upsert"),
    ("gossip.membership.apply", "repro.gossip.membership", "MembershipTable", "apply"),
    ("gossip.agent.query", "repro.gossip.agent", "SerfAgent", "query"),
    ("core.router.handle", "repro.core.router", "QueryRouter", "handle"),
    ("core.dgm.suggest", "repro.core.dgm", "DynamicGroupsManager", "suggest"),
    ("core.dgm.handle_report", "repro.core.dgm", "DynamicGroupsManager", "handle_report"),
    ("core.agent.set_attribute", "repro.core.agent", "NodeAgent", "set_attribute"),
    ("core.registrar.register", "repro.core.registrar", "Registrar", "register"),
    ("store.client.put", "repro.store.cluster", "StoreClient", "put"),
    ("store.client.get", "repro.store.cluster", "StoreClient", "get"),
    ("store.client.scan", "repro.store.cluster", "StoreClient", "scan"),
    ("workloads.driver.tick", "repro.workloads.dynamics", "WorkloadDriver", "tick"),
)


class Tracer:
    """Flat in-memory span store; one row per wrapped call."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        #: Per-layer tallies a span count cannot carry: destinations of
        #: ``send_fanout``, ``apply`` calls that changed state, and store
        #: quorum errors.
        self.tallies: Dict[str, int] = dict.fromkeys(
            ("fanout_destinations", "apply_changed", "store_errors"), 0
        )
        #: The same tallies split by harness phase (see :meth:`span`).
        self.phase_tallies: Dict[str, Dict[str, int]] = {}

    def name_index(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a root span (used for the harness phases)."""
        before = dict(self.tallies)
        try:
            return self._wrap(fn, self.name_index(name))(*args, **kwargs)
        finally:
            totals = self.phase_tallies.setdefault(name, dict.fromkeys(before, 0))
            for key, value in self.tallies.items():
                totals[key] += value - before[key]

    def _wrap(self, fn: Callable, nid: int) -> Callable:
        stack = self._stack
        names_append = self.name_id.append
        parent_append = self.parent.append
        start_append = self.start.append
        end_append = self.end.append
        ends = self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ends)
            names_append(nid)
            parent_append(stack[-1])
            end_append(0.0)
            stack.append(index)
            start_append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    # ------------------------------------------------------------ aggregation
    def aggregate(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per root span (phase) and layer: calls, total and self seconds.

        Returns ``{phase: {layer: {"calls", "total_s", "self_s"}}}``, where
        the phase is the name of the span's outermost ancestor.
        """
        count = len(self.end)
        if count == 0:
            return {}
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.float64)
        if np.any(end == 0.0):
            raise RuntimeError("trace holds a span that never closed")
        duration = end - np.frombuffer(self.start, dtype=np.float64)
        # Child time covered, summed into each direct parent.
        has_parent = parent >= 0
        child_time = np.zeros(count)
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        self_time = duration - child_time
        # Root ancestor by pointer jumping (parents precede children).
        root = np.where(has_parent, parent, np.arange(count))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
        phase_of = name_id[root]
        result: Dict[str, Dict[str, Dict[str, float]]] = {}
        layers = len(self.names)
        for phase in np.unique(phase_of).tolist():
            mask = phase_of == phase
            ids = name_id[mask]
            calls = np.bincount(ids, minlength=layers)
            total = np.bincount(ids, weights=duration[mask], minlength=layers)
            own = np.bincount(ids, weights=self_time[mask], minlength=layers)
            result[self.names[phase]] = {
                self.names[i]: {
                    "calls": int(calls[i]),
                    "total_s": float(total[i]),
                    "self_s": float(own[i]),
                }
                for i in range(layers)
                if calls[i]
            }
        return result


def _resolve(module: str, cls: str):
    imported = __import__(module, fromlist=[cls])
    return getattr(imported, cls)


class Installed:
    """Handle for installed wrappers; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self._originals: List[Tuple[type, str, object]] = []

    def replace(self, owner: type, attr: str, wrapper: Callable) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


def install(tracer: Tracer, *, spans: bool = True) -> Installed:
    """Wrap every layer in :data:`LAYERS`; returns the handle to undo it.

    With ``spans=False`` only the store clients get a wrapper, and it only
    tallies quorum errors: the untraced run's correctness check needs that
    count, and nothing else is touched.
    """
    installed = Installed()
    for layer, module, cls_name, method in LAYERS:
        if not spans and not layer.startswith("store.client."):
            continue
        owner = _resolve(module, cls_name)
        original = owner.__dict__[method]
        inner = tracer._wrap(original, tracer.name_index(layer)) if spans else original
        installed.replace(owner, method, _with_tally(tracer, layer, inner))
    return installed


def _with_tally(tracer: Tracer, layer: str, traced: Callable) -> Callable:
    """Add the layer-specific tallies that the span count alone misses."""
    tallies = tracer.tallies
    if layer == "sim.network.send_fanout":

        @functools.wraps(traced)
        def fanout(self, src, dsts, *args, **kwargs):
            tallies["fanout_destinations"] += len(dsts)
            return traced(self, src, dsts, *args, **kwargs)

        return fanout
    if layer == "gossip.membership.apply":

        @functools.wraps(traced)
        def apply(self, update):
            changed = traced(self, update)
            if changed:
                tallies["apply_changed"] += 1
            return changed

        return apply
    if layer.startswith("store.client."):

        @functools.wraps(traced)
        def store_op(*args, on_error: Optional[Callable] = None, **kwargs):
            def failed(error, on_error=on_error):
                tallies["store_errors"] += 1
                if on_error is not None:
                    on_error(error)

            return traced(*args, on_error=failed, **kwargs)

        return store_op
    return traced
