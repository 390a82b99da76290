"""The three workloads of record and one measured pass over each.

A pass has four phases, each timed in wall and process-CPU seconds:

* **build** — ``build_focus_cluster`` (and, on ``churn_400``, starting the
  attribute driver);
* **warm-up** — ``run_until`` to the workload's steady state;
* **window** — the measured stretch of simulated time; the open-loop query
  stream is due inside it, one query every 1/40 s, each scheduled at its
  due time with ``schedule_at``. The window runs in slices of
  ``WINDOW_SLICE_S`` simulated seconds with a host-pace probe between them
  (``pace.py``); the probes are timed outside the window's clock;
* **drain** — ``run_until`` in short steps until every issued query has an
  answer or a timeout (or the drain cap passes; what is still open then
  counts as failed, with its latency up to the end of the drain).

Only public entry points are used: ``build_focus_cluster``,
``Simulator.run_until``/``schedule_at``, ``Application.query``,
``WorkloadDriver`` and the ``querygen``/``population`` generators. The
window's length is fixed in simulated seconds (``seconds`` times the
workload's nominal simulation speed), so every simulated metric repeats
exactly for a given seed and run length, and a faster program measures the
same simulated work in less wall time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import pace
from repro.harness.scenarios import build_focus_cluster
from repro.workloads import WorkloadDriver, node_spec_factory
from repro.workloads.dynamics import default_dynamics
from repro.workloads.querygen import (
    grouped_placement_query,
    service_status_query,
    tenant_report_query,
)

#: Offered query rate (the Fig. 7b stream), queries per simulated second.
QUERY_RATE = 40.0
#: Result limit of the placement queries.
QUERY_LIMIT = 10
#: Drain step and cap, in simulated seconds. The client gives up on a query
#: after 10 s, so nothing can stay open past the cap.
DRAIN_STEP = 0.5
DRAIN_CAP = 12.0
#: Seed of the node population, the same on every run: the fixed testbed.
#: ``--seed`` drives everything else (simulator streams, query stream,
#: attribute walk). Across populations the tail latency alone moves by more
#: than any bound the benchmark may set (README, "Why the population is
#: pinned").
POPULATION_SEED = 1234
#: Simulated seconds between two host-pace probes inside the window: 60 to
#: 100 slices per window, 0.14 to 0.26 wall seconds each on average.
WINDOW_SLICE_S = 0.1
#: Percentile reported as the tail. Every window holds at least 240
#: queries, so at least 12 samples lie beyond it.
TAIL_PERCENTILE = 95


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    warm_start: bool
    with_store: bool
    #: Simulated seconds of warm-up before the window opens.
    warm_s: float
    #: Attribute random walk (volatility per 1 s tick), or None.
    volatility: Optional[float]
    #: "placement" (directed pulls) or "static" (store scans).
    queries: str
    #: Nominal simulated seconds per wall second, which turns ``--seconds``
    #: into the window's simulated length.
    sim_per_wall: float
    #: Shortest window in simulated seconds, whatever ``--seconds`` says:
    #: 240 queries keep 12 samples beyond the p95; the bring-up window also
    #: has to cover the 5 s registration spread.
    min_window_s: float
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups: int


#: Why each workload exists is recorded in ``BENCHMARK.json`` and the README.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="query_1600",
            nodes=1600,
            warm_start=True,
            with_store=False,
            warm_s=3.0,
            volatility=None,
            queries="placement",
            sim_per_wall=0.65,
            min_window_s=6.0,
            setups=3,
        ),
        Workload(
            name="churn_400",
            nodes=400,
            warm_start=True,
            with_store=False,
            warm_s=2.0,
            volatility=0.005,
            queries="placement",
            sim_per_wall=0.33,
            min_window_s=6.0,
            setups=3,
        ),
        Workload(
            name="bringup_store_400",
            nodes=400,
            warm_start=False,
            with_store=True,
            warm_s=0.0,
            volatility=None,
            queries="static",
            sim_per_wall=0.33,
            min_window_s=8.0,
            setups=15,
        ),
    )
}


def window_seconds(workload: Workload, seconds: float) -> float:
    """Simulated length of the measured window for a run of ``seconds``."""
    return max(workload.min_window_s, round(seconds * workload.sim_per_wall * 2) / 2)


@dataclass
class Phase:
    wall_s: float = 0.0
    cpu_s: float = 0.0


class _Clock:
    """Times one phase in wall and process-CPU seconds."""

    def __init__(self, phase: Phase) -> None:
        self.phase = phase

    def __enter__(self) -> "_Clock":
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.phase.wall_s += time.perf_counter() - self._wall
        self.phase.cpu_s += time.process_time() - self._cpu


@dataclass
class Outcome:
    """What the application saw for one query."""

    latency_s: float = math.inf
    ok: bool = False
    source: str = "unresolved"
    node_ids: List[str] = field(default_factory=list)


@dataclass
class PassResult:
    window_s: float
    phases: Dict[str, Phase]
    events_window: int
    server_bytes_window: int
    outcomes: List[Outcome]
    problems: List[str]
    digest: str
    #: Program counters over the whole pass (cross-checks) and the window.
    counters: Dict[str, float]
    window_counters: Dict[str, float]
    #: Wall seconds of each window slice, the garbage collector's share of
    #: each, and the host-pace probes around them (one more than slices).
    slice_walls: List[float]
    slice_gc: List[float]
    probes: List[float]

    @property
    def sim_speed(self) -> float:
        """Simulated seconds per wall second over the window, each slice
        rescaled to the reference host pace (``pace.reference_seconds``)."""
        return self.window_s / pace.reference_seconds(
            self.slice_walls, self.slice_gc, self.probes)

    @property
    def sim_speed_raw(self) -> float:
        """Simulated seconds per wall second over the window, as timed."""
        return self.window_s / self.phases["window"].wall_s


def make_queries(workload: Workload, seed: int, count: int):
    """The query stream; the program sees only these generated queries."""
    rng = random.Random(f"perfbench/queries/{workload.name}/{seed}")
    if workload.queries == "placement":
        return [
            grouped_placement_query(rng, limit=QUERY_LIMIT, freshness_ms=0.0)
            for _ in range(count)
        ]
    generators = (service_status_query, tenant_report_query)
    return [generators[i % 2](rng) for i in range(count)]


def build(workload: Workload, seed: int):
    """Cluster build; returns the scenario (and starts the churn driver)."""
    scenario = build_focus_cluster(
        workload.nodes,
        seed=seed,
        warm_start=workload.warm_start,
        with_store=workload.with_store,
        record_bandwidth_events=False,
        node_factory=node_spec_factory(POPULATION_SEED),
    )
    if workload.volatility is not None:
        driver = WorkloadDriver(
            scenario.sim,
            scenario.agents,
            dynamics=default_dynamics(volatility=workload.volatility),
            tick_interval=1.0,
            seed=seed,
        )
        driver.start()
    return scenario


def _count(registry, name: str) -> float:
    counter = registry.get_counter(name)
    return counter.value if counter is not None else 0.0


def program_counters(scenario) -> Dict[str, float]:
    """The program's own counters, read through public registries."""
    network = scenario.network.metrics
    services = scenario.services
    counters: Dict[str, float] = {"events": scenario.sim.events_processed}
    for name in ("messages_sent", "bytes_sent", "messages_delivered",
                 "messages_dropped", "rpc.timeouts"):
        counters[name] = _count(network, name)
    for name in ("queries", "suggestions", "registrations", "group_queries",
                 "query_timeouts"):
        counters[name] = sum(_count(s.metrics, name) for s in services)
    counters["cache_hits"] = sum(s.cache.hits for s in services)
    counters["cache_lookups"] = sum(s.cache.hits + s.cache.misses for s in services)
    return counters


def setup_fingerprint(scenario) -> str:
    c = program_counters(scenario)
    return f"{c['events']:.0f}/{c['messages_sent']:.0f}/{c['bytes_sent']:.0f}"


def fresh_phases() -> Dict[str, Phase]:
    return {name: Phase() for name in ("build", "warm", "window", "drain")}


def _in_phase(phases: Dict[str, Phase], spans, name: str, fn, *args):
    """Run one phase under its clock (and, when tracing, its root span)."""
    with _Clock(phases[name]):
        if spans is not None:
            return spans.span(f"harness.{name}", fn, *args)
        return fn(*args)


def set_up(workload: Workload, seed: int, phases: Dict[str, Phase], spans=None):
    """Build and warm up; returns the scenario at steady state."""
    gc.collect()
    scenario = _in_phase(phases, spans, "build", build, workload, seed)
    if workload.warm_s > 0:
        _in_phase(phases, spans, "warm", scenario.sim.run_until, workload.warm_s)
    return scenario


def measure(workload: Workload, seed: int, seconds: float, scenario,
            phases: Dict[str, Phase], spans=None) -> PassResult:
    """Offer the query stream over the window, then drain and check it.

    ``spans`` (a :class:`perfbench.spans.Tracer`) wraps each phase in a root
    span so per-layer numbers can be split by phase.
    """
    sim = scenario.sim
    window_s = window_seconds(workload, seconds)
    queries = make_queries(workload, seed, int(round(window_s * QUERY_RATE)))
    outcomes = [Outcome() for _ in queries]
    start = sim.now

    def issue(index: int, due: float) -> None:
        def answered(response, outcome=outcomes[index]) -> None:
            outcome.latency_s = sim.now - due
            outcome.ok = not response.timed_out and response.error is None
            outcome.source = response.source
            outcome.node_ids = response.node_ids

        scenario.app.query(queries[index], answered)

    for index in range(len(queries)):
        due = start + index / QUERY_RATE
        sim.schedule_at(due, issue, index, due)

    before = program_counters(scenario)
    bytes_before = scenario.server_bandwidth_bytes()
    gc.collect()
    end = start + window_s
    slices = max(1, round(window_s / WINDOW_SLICE_S))
    slice_walls: List[float] = []
    slice_gc: List[float] = []
    probes = [pace.probe()]
    with pace.GcClock() as collecting:
        for index in range(1, slices + 1):
            edge = end if index == slices else start + index * window_s / slices
            wall_before = phases["window"].wall_s
            gc_before = collecting.total_s
            _in_phase(phases, spans, "window", sim.run_until, edge)
            slice_walls.append(phases["window"].wall_s - wall_before)
            slice_gc.append(collecting.total_s - gc_before)
            probes.append(pace.probe())
    after = program_counters(scenario)
    server_bytes = scenario.server_bandwidth_bytes() - bytes_before

    def drain() -> None:
        limit = start + window_s + DRAIN_CAP
        while sim.now < limit and any(o.source == "unresolved" for o in outcomes):
            sim.run_until(min(limit, sim.now + DRAIN_STEP))

    _in_phase(phases, spans, "drain", drain)
    for index, outcome in enumerate(outcomes):
        if outcome.source == "unresolved":
            # Counted as failed, with the latency it had when the drain ended.
            outcome.latency_s = sim.now - (start + index / QUERY_RATE)
    problems = check_answers(workload, scenario, queries, outcomes)
    counters = program_counters(scenario)
    return PassResult(
        window_s=window_s,
        phases=phases,
        events_window=int(after["events"] - before["events"]),
        server_bytes_window=server_bytes,
        outcomes=outcomes,
        problems=problems,
        digest=outcome_digest(counters, server_bytes, outcomes),
        counters=counters,
        window_counters={k: after[k] - before[k] for k in after},
        slice_walls=slice_walls,
        slice_gc=slice_gc,
        probes=probes,
    )


def check_answers(workload: Workload, scenario, queries, outcomes) -> List[str]:
    """Correctness of every answer; returns a list of violations."""
    problems: List[str] = []
    agents = {agent.node_id: agent for agent in scenario.agents}
    for index, (query, outcome) in enumerate(zip(queries, outcomes)):
        ids = outcome.node_ids
        if query.limit is not None and len(ids) > query.limit:
            problems.append(f"query {index}: {len(ids)} matches over limit {query.limit}")
        if len(set(ids)) != len(ids):
            problems.append(f"query {index}: duplicate matches")
        for node_id in ids:
            agent = agents.get(node_id)
            if agent is None:
                problems.append(f"query {index}: unknown node {node_id}")
                continue
            attributes = agent.attributes()
            # Under the attribute walk only static terms have a fixed truth.
            terms = query.terms if workload.volatility is None else [
                t for t in query.terms if t.name in agent.static
            ]
            for term in terms:
                if not term.matches(attributes.get(term.name)):
                    problems.append(
                        f"query {index}: {node_id} fails {term.name} "
                        f"({attributes.get(term.name)!r})"
                    )
    if not workload.warm_start:
        unregistered = [a.node_id for a in scenario.agents if not a.registered]
        if unregistered:
            problems.append(f"{len(unregistered)} agents never registered")
    return problems


def outcome_digest(counters: Dict[str, float], server_bytes: int,
                   outcomes: List[Outcome]) -> str:
    """Hash of the simulated outcome: events, query outcomes and bytes."""
    body = {
        "events": counters["events"],
        "messages_sent": counters["messages_sent"],
        "bytes_sent": counters["bytes_sent"],
        "server_bytes": server_bytes,
        "queries": [
            [repr(o.latency_s), o.ok, o.source, sorted(o.node_ids)] for o in outcomes
        ],
    }
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()[:16]


# ------------------------------------------------------------------ metrics
def percentile(values: List[float], p: float) -> float:
    """Linear-interpolated percentile."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def end_to_end(result: PassResult, setup_s: List[float]) -> Dict[str, Dict[str, float]]:
    latencies_ms = [o.latency_s * 1000.0 for o in result.outcomes]
    ok = sum(o.ok for o in result.outcomes)
    return {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "sim_speed": {"value": result.sim_speed, "unit": "sim-s/s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "query_p50_ms": {"value": percentile(latencies_ms, 50), "unit": "ms"},
        f"query_p{TAIL_PERCENTILE}_ms": {
            "value": percentile(latencies_ms, TAIL_PERCENTILE), "unit": "ms"},
        "query_ok_frac": {"value": ok / len(result.outcomes), "unit": "ratio"},
        "server_kBps": {
            "value": result.server_bytes_window / result.window_s / 1024.0,
            "unit": "KB/s",
        },
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
