"""The benchmark of record: one workload, measured end to end or per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload query_1600 --seed 1234 --seconds 15 --trace 0
    python3 perfbench/run.py --workload churn_400 --seed 1234 --seconds 15 --trace 1

``--trace 0`` sets the cluster up several times (``setup_s`` is the median),
measures one window and prints the end-to-end metrics. ``--trace 1`` runs an
untraced pass and then a traced one on the same seed, checks that both
produce the same simulated outcome, cross-checks span counts against the
program's own counters, and prints the per-layer metrics. Human-readable
detail goes first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Any failed check
makes the exit code non-zero.

Digests of the simulated outcome are kept under the checkout's build
directory (``$CARGO_TARGET_DIR``, default ``.bench_build``), keyed by
workload, seed, run length and a hash of the source; a later run of the same
key that disagrees fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import pace
    import suite
    import spans as spans_mod
except ImportError as exc:  # no program to measure in this directory
    print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
          file=sys.stderr)
    sys.exit(2)


def source_hash() -> str:
    digest = hashlib.sha256()
    for base in (ROOT / "src", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_digest(workload: str, seed: int, seconds: float, digest: str) -> List[str]:
    """Compare with the digest an earlier run of the same key recorded."""
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    store = build_dir / "perfbench-digests"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{workload}-{seed}-{seconds:g}-{source_hash()}.txt"
    if path.exists():
        recorded = path.read_text().strip()
        if recorded != digest:
            return [f"digest {digest} differs from {recorded} recorded by an "
                    f"earlier run of the same seed"]
        return []
    tmp = path.with_suffix(".tmp")
    tmp.write_text(digest + "\n")
    tmp.replace(path)
    return []


def print_phases(label: str, phases: Dict[str, "suite.Phase"]) -> None:
    cells = "  ".join(
        f"{name} {p.wall_s:.3f}/{p.cpu_s:.3f}" for name, p in phases.items()
    )
    print(f"{label} phases wall/cpu s: {cells}")


def print_pass(result: "suite.PassResult") -> None:
    ok = sum(o.ok for o in result.outcomes)
    sources: Dict[str, int] = {}
    for outcome in result.outcomes:
        sources[outcome.source] = sources.get(outcome.source, 0) + 1
    print(
        f"window {result.window_s:g} sim-s, {result.events_window} events, "
        f"sim_speed {result.sim_speed:.4f} (raw {result.sim_speed_raw:.4f}, "
        f"median probe {pace.median_probe_ms(result.probes):.3f} ms, "
        f"gc {sum(result.slice_gc):.3f} s), "
        f"{len(result.outcomes)} queries ({ok} ok; sources {sources}), "
        f"server {result.server_bytes_window} B, digest {result.digest}"
    )


def store_problems(tracer) -> List[str]:
    errors = tracer.tallies["store_errors"]
    return [f"store.client.errors = {errors}"] if errors else []


def run_untraced(workload, seed: int, seconds: float):
    tracer = spans_mod.Tracer()
    spans_mod.install(tracer, spans=False)
    setups: List[float] = []
    fingerprints = set()
    result = None
    # The window runs on the first set-up, in a fresh heap; the further
    # set-ups only time set-up. Measured after two discarded set-ups
    # instead, one churn_400 seed read 0.39 rescaled against 0.45 to 0.46
    # in a fresh process.
    for index in range(workload.setups):
        phases = suite.fresh_phases()
        scenario = suite.set_up(workload, seed, phases)
        setups.append(phases["build"].wall_s + phases["warm"].wall_s)
        fingerprints.add(suite.setup_fingerprint(scenario))
        print_phases(f"setup {index + 1}/{workload.setups}", phases)
        if result is None:
            result = suite.measure(workload, seed, seconds, scenario, phases)
            print_phases("run", phases)
        scenario = None  # release this set-up before the next build
    problems = list(result.problems)
    if len(fingerprints) != 1:
        problems.append(f"set-ups of one seed diverged: {sorted(fingerprints)}")
    problems.extend(store_problems(tracer))
    print_pass(result)
    metrics = suite.end_to_end(result, setups)
    return result, metrics, problems


def per_layer(untraced, traced, tracer) -> Tuple[Dict[str, Dict[str, float]], List[str]]:
    """Per-layer metrics of the window, plus set-up shares and cross-checks."""
    by_phase = tracer.aggregate()
    window = by_phase.get("harness.window", {})
    setup: Dict[str, Dict[str, float]] = {}
    for phase in ("harness.build", "harness.warm"):
        for layer, row in by_phase.get(phase, {}).items():
            acc = setup.setdefault(layer, {"calls": 0, "self_s": 0.0})
            acc["calls"] += row["calls"]
            acc["self_s"] += row["self_s"]
    whole: Dict[str, int] = {}
    for rows in by_phase.values():
        for layer, row in rows.items():
            whole[layer] = whole.get(layer, 0) + row["calls"]

    metrics: Dict[str, Dict[str, float]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    phases = traced.phases
    put("harness.build_s", phases["build"].wall_s, "s")
    put("harness.warm_s", phases["warm"].wall_s, "s")
    put("harness.window_cpu_s", phases["window"].cpu_s, "s")
    put("harness.sim_speed_raw", untraced.sim_speed_raw, "sim-s/s")
    put("harness.probe_ms", pace.median_probe_ms(untraced.probes), "ms")
    put("harness.window_gc_s", sum(untraced.slice_gc), "s")
    for layer, *_ in spans_mod.LAYERS:
        row = window.get(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        acc = setup.get(layer, {"calls": 0, "self_s": 0.0})
        if layer == "sim.loop.run_until":
            # The harness makes the run_until calls; only time is news here.
            put("sim.loop.self_s", row["self_s"], "s")
            put("sim.loop.setup_self_s", acc["self_s"], "s")
            continue
        put(f"{layer}.calls", row["calls"], "count")
        put(f"{layer}.total_s", row["total_s"], "s")
        put(f"{layer}.self_s", row["self_s"], "s")
        put(f"{layer}.setup_calls", acc["calls"], "count")
        put(f"{layer}.setup_self_s", acc["self_s"], "s")
    counters = traced.window_counters
    put("sim.loop.events", traced.events_window, "count")
    put("sim.loop.events_per_s",
        untraced.events_window / untraced.phases["window"].wall_s, "1/s")
    put("sim.network.messages_sent", counters["messages_sent"], "count")
    put("sim.network.bytes_sent", counters["bytes_sent"], "B")
    put("sim.network.messages_dropped", counters["messages_dropped"], "count")
    put("sim.rpc.timeouts", counters["rpc.timeouts"], "count")
    applies = window.get("gossip.membership.apply", {"calls": 0})["calls"]
    put("gossip.membership.apply.useful_ratio",
        tracer.phase_tallies["harness.window"]["apply_changed"] / applies
        if applies else 0.0, "ratio")
    lookups = counters["cache_lookups"]
    put("core.router.cache_hit_ratio",
        counters["cache_hits"] / lookups if lookups else 0.0, "ratio")
    put("core.router.group_queries", counters["group_queries"], "count")
    put("core.router.query_timeouts", counters["query_timeouts"], "count")
    put("store.client.errors", tracer.tallies["store_errors"], "count")
    put("trace.overhead", traced.sim_speed / untraced.sim_speed, "ratio")

    # Cross-checks over the whole traced pass: wrapped call counts against
    # the program's own counters.
    totals = traced.counters
    checks = [
        ("sim.process.handle_message calls", whole.get("sim.process.handle_message", 0),
         "messages_delivered", totals["messages_delivered"]),
        ("sim.network.send calls + send_fanout destinations",
         whole.get("sim.network.send", 0) + tracer.tallies["fanout_destinations"],
         "messages_sent", totals["messages_sent"]),
        ("core.router.handle calls", whole.get("core.router.handle", 0),
         "service queries", totals["queries"]),
        ("core.dgm.suggest calls", whole.get("core.dgm.suggest", 0),
         "service suggestions", totals["suggestions"]),
        ("core.registrar.register calls", whole.get("core.registrar.register", 0),
         "service registrations", totals["registrations"]),
    ]
    problems = []
    for span_label, span_count, counter_label, counter_value in checks:
        status = "ok" if span_count == counter_value else "MISMATCH"
        print(f"cross-check {span_label} = {span_count} vs {counter_label} = "
              f"{counter_value:.0f}: {status}")
        if status != "ok":
            problems.append(f"{span_label} {span_count} != {counter_label} "
                            f"{counter_value:.0f}")
    return metrics, problems


def run_traced(workload, seed: int, seconds: float):
    phases = suite.fresh_phases()
    scenario = suite.set_up(workload, seed, phases)
    untraced = suite.measure(workload, seed, seconds, scenario, phases)
    scenario = None
    print_phases("untraced", phases)
    print_pass(untraced)

    tracer = spans_mod.Tracer()
    installed = spans_mod.install(tracer)
    try:
        phases = suite.fresh_phases()
        scenario = suite.set_up(workload, seed, phases, spans=tracer)
        traced = suite.measure(workload, seed, seconds, scenario, phases, spans=tracer)
    finally:
        installed.remove()
    print_phases("traced", phases)
    print_pass(traced)
    problems = untraced.problems + traced.problems + store_problems(tracer)
    if traced.digest != untraced.digest:
        problems.append(f"traced digest {traced.digest} != untraced "
                        f"{untraced.digest}: tracing changed the simulation")
    metrics, mismatches = per_layer(untraced, traced, tracer)
    problems.extend(mismatches)
    return traced, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = suite.WORKLOADS[args.workload]
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={sys.version.split()[0]}")
    runner = run_traced if args.trace else run_untraced
    result, metrics, problems = runner(workload, args.seed, args.seconds)
    problems.extend(check_digest(workload.name, args.seed, args.seconds, result.digest))
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    attempted = len(result.outcomes)
    failed = attempted - sum(o.ok for o in result.outcomes)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
