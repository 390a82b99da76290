# Developer entry points. `make check` is what CI runs: lint (when ruff is
# installed), the tier-1 suite, the scheduler-equivalence gate (calendar
# queue + timer wheel, vectorized membership and batched delivery must be
# bit-identical to their oracles in tests/oracles.py: plain heap,
# self-scheduling timers, dict membership, direct delivery), and the
# benchmark regression gate (a quick kernel-bench smoke pass
# — which re-verifies the hot-path speedups, the membership-backend
# equivalence checksum, and the seeded-run determinism checksums for both
# the v1 and v2 profiles plus the v2 swim_full floor — compared against the
# committed full-mode BENCH_kernel.json), and the chaos smoke gate (the
# fault-injection layer stays deterministic and inert when unused).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check lint test scheduler-equivalence global-state-gate \
        parallel-equivalence bench-gate bench-kernel \
        bench-kernel-smoke bench chaos-smoke bench-shards bench-shards-smoke \
        bench-overload bench-overload-smoke perfbench-smoke

check: lint test scheduler-equivalence global-state-gate bench-gate chaos-smoke

# Gated on availability: ruff is a dev convenience, not a runtime
# dependency, and the offline test image does not ship it. CI installs it.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check . && ruff format --check .; \
	else \
		echo "lint: ruff not installed, skipping (pip install ruff)"; \
	fi

# Also part of `test`; kept as a named gate so kernel changes can be
# validated against the oracles in isolation (and so CI logs show the
# equivalence pass by name): scheduler, membership and delivery suites.
scheduler-equivalence:
	$(PYTHON) -m pytest tests/test_sim_scheduler.py \
		tests/test_gossip_membership.py tests/test_sim_network_batching.py \
		tests/test_profile_v2.py -q

# Cross-simulation isolation: two seeded sims in one process must checksum
# identically in both run orders (no interpreter-global mutable state), and
# run_until's inclusive-bound rule must hold on the queue and its heap oracle.
# Part of `test` too; named so the sweep is visible in CI logs.
global-state-gate:
	$(PYTHON) -m pytest tests/test_global_state.py \
		tests/test_run_until_boundary.py -q

# Serial <-> parallel byte-equivalence of the region-sharded kernel.
parallel-equivalence:
	$(PYTHON) -m pytest tests/test_parallel_kernel.py -q

test:
	$(PYTHON) -m pytest -x -q

bench-kernel-smoke:
	$(PYTHON) benchmarks/bench_kernel.py --quick

bench-shards-smoke:
	$(PYTHON) benchmarks/bench_shards.py --quick

bench-overload-smoke:
	$(PYTHON) benchmarks/bench_overload.py --quick

# Regenerate the quick-mode results and diff them against the committed
# full-mode baselines; see benchmarks/gate.py for what is compared. The
# GATE_SUMMARY hook lets CI append the verdict to $GITHUB_STEP_SUMMARY.
bench-gate: bench-kernel-smoke bench-shards-smoke bench-overload-smoke
	$(PYTHON) benchmarks/gate.py \
		--shards-baseline BENCH_shards.json \
		--shards-candidate BENCH_shards.quick.json \
		--overload-baseline BENCH_overload.json \
		--overload-candidate BENCH_overload.quick.json \
		$(if $(GATE_SUMMARY),--summary $(GATE_SUMMARY))

# Fault-injection determinism gate: the seeded failure scenario's resilience
# report must be byte-stable and match the committed BENCH_chaos.json, and an
# empty fault plan must leave the kernel determinism checksum untouched.
chaos-smoke:
	$(PYTHON) benchmarks/chaos_smoke.py

# Benchmark of record, correctness only: two short runs whose exit code is
# their own answer, determinism and digest checks. Timings are not gated.
perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload bringup_store_400 --seed 1234 --seconds 15 --trace 0
	$(PYTHON) perfbench/run.py --workload churn_400 --seed 1234 --seconds 15 --trace 0

bench-kernel:
	$(PYTHON) benchmarks/bench_kernel.py

# Full-mode shard scale-out sweep (~15 min); regenerates BENCH_shards.json.
bench-shards:
	$(PYTHON) benchmarks/bench_shards.py

# Full-mode saturation-knee sweep (~2 min); regenerates BENCH_overload.json.
bench-overload:
	$(PYTHON) benchmarks/bench_overload.py

# Full paper-figure regeneration (~10 minutes); see benchmarks/README.md.
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s
