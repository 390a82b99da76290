"""The benchmark gate fails with clear messages, never a KeyError."""

import json

from benchmarks.gate import (
    SHARDS_QUICK_SCALEOUT_FLOOR,
    SHARDS_SCALEOUT_FLOOR,
    check,
    check_shards,
    main,
    write_summary,
)


def kernel_report(*, quick, benches=("event_loop",), checksum="aa", speedup=10.0):
    """A minimal kernel bench report with the gate-relevant keys."""
    return {
        "quick": quick,
        "results": {name: {"speedup": speedup} for name in benches},
        "determinism": {
            "checksum": checksum, "stable": True,
            "checksum_v2": checksum + "v2", "stable_v2": True,
        },
    }


def shards_report(*, quick, checksum="bb", scaleout=5.0):
    """A minimal shard-sweep report with the gate-relevant keys."""
    return {
        "quick": quick,
        "results": {
            "scale_sweep": {"scaleout_8v1": scaleout, "points": {}},
            "hot_replica": {"staleness_bound_respected": True},
        },
        "determinism": {"checksum": checksum, "stable": True},
    }


class TestMissingBenches:
    def test_bench_vanishing_from_candidate_fails_clearly(self):
        baseline = kernel_report(quick=False, benches=("event_loop", "net"))
        candidate = kernel_report(quick=True, benches=("event_loop",))
        failures = check(baseline, candidate)
        assert any("'net'" in f and "missing from the candidate" in f
                   for f in failures)

    def test_candidate_bench_without_baseline_fails_clearly(self):
        baseline = kernel_report(quick=False, benches=("event_loop",))
        candidate = kernel_report(quick=True, benches=("event_loop", "brand_new"))
        failures = check(baseline, candidate)
        assert any("'brand_new'" in f and "missing from the committed baseline" in f
                   for f in failures)

    def test_matching_sets_pass(self):
        baseline = kernel_report(quick=False)
        candidate = kernel_report(quick=True)
        assert check(baseline, candidate) == []


class TestNoKeyErrors:
    def test_empty_reports_fail_without_raising(self):
        failures = check({}, {})
        assert failures  # not deterministic, not quick — but no exception

    def test_shards_empty_reports_fail_without_raising(self):
        failures = check_shards({}, {})
        assert any("scaleout_8v1" in f for f in failures)

    def test_main_reports_missing_checksum_not_keyerror(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        candidate = tmp_path / "cand.json"
        baseline.write_text(json.dumps(kernel_report(quick=False)))
        # A candidate with no determinism block at all must produce gate
        # failures on stderr, not a KeyError traceback.
        candidate.write_text(json.dumps({"quick": True, "results": {}}))
        code = main(["--baseline", str(baseline), "--candidate", str(candidate)])
        assert code == 1
        err = capsys.readouterr().err
        assert "gate FAIL" in err


class TestShardsGate:
    def test_checksum_drift_fails(self):
        failures = check_shards(
            shards_report(quick=False, checksum="aa"),
            shards_report(quick=True, checksum="zz"),
        )
        assert any("checksum drifted" in f for f in failures)

    def test_baseline_below_committed_floor_fails(self):
        failures = check_shards(
            shards_report(quick=False, scaleout=SHARDS_SCALEOUT_FLOOR - 0.5),
            shards_report(quick=True),
        )
        assert any("committed full-mode 8-shard scale-out" in f
                   for f in failures)

    def test_quick_candidate_gets_loose_floor(self):
        ratio = (SHARDS_QUICK_SCALEOUT_FLOOR + SHARDS_SCALEOUT_FLOOR) / 2.0
        ok = check_shards(
            shards_report(quick=False),
            shards_report(quick=True, scaleout=ratio),
        )
        assert ok == []
        bad = check_shards(
            shards_report(quick=False),
            shards_report(quick=True,
                          scaleout=SHARDS_QUICK_SCALEOUT_FLOOR - 0.2),
        )
        assert any("candidate 8-shard scale-out" in f for f in bad)

    def test_full_candidate_held_to_committed_floor(self):
        failures = check_shards(
            shards_report(quick=False),
            shards_report(quick=False, scaleout=SHARDS_SCALEOUT_FLOOR - 0.5),
        )
        assert any("candidate 8-shard scale-out" in f for f in failures)

    def test_staleness_violation_fails(self):
        candidate = shards_report(quick=True)
        candidate["results"]["hot_replica"]["staleness_bound_respected"] = False
        failures = check_shards(shards_report(quick=False), candidate)
        assert any("staleness bound" in f for f in failures)


def parallel_point(**overrides):
    """A gate-relevant swim_full_parallel point; override per test."""
    point = {
        "nodes": 6400, "workers": 4, "cpu_count": 8, "speedup": 2.2,
        "min_speedup": 1.8, "enforced": True, "checksums_match": True,
    }
    point.update(overrides)
    return point


class TestParallelKernel:
    def _pair(self, base_point, cand_point, *, cand_quick=True):
        baseline = kernel_report(quick=False)
        baseline["results"]["swim_full_parallel"] = base_point
        candidate = kernel_report(quick=cand_quick)
        candidate["results"]["swim_full_parallel"] = cand_point
        return baseline, candidate

    def test_checksum_divergence_fails_even_in_quick_mode(self):
        baseline, candidate = self._pair(
            parallel_point(), parallel_point(checksums_match=False)
        )
        failures = check(baseline, candidate)
        assert any("diverged" in f and "candidate" in f for f in failures)

    def test_speedup_floor_enforced_on_full_report_with_cores(self):
        baseline, candidate = self._pair(
            parallel_point(speedup=1.2), parallel_point()
        )
        failures = check(baseline, candidate)
        assert any("acceptance floor" in f and "baseline" in f
                   for f in failures)

    def test_speedup_floor_skipped_without_cores_or_on_quick(self):
        # Baseline from a 1-core box (enforced=False); quick candidate
        # below the floor with cores — neither may fail the gate.
        baseline, candidate = self._pair(
            parallel_point(speedup=0.8, enforced=False),
            parallel_point(speedup=0.7),
        )
        assert check(baseline, candidate) == []

    def test_point_without_floor_fails(self):
        point = parallel_point()
        del point["min_speedup"]
        baseline, candidate = self._pair(parallel_point(), point)
        failures = check(baseline, candidate)
        assert any("candidate" in f and "no min_speedup" in f
                   for f in failures)

    def test_nightly_stretch_point_gated_too(self):
        baseline, candidate = self._pair(
            parallel_point(),
            parallel_point(stretch=parallel_point(speedup=1.0)),
            cand_quick=False,
        )
        failures = check(baseline, candidate, allow_full_candidate=True)
        assert any("stretch" in f for f in failures)


class TestSummary:
    def test_summary_includes_verdict_and_scaleout(self, tmp_path):
        path = tmp_path / "summary.md"
        write_summary(
            str(path), [],
            kernel=(kernel_report(quick=False), kernel_report(quick=True)),
            shards=(shards_report(quick=False), shards_report(quick=True)),
        )
        text = path.read_text()
        assert "✅ PASS" in text
        assert "8-shard scale-out" in text
        assert "5.00x" in text

    def test_summary_lists_failures(self, tmp_path):
        path = tmp_path / "summary.md"
        write_summary(str(path), ["something broke"], kernel=None, shards=None)
        text = path.read_text()
        assert "❌ FAIL" in text
        assert "something broke" in text
