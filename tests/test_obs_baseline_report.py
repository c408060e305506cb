"""Report baseline/grids tests: delta columns, gates, fail-soft ingest."""

import json
import os

import pytest

from repro.obs.history import RegressionGates, append_bench_history
from repro.obs.report import render_report, write_report_artifacts
from repro.obs.schema import validate_report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKED_IN_SHARDING = os.path.join(REPO_ROOT, "BENCH_sharding.json")


def _sharding_doc(scale=1.0):
    """A small, self-consistent sharding bench document."""
    return {
        "benchmark": "sharding", "python": "3.11.0", "seed": 0,
        "scheme": "econ-cheap", "tenant_count": 10, "query_count": 50,
        "unsharded": {"elapsed_s": 0.05, "queries_per_s": 1000.0 * scale,
                      "tenant_states": 10},
        "runs": [{"shards": 2, "elapsed_s": 0.03,
                  "queries_per_s": 1600.0 * scale,
                  "speedup_vs_unsharded": 1.6 * scale,
                  "byte_identical": True,
                  "max_owned_tenant_states": 5}],
    }


def _write_bench(tmp_path, doc):
    path = tmp_path / "BENCH_sharding.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestBaselineDeltas:
    def test_identical_run_renders_ok_deltas(self, tmp_path):
        history = tmp_path / "history"
        append_bench_history(_sharding_doc(), str(history), git_sha="abc")
        bench = _write_bench(tmp_path, _sharding_doc())
        report, markdown = render_report([bench],
                                         baseline_dir=str(history))
        assert validate_report(report) == []
        entry = report["baseline"]["benches"]["sharding"]
        assert entry["comparable"] is True
        assert entry["baseline_git_sha"] == "abc"
        assert all(d["status"] == "ok" for d in entry["deltas"])
        assert not any("regression" in warning
                       for warning in report["warnings"])
        # Summary table gains the delta/perf columns.
        assert "| delta | perf |" in markdown
        assert "## Baseline deltas" in markdown
        row = next(line for line in markdown.splitlines()
                   if line.startswith("| sharding |"))
        assert row.endswith("| +0.0% | ok |")

    def test_injected_slowdown_trips_the_warn_gate(self, tmp_path):
        history = tmp_path / "history"
        append_bench_history(_sharding_doc(), str(history), git_sha="abc")
        bench = _write_bench(tmp_path, _sharding_doc(scale=0.85))
        report, markdown = render_report([bench],
                                         baseline_dir=str(history))
        entry = report["baseline"]["benches"]["sharding"]
        statuses = {d["metric"]: d["status"] for d in entry["deltas"]}
        assert statuses["best_queries_per_s"] == "warn"
        assert any("perf regression warn" in warning
                   for warning in report["warnings"])
        row = next(line for line in markdown.splitlines()
                   if line.startswith("| sharding |"))
        assert row.endswith("| warn |")

    def test_big_slowdown_trips_the_fail_gate(self, tmp_path):
        history = tmp_path / "history"
        append_bench_history(_sharding_doc(), str(history), git_sha="abc")
        bench = _write_bench(tmp_path, _sharding_doc(scale=0.5))
        report, markdown = render_report([bench],
                                         baseline_dir=str(history))
        assert any("perf regression fail" in warning
                   for warning in report["warnings"])
        row = next(line for line in markdown.splitlines()
                   if line.startswith("| sharding |"))
        assert row.endswith("| FAIL |")

    def test_gates_are_configurable(self, tmp_path):
        history = tmp_path / "history"
        append_bench_history(_sharding_doc(), str(history), git_sha="abc")
        bench = _write_bench(tmp_path, _sharding_doc(scale=0.85))
        report, _ = render_report(
            [bench], baseline_dir=str(history),
            gates=RegressionGates(warn_slowdown=0.5, fail_slowdown=0.6))
        entry = report["baseline"]["benches"]["sharding"]
        assert all(d["status"] in ("ok", "info") for d in entry["deltas"])
        assert not any("regression" in warning
                       for warning in report["warnings"])

    def test_config_mismatch_is_incomparable_not_a_warning(self, tmp_path):
        """CI's reduced sizes must never gate against full-size history."""
        history = tmp_path / "history"
        append_bench_history(_sharding_doc(), str(history), git_sha="abc")
        small = _sharding_doc()
        small["query_count"] = 7  # different config -> different hash
        bench = _write_bench(tmp_path, small)
        report, markdown = render_report([bench],
                                         baseline_dir=str(history))
        entry = report["baseline"]["benches"]["sharding"]
        assert entry["comparable"] is False
        assert "no comparable" in entry["reason"]
        assert not any("regression" in warning
                       for warning in report["warnings"])
        assert "not comparable" in markdown

    def test_no_baseline_keeps_v1_summary_table_shape(self, tmp_path):
        bench = _write_bench(tmp_path, _sharding_doc())
        report, markdown = render_report([bench])
        assert "baseline" not in report
        assert "| delta |" not in markdown
        assert "## Baseline deltas" not in markdown

    def test_artifacts_carry_the_baseline_section(self, tmp_path):
        history = tmp_path / "history"
        append_bench_history(_sharding_doc(), str(history), git_sha="abc")
        bench = _write_bench(tmp_path, _sharding_doc())
        out = tmp_path / "artifacts"
        targets = write_report_artifacts([bench], str(out),
                                         baseline_dir=str(history))
        report = json.loads((out / "report.json").read_text())
        assert report["baseline"]["benches"]["sharding"]["comparable"]
        manifest = json.loads((out / "report.manifest.json").read_text())
        assert manifest["command"] == "report"


class TestFailSoftIngest:
    """Satellite: corrupt/truncated BENCH files degrade to warnings."""

    def test_truncated_bench_json_degrades_to_warning(self, tmp_path):
        full = json.dumps(_sharding_doc())
        path = tmp_path / "BENCH_sharding.json"
        path.write_text(full[:len(full) // 2])  # truncated mid-stream
        report, markdown = render_report([str(path)])
        assert validate_report(report) == []
        assert any("not valid JSON" in warning
                   for warning in report["warnings"])
        row = next(line for line in markdown.splitlines()
                   if line.startswith("| sharding |"))
        assert "| invalid |" in row

    def test_corrupt_bench_json_degrades_to_warning(self, tmp_path):
        path = tmp_path / "BENCH_planner.json"
        path.write_text("{\"benchmark\": \x00garbage")
        report, _ = render_report([str(path)])
        assert validate_report(report) == []
        assert any("not valid JSON" in warning
                   for warning in report["warnings"])

    def test_truncated_bench_never_reaches_the_baseline_gates(self,
                                                              tmp_path):
        history = tmp_path / "history"
        append_bench_history(_sharding_doc(), str(history), git_sha="abc")
        full = json.dumps(_sharding_doc())
        path = tmp_path / "BENCH_sharding.json"
        path.write_text(full[: len(full) // 2])
        report, _ = render_report([str(path)], baseline_dir=str(history))
        assert "sharding" not in report["baseline"]["benches"]
        assert not any("regression" in warning
                       for warning in report["warnings"])

    def test_corrupt_history_line_degrades_to_warning(self, tmp_path):
        history = tmp_path / "history"
        history.mkdir()
        (history / "sharding.jsonl").write_text("{broken\n")
        bench = _write_bench(tmp_path, _sharding_doc())
        report, _ = render_report([bench], baseline_dir=str(history))
        assert any("not valid JSON" in warning
                   for warning in report["warnings"])
        entry = report["baseline"]["benches"]["sharding"]
        assert entry["comparable"] is False


class TestGridsSection:
    def test_grid_tables_fold_into_report_and_markdown(self, tmp_path):
        tables = {"headline": "headline table bytes",
                  "figure4": "figure4 table bytes"}
        report, markdown = render_report([], grid_tables=tables,
                                         grid_profile="quick")
        assert validate_report(report) == []
        assert report["grids"]["profile"] == "quick"
        assert report["grids"]["tables"] == tables
        assert "## Grids" in markdown
        assert "### figure4" in markdown
        assert "figure4 table bytes" in markdown

    def test_no_grids_no_section(self):
        report, markdown = render_report([])
        assert "grids" not in report
        assert "## Grids" not in markdown


class TestCheckedInHistory:
    """The checked-in seed records stay loadable and comparable."""

    def test_checked_in_history_matches_checked_in_benches(self):
        from repro.obs.history import (bench_config_hash, latest_comparable,
                                       load_history)

        history_dir = os.path.join(REPO_ROOT, "benchmarks", "history")
        if not os.path.isdir(history_dir) \
                or not os.path.exists(CHECKED_IN_SHARDING):
            pytest.skip("checked-in history not present")
        records, problems = load_history(history_dir)
        assert problems == []
        with open(CHECKED_IN_SHARDING, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        baseline = latest_comparable(records["sharding"],
                                     bench_config_hash(document))
        assert baseline is not None


class TestLegacyPlanningArtifacts:
    """Artifacts recorded while the engine had a ``planning`` mode.

    The fixture holds a planner bench document with a scalar run and a
    ``batched_cold_vs_scalar`` speedup, its history record (with the
    since-dropped ``batched_cold_speedup`` metric), and a trace whose run
    manifest carries ``"planning": "batched"``. The report must still
    read them all.
    """

    LEGACY = os.path.join(REPO_ROOT, "tests", "data", "legacy_planning")

    def test_report_reads_legacy_bench_history_and_trace(self, tmp_path):
        bench = os.path.join(self.LEGACY, "BENCH_planner.json")
        trace = os.path.join(self.LEGACY, "scenario_trace.jsonl")
        with open(trace + ".manifest.json", encoding="utf-8") as handle:
            assert json.load(handle)["planning"] == "batched"
        report, markdown = render_report(
            [bench], trace_paths=[trace],
            baseline_dir=os.path.join(self.LEGACY, "history"))
        assert validate_report(report) == []
        planner = report["benches"]["planner"]
        assert planner["valid"] and planner["problems"] == []
        assert planner["headline"]["gate_ok"] is True
        entry = report["baseline"]["benches"]["planner"]
        assert entry["comparable"] is True
        statuses = {d["metric"]: d["status"] for d in entry["deltas"]}
        assert statuses == {"batched_cold_queries_per_s": "ok",
                            "batched_warm_queries_per_s": "ok",
                            "scalar_queries_per_s": "ok"}
        assert report["baseline"]["problems"] == []
        (summary,) = report["traces"]
        assert summary["artifact"] == "trace"
        assert "problem" not in summary
        assert not any("regression" in warning or "legacy" in warning
                       for warning in report["warnings"])
        assert "| planner |" in markdown
