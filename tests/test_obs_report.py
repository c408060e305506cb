"""Report pipeline tests: schema validation, fail-soft ingest, artifacts."""

import json
import os

import pytest

from repro.obs.report import (
    BENCH_NAMES,
    REPORT_SCHEMA_VERSION,
    ingest_bench_files,
    render_report,
    write_report_artifacts,
)
from repro.obs.schema import validate_bench, validate_report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The four checked-in perf-history files (the backfill satellite).
CHECKED_IN = [os.path.join(REPO_ROOT, name) for _, name in BENCH_NAMES]


def _planner_doc():
    """A small, self-consistent planner bench document."""
    return {
        "benchmark": "planner", "python": "3.11.0", "seed": 0,
        "scheme": "econ-cheap", "query_count": 50, "repetitions": 1,
        "outcomes_identical": True,
        "speedup": {"batched_warm_vs_cold": 1.1},
        "runs": [{"benchmark_mode": "batched-cold", "elapsed_s": 0.05,
                  "queries_per_s": 1000.0},
                 {"benchmark_mode": "batched-warm", "elapsed_s": 0.045,
                  "queries_per_s": 1100.0}],
    }


def _write_bench(directory, doc, name="BENCH_planner.json"):
    path = directory / name
    path.write_text(json.dumps(doc))
    return str(path)


def _require_checked_in():
    missing = [path for path in CHECKED_IN if not os.path.exists(path)]
    if missing:
        pytest.skip(f"checked-in bench files not present: {missing}")


class TestValidateBench:
    def test_all_checked_in_bench_files_are_schema_valid(self):
        _require_checked_in()
        for path in CHECKED_IN:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            assert validate_bench(document) == [], path

    def test_missing_required_field(self):
        problems = validate_bench({"benchmark": "planner", "python": "3.11"})
        assert any("seed" in problem for problem in problems)

    def test_unknown_kind(self):
        document = {"benchmark": "nope", "python": "x", "seed": 0,
                    "runs": [{}]}
        assert any("unknown benchmark kind" in problem
                   for problem in validate_bench(document))

    def test_kind_mismatch_against_file_name(self):
        document = {"benchmark": "planner", "python": "x", "seed": 0,
                    "runs": [{}], "scheme": "s", "query_count": 1,
                    "repetitions": 1, "outcomes_identical": True,
                    "speedup": {}}
        assert validate_bench(document, expected_kind="planner") == []
        assert validate_bench(document, expected_kind="shocks")

    def test_bool_int_confusion_is_caught(self):
        document = {"benchmark": "planner", "python": "x", "seed": 0,
                    "runs": [{}], "scheme": "s", "query_count": 1,
                    "repetitions": 1, "outcomes_identical": 1,
                    "speedup": {}}
        assert any("outcomes_identical" in problem
                   for problem in validate_bench(document))

    def test_non_object_document(self):
        assert validate_bench([1, 2, 3])


class TestIngest:
    def test_always_covers_every_kind(self, tmp_path):
        ingests = ingest_bench_files([])
        assert [ingest.kind for ingest in ingests] == [
            kind for kind, _ in BENCH_NAMES]
        assert all(ingest.status == "missing" for ingest in ingests)

    def test_legacy_file_degrades_to_warning(self, tmp_path):
        legacy = tmp_path / "BENCH_planner.json"
        legacy.write_text(json.dumps({"benchmark": "planner"}))
        ingests = ingest_bench_files([str(legacy)])
        planner = next(i for i in ingests if i.kind == "planner")
        assert planner.found and not planner.valid
        assert planner.status == "invalid"

    def test_unreadable_file_is_supplied_not_missing(self, tmp_path):
        absent = tmp_path / "BENCH_shocks.json"
        directory = tmp_path / "BENCH_planner.json"
        directory.mkdir()
        ingests = ingest_bench_files([str(absent), str(directory)])
        for kind in ("shocks", "planner"):
            ingest = next(i for i in ingests if i.kind == kind)
            assert ingest.supplied and not ingest.found
            assert ingest.status == "unreadable"
            (problem,) = ingest.problems
            assert problem.startswith("unreadable: ")


class TestRenderReport:
    def test_report_is_schema_valid_over_checked_in_files(self):
        _require_checked_in()
        report, markdown = render_report(CHECKED_IN)
        assert validate_report(report) == []
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert report["warnings"] == []
        assert sorted(report["benches"]) == sorted(
            kind for kind, _ in BENCH_NAMES)
        # The backfill summary table renders one row per benchmark.
        for kind, name in BENCH_NAMES:
            assert f"| {kind} | {name} | ok |" in markdown

    def test_missing_files_render_with_warnings(self):
        report, markdown = render_report([])
        assert validate_report(report) == []
        assert len(report["warnings"]) == len(BENCH_NAMES)
        assert "missing" in markdown

    def test_summary_table_keeps_the_v1_shape(self, tmp_path):
        report, markdown = render_report([_write_bench(tmp_path,
                                                       _planner_doc())])
        assert "baseline" not in report
        assert ("| benchmark | file | status | runs | gate | gate ok |\n"
                "| --- | --- | --- | --- | --- | --- |\n") in markdown
        assert "| planner | BENCH_planner.json | ok | 2 |" in markdown

    def test_unreadable_paths_surface_their_error(self, tmp_path):
        absent = str(tmp_path / "BENCH_shocks.json")
        directory = tmp_path / "BENCH_placement.json"
        directory.mkdir()
        report, markdown = render_report([absent, str(directory)])
        assert validate_report(report) == []
        for kind, path, error in (
                ("shocks", absent, "No such file or directory"),
                ("placement", str(directory), "Is a directory")):
            assert f"| {kind} | {os.path.basename(path)} | unreadable |" \
                in markdown
            assert not any(f"for {kind!r} not supplied" in warning
                           for warning in report["warnings"])
            (warning,) = [w for w in report["warnings"]
                          if w.startswith(f"{path}: unreadable: ")]
            assert error in warning

    def test_duplicate_kind_keeps_the_first_and_warns(self, tmp_path):
        first_dir, second_dir = tmp_path / "a", tmp_path / "b"
        first_dir.mkdir()
        second_dir.mkdir()
        first = _write_bench(first_dir, _planner_doc())
        legacy = {"benchmark": "planner"}
        second = _write_bench(second_dir, legacy)
        report, markdown = render_report([first, second])
        assert validate_report(report) == []
        assert report["benches"]["planner"]["path"] == first
        assert report["benches"]["planner"]["valid"] is True
        rows = [row for row in report["summary"]
                if row["benchmark"] == "planner"]
        assert len(rows) == 1 and rows[0]["status"] == "ok"
        assert markdown.count("| planner |") == 1
        duplicates = [w for w in report["warnings"] if "duplicate" in w]
        assert duplicates == [
            f"{second}: duplicate 'planner' bench file ignored "
            f"(kept {first})"]

    def test_trace_summaries_fold_in(self, tmp_path):
        from repro.obs.trace import TraceRecorder

        recorder = TraceRecorder()
        recorder.event("e", time_s=1.0)
        recorder.count("cache:admit")
        trace_path = tmp_path / "t.jsonl"
        recorder.write(str(trace_path))
        report, markdown = render_report([], [str(trace_path)])
        (trace,) = report["traces"]
        assert trace["events"] == 1
        assert trace["counters"] == 1
        assert "## Traces" in markdown


class TestWriteArtifacts:
    def test_writes_three_artifacts(self, tmp_path):
        _require_checked_in()
        out = tmp_path / "artifacts"
        targets = write_report_artifacts(CHECKED_IN, str(out))
        assert sorted(targets) == ["json", "manifest", "markdown"]
        report = json.loads((out / "report.json").read_text())
        assert validate_report(report) == []
        manifest = json.loads((out / "report.manifest.json").read_text())
        assert manifest["command"] == "report"
        assert manifest["warnings"] == 0

    def test_refuses_overwrite_without_force(self, tmp_path):
        out = tmp_path / "artifacts"
        write_report_artifacts([], str(out))
        with pytest.raises(FileExistsError):
            write_report_artifacts([], str(out))
        write_report_artifacts([], str(out), force=True)


class TestFailSoftIngest:
    """Corrupt/truncated BENCH files degrade to warnings."""

    def test_truncated_bench_json_degrades_to_warning(self, tmp_path):
        full = json.dumps(_planner_doc())
        path = tmp_path / "BENCH_planner.json"
        path.write_text(full[:len(full) // 2])  # truncated mid-stream
        report, markdown = render_report([str(path)])
        assert validate_report(report) == []
        assert any("not valid JSON" in warning
                   for warning in report["warnings"])
        row = next(line for line in markdown.splitlines()
                   if line.startswith("| planner |"))
        assert "| invalid |" in row

    def test_corrupt_bench_json_degrades_to_warning(self, tmp_path):
        path = tmp_path / "BENCH_planner.json"
        path.write_text("{\"benchmark\": \x00garbage")
        report, _ = render_report([str(path)])
        assert validate_report(report) == []
        assert any("not valid JSON" in warning
                   for warning in report["warnings"])


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


class TestLegacyPlanningArtifacts:
    """Artifacts recorded while the engine had a ``planning`` mode.

    The fixture holds a planner bench document with a scalar run and a
    ``batched_cold_vs_scalar`` speedup, and a trace whose run manifest
    carries ``"planning": "batched"``. The report must still read both.
    """

    LEGACY = os.path.join(REPO_ROOT, "tests", "data", "legacy_planning")

    def test_report_reads_legacy_bench_and_trace(self):
        bench = os.path.join(self.LEGACY, "BENCH_planner.json")
        trace = os.path.join(self.LEGACY, "scenario_trace.jsonl")
        with open(trace + ".manifest.json", encoding="utf-8") as handle:
            assert json.load(handle)["planning"] == "batched"
        report, markdown = render_report([bench], trace_paths=[trace])
        assert validate_report(report) == []
        planner = report["benches"]["planner"]
        assert planner["valid"] and planner["problems"] == []
        assert planner["headline"]["gate_ok"] is True
        (summary,) = report["traces"]
        assert summary["artifact"] == "trace"
        assert "problem" not in summary
        assert not any("legacy" in warning for warning in report["warnings"])
        assert "| planner |" in markdown
