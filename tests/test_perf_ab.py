"""The perf A/B's decision rule, as a pure function over per-pair runs."""

import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "perf_ab", os.path.join(REPO_ROOT, "benchmarks", "perf_ab.py"))
perf_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_ab)

with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as _handle:
    END_TO_END = json.load(_handle)["end_to_end"]

BASE = {"setup_s": 0.3, "wall_s": 1.5, "queries_per_s": 4000.0,
        "cpu_s": 1.4, "tree_rss_mib": 45.0, "max_proc_rss_mib": 45.0}


def _run(correct=True, attempted=3, failed=0, **overrides):
    values = {**BASE, **overrides}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": "-"}
                        for name, value in values.items()}}


def _pairs(**overrides):
    return [_run(**overrides) for _ in range(perf_ab.PAIRS)]


def _spread(name, values):
    return [_run(**{name: value}) for value in values]


class TestDecide:
    def test_identical_samples_pass(self):
        verdict = perf_ab.decide(END_TO_END, _pairs(), _pairs())
        assert verdict["failures"] == []
        assert set(verdict["metrics"]) == {spec["name"]
                                           for spec in END_TO_END}
        assert all(row["worse"] == 0.0
                   for row in verdict["metrics"].values())

    def test_lower_is_better_median_rise_fails(self):
        verdict = perf_ab.decide(END_TO_END, _pairs(),
                                 _pairs(wall_s=1.5 * 1.3))
        (failure,) = verdict["failures"]
        assert failure.startswith("wall_s: ")
        assert verdict["metrics"]["wall_s"]["threshold"] == 0.25

    def test_lower_is_better_within_bound_passes(self):
        verdict = perf_ab.decide(END_TO_END, _pairs(),
                                 _pairs(wall_s=1.5 * 1.2))
        assert verdict["failures"] == []

    def test_higher_is_better_median_drop_fails(self):
        verdict = perf_ab.decide(END_TO_END, _pairs(),
                                 _pairs(queries_per_s=4000.0 * 0.7))
        (failure,) = verdict["failures"]
        assert failure.startswith("queries_per_s: ")
        # A rise in a higher-is-better metric is a gain, never a failure.
        gain = perf_ab.decide(END_TO_END, _pairs(),
                              _pairs(queries_per_s=4000.0 * 2))
        assert gain["failures"] == []

    def test_memory_bound_is_tighter(self):
        verdict = perf_ab.decide(END_TO_END, _pairs(),
                                 _pairs(tree_rss_mib=45.0 * 1.15))
        (failure,) = verdict["failures"]
        assert failure.startswith("tree_rss_mib: ")

    def test_wide_base_iqr_raises_the_threshold(self):
        # Base wall_s quartiles 1.05 / 1.95 around a 1.5 median: relative
        # IQR 0.6, so the threshold is 3 x 0.6 = 1.8, not the 0.25 bound.
        base = _spread("wall_s", [0.9, 1.2, 1.5, 1.8, 2.1])
        verdict = perf_ab.decide(END_TO_END, base, _pairs(wall_s=1.5 * 1.5))
        row = verdict["metrics"]["wall_s"]
        assert row["base_iqr"] == pytest.approx(0.9)
        assert row["threshold"] == pytest.approx(1.8)
        assert verdict["failures"] == []
        # The same candidate against a tight base fails.
        assert perf_ab.decide(END_TO_END, _pairs(),
                              _pairs(wall_s=1.5 * 1.5))["failures"]

    def test_incorrect_candidate_fails_regardless_of_timings(self):
        candidate = _pairs(wall_s=0.5)
        candidate[2] = _run(correct=False, wall_s=0.5)
        verdict = perf_ab.decide(END_TO_END, _pairs(), candidate)
        assert verdict["failures"] == ["candidate run 3 is not correct"]

    def test_higher_failed_share_fails_regardless_of_timings(self):
        candidate = _pairs(wall_s=0.5)
        candidate[0] = _run(failed=1, wall_s=0.5)
        verdict = perf_ab.decide(END_TO_END, _pairs(), candidate)
        assert any(failure.startswith("failed-operation share")
                   for failure in verdict["failures"])

    def test_equal_failed_share_is_not_a_regression(self):
        base = _pairs(correct=False, failed=1)
        candidate = _pairs(correct=True, failed=1)
        assert perf_ab.decide(END_TO_END, base, candidate)["failures"] == []

    def test_crashed_candidate_run_fails(self):
        candidate = _pairs()
        candidate[0] = {"correct": False, "attempted": 1, "failed": 1,
                        "metrics": {}}
        failures = perf_ab.decide(END_TO_END, _pairs(), candidate)["failures"]
        assert "candidate run 1 is not correct" in failures

    def test_undeclared_direction_fails_loudly(self):
        spec = [{"name": "wall_s", "better": "sideways", "bound": 0.25}]
        with pytest.raises(ValueError, match="unknown direction"):
            perf_ab.decide(spec, _pairs(), _pairs())


class TestLayerRows:
    def test_time_layers_sorted_by_absolute_delta(self):
        per_layer = [{"name": "a_s", "unit": "s"},
                     {"name": "b_s", "unit": "s"},
                     {"name": "c_s", "unit": "s"},
                     {"name": "n", "unit": "count"}]

        def metrics(a, b, c, n):
            return {"a_s": {"value": a}, "b_s": {"value": b},
                    "c_s": {"value": c}, "n": {"value": n}}

        rows = perf_ab.layer_rows(per_layer, metrics(1.0, 0.5, 0.2, 10),
                                  metrics(1.1, 0.1, 1.2, 99))
        assert [row["metric"] for row in rows] == ["c_s", "b_s", "a_s"]
        assert rows[0]["delta"] == pytest.approx(1.0)
        assert rows[1]["delta"] == pytest.approx(-0.4)
