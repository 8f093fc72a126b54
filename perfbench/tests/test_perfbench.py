"""Tests of the benchmark's own logic.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import re
import subprocess
import sys

import pytest

import benchstats
import run
import tracer
import workloads


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "unit": 0}


class TestSelfTimes:
    def test_nested_tree(self):
        spans = [
            _span("root", 0.0, 10.0, None),
            _span("a", 1.0, 4.0, 0),
            _span("b", 2.0, 3.0, 1),
            _span("c", 5.0, 9.0, 0),
        ]
        assert benchstats.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_count_once(self):
        spans = [
            _span("root", 0.0, 10.0, None),
            _span("a", 1.0, 5.0, 0),
            _span("a", 4.0, 6.0, 0),
        ]
        assert benchstats.self_times(spans)[0] == pytest.approx(5.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [_span("root", 0.0, 4.0, None), _span("a", 3.0, 7.0, 0)]
        assert benchstats.self_times(spans)[0] == pytest.approx(3.0)

    def test_layer_totals_sum_self_times_by_name(self):
        document = {
            "spans": [
                _span("cli.main", 0.0, 10.0, None),
                _span("analysis.render", 1.0, 4.0, 0),
                _span("analysis.render", 2.0, 3.0, 1),
                _span("runtime.plan", 5.0, 6.0, 0),
            ],
            "counts": {},
        }
        totals, calls, root = benchstats.layer_totals(document)
        assert totals["analysis.render"] == pytest.approx(3.0)
        assert calls == {"cli.main": 1, "analysis.render": 2, "runtime.plan": 1}
        assert totals["cli.main"] == pytest.approx(6.0)
        assert root == pytest.approx(10.0)
        # the self times of every span add up to the root's duration
        assert sum(totals.values()) == pytest.approx(root)

    def test_layer_metrics_unattributed_share(self):
        document = {
            "spans": [_span("cli.main", 0.0, 4.0, None), _span("runtime.plan", 0.0, 3.0, 0)],
            "counts": {"runtime.plan_lookups": 4},
        }
        metrics = run.layer_metrics(document)
        assert metrics["trace.unattributed_frac"] == pytest.approx(0.25)
        assert metrics["runtime.plan_s"] == pytest.approx(3.0)
        assert metrics["runtime.plans_built"] == 1
        assert metrics["runtime.plan_reuse_ratio"] == pytest.approx(0.75)
        assert metrics["runtime.batch_s"] == 0.0


class TestPercentileRule:
    @pytest.mark.parametrize(
        "n, expected",
        [(1, None), (10, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
         (200, 95.0), (1000, 99.0), (10000, 99.9)],
    )
    def test_needs_ten_samples_beyond(self, n, expected):
        assert benchstats.reportable_percentile(n) == expected

    def test_few_samples_report_the_median_only(self):
        assert benchstats.summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3}

    def test_many_samples_add_the_percentile(self):
        summary = benchstats.summarize([float(i) for i in range(101)])
        assert summary == {"median": 50.0, "n": 101, "p90": pytest.approx(90.0)}


class TestWorkloads:
    def test_manifest_lists_the_workloads(self):
        manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        assert tuple(w["name"] for w in manifest["workloads"]) == workloads.WORKLOADS

    @pytest.mark.parametrize("workload", ["corpus_cold", "sweep_cold", "sweep_warm"])
    def test_seed_changes_the_inputs(self, workload):
        assert workloads.argv(workload, 1, "c") != workloads.argv(workload, 2, "c")
        assert workloads.argv(workload, 1, "c") == workloads.argv(workload, 1, "c")

    def test_paper_cold_ignores_the_seed(self):
        assert workloads.argv("paper_cold", 1, "c") == workloads.argv("paper_cold", 2, "c")

    def test_warm_runs_the_cold_command(self):
        assert workloads.argv("sweep_warm", 5, "c") == workloads.argv("sweep_cold", 5, "c")

    @pytest.mark.parametrize("seed", [0, 1, 999_998, 999_999, 1602703436, 2**63])
    def test_corpus_names_stay_within_nine_digits(self, seed):
        names = workloads.corpus_programs(seed)
        assert len(set(names)) == workloads.CORPUS_SIZE
        assert all(re.fullmatch(r"gen_\d{1,9}", name) for name in names)

    def test_sweep_latencies_are_distinct_and_in_range(self):
        values = [float(v) for v in workloads.sweep_latencies(7)]
        assert len(set(values)) == workloads.SWEEP_VALUES
        assert all(workloads.SWEEP_LOW <= v <= workloads.SWEEP_HIGH for v in values)


class TestOutputChecks:
    def test_stdout_digest_ignores_the_cache_hits_line(self):
        cold = "sweep: 2 points\nengine: 4 cells, 0 cache hits, 4 simulated\nrow\n"
        warm = "sweep: 2 points\nengine: 4 cells, 4 cache hits, 0 simulated\nrow\n"
        assert run.stdout_digest(cold) == run.stdout_digest(warm)
        assert run.stdout_digest(cold) != run.stdout_digest(cold.replace("row", "r0w"))

    def test_records_digest_reads_results_only(self, tmp_path):
        record = {
            "benchmark": "swm", "experiment": "pl", "library": "pvm", "nprocs": 64,
            "machine_overrides": {}, "result": {"execution_time": 0.1},
            "timings": {"total_s": 1.0},
        }
        (tmp_path / "ab").mkdir()
        path = tmp_path / "ab" / "ab12.json"
        path.write_text(json.dumps(record))
        digest, count = run.records_digest(tmp_path)
        assert count == 1
        path.write_text(json.dumps(dict(record, timings={"total_s": 2.0})))
        assert run.records_digest(tmp_path)[0] == digest
        path.write_text(json.dumps(dict(record, result={"execution_time": 0.1000001})))
        assert run.records_digest(tmp_path)[0] != digest

    def test_first_digest_becomes_the_reference(self):
        expected = run.Expected()
        assert expected.check("stdout", "aa") is None
        assert expected.check("stdout", "aa") is None
        assert expected.check("stdout", "bb") is not None

    def test_digest_mismatch_fails_every_point_of_the_unit(self, tmp_path):
        expected = run.Expected(stdout="0" * 64)
        unit = run.run_unit(
            "paper_cold", 1, 0, tmp_path, tmp_path / "cache", expected, writes=True
        )
        assert any("stdout digest" in p for p in unit.problems)
        assert unit.failed == unit.points == 24
        outcome = run.Outcome("paper_cold", [unit], {"checks": 2, "failures": []}, [])
        assert (outcome.failed, outcome.attempted) == (24, 26)
        assert outcome.metrics(["ok_frac"], False)["ok_frac"] == pytest.approx(2 / 26)


def _child_report(tmp_path, trace):
    spec = {
        "src": str(run.SRC),
        "workload": "paper_cold",
        "seed": 1,
        "unit": 0,
        "cache_dir": str(tmp_path / "cache"),
        "stdout_path": str(tmp_path / "out.txt"),
        "trace_path": str(tmp_path / "trace.json") if trace else None,
    }
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "child.py"), json.dumps(spec)],
        capture_output=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout.decode().splitlines()[-2])


class TestChild:
    def test_untraced_child_carries_no_wrappers(self, tmp_path):
        report = _child_report(tmp_path, trace=False)
        assert report["rc"] == 0
        assert report["wrappers"] == 0
        assert not (tmp_path / "trace.json").exists()

    def test_traced_child_wraps_every_layer(self, tmp_path):
        report = _child_report(tmp_path, trace=True)
        assert report["wrappers"] == len(tracer.SPANS) + len(tracer.COUNTERS)
        document = json.loads((tmp_path / "trace.json").read_text())
        names = {span["name"] for span in document["spans"]}
        assert {"cli.main", "runtime.plan", "runtime.dispatch", "analysis.render"} <= names
        assert all(span["unit"] == 0 for span in document["spans"])
        # with what the parent measures itself, the document yields
        # every per-layer metric the manifest declares
        measured_outside = {
            "import.s", "import.modules", "process.teardown_s",
            "engine.cache_bytes", "trace.overhead_frac",
        }
        assert set(run.layer_metrics(document)) | measured_outside == set(
            run.manifest_units("per_layer")
        )
