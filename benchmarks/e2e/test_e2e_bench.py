"""Smoke test of the end-to-end benchmark on tiny inputs.

Runs ``run.py --smoke --trace`` (about 60 sessions per batch workload
and a 2 s service run; three workload groups in parallel) and checks what
the benchmark promises: every metric BENCHMARK.json names comes out
with its unit, traced and untraced digests agree, nothing fails,
``compare.py`` calls identical results unchanged, and every wrapped
attribute is restored after tracing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e")
    groups = {"fleet": ("fleet_bestfit_36c", "fleet_elastic_16c"),
              "shard": ("shard_fence_2w",),
              "service": ("service_realtime",)}
    procs = {}
    for group, workloads in groups.items():
        argv = [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
                "--seconds", "0", "--out", str(out / f"{group}.json")]
        for workload in workloads:
            argv += ["--workload", workload]
        procs[group] = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                        stderr=subprocess.PIPE, text=True)
    results = {"runs": [], "lines": [], "files": []}
    for group, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        results["lines"].append(json.loads(stdout.strip().splitlines()[-1]))
        path = out / f"{group}.json"
        results["files"].append(path)
        results["runs"].extend(json.loads(path.read_text())["runs"])
    return results


def test_every_benchmark_metric_is_emitted_with_its_unit(smoke):
    assert {r["workload"] for r in smoke["runs"]} == set(ops.WORKLOADS)
    for result in smoke["runs"]:
        for kind, section in (("end_to_end", "end_to_end"),
                              ("per_layer", "per_layer")):
            for metric in BENCHMARK[section]:
                assert metric["name"] in result[kind], (result["workload"],
                                                        metric["name"])
                assert run.UNITS[metric["name"]] == metric["unit"]
        assert "trace.overhead_ratio" in result["per_layer"]


def test_benchmark_json_matches_the_metric_tables():
    bounds = {name: (unit, better, bound)
              for name, unit, better, bound in run.END_TO_END}
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.GATED)
    for metric in BENCHMARK["end_to_end"]:
        assert bounds[metric["name"]] == (metric["unit"], metric["better"],
                                          metric["bound"])
    assert ([m["name"] for m in BENCHMARK["per_layer"]]
            == list(run.PER_LAYER_GATED))
    for metric in BENCHMARK["per_layer"]:
        assert metric["unit"] == run.UNITS[metric["name"]]
        assert metric["better"] == ("higher" if metric["name"]
                                    in run.HIGHER_IS_BETTER else "lower")
    assert ({w["name"] for w in BENCHMARK["workloads"]}
            == set(ops.WORKLOADS))


def test_result_line_has_exactly_the_four_keys(smoke):
    for line in smoke["lines"]:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1


def test_traced_and_untraced_digests_agree_and_nothing_fails(smoke):
    for result in smoke["runs"]:
        assert result["problems"] == [], result["workload"]
        assert result["correct"] and result["failed"] == 0
        assert result["end_to_end"]["failed_ratio"] == 0


def test_compare_reports_identical_results_unchanged(smoke):
    runs = compare.load_runs(smoke["files"][0])
    rows = compare.compare(runs, runs)
    assert rows and {row["verdict"] for row in rows} == {"unchanged"}
    assert compare.main([str(smoke["files"][0])] * 2) == 0


def test_wrapped_attributes_are_restored_by_identity():
    trace = ops.make_trace("fleet_elastic_16c", 11, 20)
    fleet = ops.make_scheduler("fleet_elastic_16c", 1)
    fleet.submit(trace)
    fleet.run(limit=ops.HORIZON_CYCLES)
    plain = ops.digest_of(fleet.metrics.summary(1_000_000_000))

    tracer = Tracer()
    try:
        ops.install_layers(tracer)
        patched = tracer.patched
        assert len(patched) > 20
        for owner, attribute, original in patched:
            assert vars(owner)[attribute] is not original
        traced_fleet = ops.make_scheduler("fleet_elastic_16c", 1)
        traced_fleet.submit(trace)
        traced_fleet.run(limit=ops.HORIZON_CYCLES)
        traced = ops.digest_of(traced_fleet.metrics.summary(1_000_000_000))
    finally:
        tracer.restore()
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is original, (owner, attribute)
    assert traced == plain
    assert tracer.stats["mapper.map_similar"].calls > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    argv = BENCHMARK["command"] + ["--workload", "fleet_elastic_16c",
                                   "--seed", "1", "--seconds", "1",
                                   "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
