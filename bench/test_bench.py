"""Smoke test of the benchmark itself, at toy sizes.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import xrda.harness  # noqa: E402
from xrda.config import parse_config  # noqa: E402
from xrda.harness import check_bound, read_trace_csv, write_trace_csv  # noqa: E402

from checks import row_failures, seed_mean_failures  # noqa: E402
from measure import END_TO_END, PER_LAYER, measure  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    record = measure(name, seed=3, seconds=0, trace=trace, size="tiny", out_root=tmp_path)
    assert record["correct"], record["failures"]
    assert record["failed"] == 0 and record["attempted"] >= 3
    table = PER_LAYER if trace else END_TO_END
    assert set(record["metrics"]) == set(table)
    for key, metric in record["metrics"].items():
        assert metric["unit"] == table[key][0]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in record["metrics"].values())


def test_cli_prints_the_result_object_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "lad-compare-d200",
         "--seed", "2", "--seconds", "0", "--trace", "0", "--size", "tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and set(last["metrics"]) == set(END_TO_END)
    assert (tmp_path / ".bench_out" / "results").is_dir()


def test_cli_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lad-compare-d200", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--size", "tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tiny_exact_trace(tmp_path):
    workload = WORKLOADS["logistic-exact-d2000"]
    cfg = parse_config(config_text(workload, 5, "tiny"))
    path, = xrda.harness.run_experiment(cfg, out_dir=tmp_path)
    cache, = (tmp_path / "_refcache").iterdir()
    certified_gap = json.loads(cache.read_text())["certified_gap"]
    return cfg, path, read_trace_csv(path), certified_gap


def test_gate_trips_on_a_tampered_trace(tmp_path):
    cfg, path, rows, certified_gap = _tiny_exact_trace(tmp_path)
    args = (cfg.iterations, cfg.stride, True)
    assert row_failures(rows, certified_gap, *args) == []

    bad = list(rows)
    bad[3] = dataclasses.replace(rows[3], gap_best=rows[3].bound * 1.001)
    write_trace_csv(bad, path)
    assert row_failures(read_trace_csv(path), certified_gap, *args)

    # within check_bound's fixed slack, but not once the certified gap counts
    bad[3] = dataclasses.replace(rows[3], gap_avg=rows[3].bound)
    write_trace_csv(bad, path)
    assert check_bound([path], strict=True).ok
    assert row_failures(read_trace_csv(path), 1e-6, *args)

    del bad[3]
    write_trace_csv(bad, path)
    assert row_failures(read_trace_csv(path), certified_gap, *args)


def test_seed_mean_gate_trips_on_a_tampered_final_row(tmp_path):
    _, _, rows, certified_gap = _tiny_exact_trace(tmp_path)
    finals = [rows[-1]] * 4
    assert seed_mean_failures(finals, certified_gap) == []
    finals[0] = dataclasses.replace(rows[-1], gap_best=5 * rows[-1].bound)
    assert seed_mean_failures(finals, certified_gap)


def test_a_tampered_repetition_counts_as_failed(tmp_path, monkeypatch):
    original = xrda.harness.write_trace_csv
    written = []

    def tamper_second(rows, path):
        written.append(path)
        if len(written) == 2:
            rows = [dataclasses.replace(rows[0], gap_best=rows[0].bound + 1.0)] + rows[1:]
        return original(rows, path)

    monkeypatch.setattr(xrda.harness, "write_trace_csv", tamper_second)
    record = measure("logistic-exact-d2000", seed=3, seconds=0, trace=0, size="tiny",
                     out_root=tmp_path)
    assert not record["correct"]
    assert (record["attempted"], record["failed"]) == (3, 1)
    assert record["metrics"]["ok_frac"]["value"] == pytest.approx(2 / 3)
    assert any("differs from repetition 1" in f for f in record["failures"])
