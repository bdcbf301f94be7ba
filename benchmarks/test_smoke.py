"""Smoke tests for the benchmark itself: every workload at toy size.

Run from the checkout root:  python3 -m pytest -q benchmarks
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FIT_CHECKS = {"orthonormal", "finite_trace", "init_is_vanilla", "descent", "deterministic"}
CLI_CHECKS = FIT_CHECKS | {"exit_code", "w_shape", "rerun_bytes"}


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["wide"])
def test_every_named_metric_and_check(workload, trace, tmp_path):
    out = tmp_path / "report.json"
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in named}
    report = json.loads(out.read_text(encoding="ascii"))
    ran = {name for name, c in report["checks"].items() if c["ran"] > 0}
    assert (CLI_CHECKS if workload == "cli_csv" else FIT_CHECKS) <= ran
    for name in ("python", "numpy", "blas", "nproc", "caches", "blas_pins", "workload_seed",
                 "working_set_mb_computed", "l3_mb"):
        assert name in report["env"]


def test_seed_relabels_the_same_problems():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    try:
        from workload import SMOKE, make_instances
    finally:
        del sys.path[:2]
    shape = SMOKE["small_grid"]
    same = [make_instances(shape, 7)[0] for _ in range(2)]
    other, _ = make_instances(shape, 8)
    for (_, a, _), (_, b, _), (_, c, _) in zip(*same, other):
        assert a.values.tobytes() == b.values.tobytes()
        assert a.values.tobytes() != c.values.tobytes()
        assert sorted(a.values.ravel()) == sorted(c.values.ravel())


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "small_grid", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
