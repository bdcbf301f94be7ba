#!/usr/bin/env python3
"""repca benchmark: run one workload and report its metrics.

usage: python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
                                 [--smoke] [--out REPORT.json]

Run from the root of a repca checkout; nothing needs installing.  The
workload runs in one child process with BLAS pinned to one thread and the
checkout's ``src`` first on the path.  The output is a table of every
metric with its unit and sample count, the output checks, the environment,
and, as the last line, one JSON object ``{correct, attempted, failed,
metrics}`` holding the end-to-end metrics BENCHMARK.json names (with
``--trace 1``, its per-layer metrics).  ``--out`` also writes the full
report.  Exit status: 0 when every output check passed, 1 when one failed
or a named metric is missing, 2 on a usage error or when the checkout has
no repca source tree.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Each invocation must end within 180 s; leave room for start-up and output.
CHILD_TIMEOUT_S = 170
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A fixed string-hash seed, so set and dict layouts do not vary between runs.
FIXED_ENV = {**BLAS_PINS, "PYTHONHASHSEED": "0"}


def run_child(args, workdir: Path, report_path: Path) -> int:
    env = dict(os.environ, **FIXED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    cmd = [
        sys.executable, str(BENCH_DIR / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--report", str(report_path),
    ] + (["--smoke"] if args.smoke else [])
    # A session of its own, so a timeout can stop the CLI workload's repca
    # processes along with the child.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  seconds {report['seconds']:g}  "
          f"trace {report['trace']}  rounds {report['rounds']}{'  (smoke sizes)' if report['smoke'] else ''}")
    print("environment " + json.dumps(report["env"], sort_keys=True))
    for section in ("metrics", "layers"):
        for name, m in sorted(report.get(section, {}).items()):
            print(f"  {name:<40} {m['value']:>16.8g} {m['unit']:<16} n={m['samples']}")
    for fit in report.get("fits", []):
        fields = [f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                  for k, v in fit.items() if k not in ("cpu_s", "wall_s")]
        print("  fit " + " ".join(fields))
    if "reconcile" in report:
        print("  reconcile with ROADMAP " + json.dumps(report["reconcile"], sort_keys=True))
    for name, c in report["checks"].items():
        print(f"  check {name:<16} ran {c['ran']:>6}  failed {c['failed']}")
    for message in report["messages"]:
        print(f"  FAILED {message}")


def result_line(report: dict, named: list) -> dict:
    source = report.get("layers" if report["trace"] else "metrics", {})
    metrics, missing = {}, []
    for spec in named:
        got = source.get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            missing.append(spec["name"])
            continue
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    if missing:
        print(f"  MISSING metrics {', '.join(missing)}")
    return {
        "correct": report["failed"] == 0 and not missing,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repca" / "__init__.py").is_file():
        print(f"error: no repca source tree under {ROOT}; run from a repca checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="Run one repca benchmark workload.")
    parser.add_argument("--workload", required=True,
                        help="a workload BENCHMARK.json names, or wide (measured but not gated)")
    parser.add_argument("--seed", type=int, required=True, help="relabels the planted problems")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true", help="toy problem sizes, for the benchmark's tests")
    parser.add_argument("--out", help="also write the full report as JSON here")
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        report_path = workdir / "report.json"
        code = run_child(args, workdir, report_path)
        if code != 0 or not report_path.is_file():
            print(f"error: workload process exited with status {code}", file=sys.stderr)
            return 1
        with open(report_path, encoding="ascii") as fh:
            report = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_report(report)
    result = result_line(report, spec["per_layer" if args.trace else "end_to_end"])
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump({**report, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
