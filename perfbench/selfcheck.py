#!/usr/bin/env python3
"""Fast self-check of the benchmark.

Runs every workload of BENCHMARK.json at tiny size in both trace modes and
checks the last output line: exactly the keys correct/attempted/failed/
metrics, no failed operation, and metric names and units equal to the
BENCHMARK.json lists. It also checks that the benchmark refuses to run (exit
code not 0, no result line) in a directory holding only BENCHMARK.json and
the benchmark's own files. Run from the root of a costcap checkout:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


def check_result(stdout: str, expected_units: dict) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return [f"last line is not JSON: {lines[-1][:120]!r}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']!r}")
    if result["failed"] != 0:
        problems.append(f"failed {result['failed']!r}")
    metrics = result["metrics"]
    if set(metrics) != set(expected_units):
        missing = sorted(set(expected_units) - set(metrics))
        extra = sorted(set(metrics) - set(expected_units))
        problems.append(f"metric names differ: missing {missing}, unexpected {extra}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        if name in expected_units and entry.get("unit") != expected_units[name]:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {expected_units[name]!r}")
    return problems


def check_refuses_without_sources(bench: dict) -> list[str]:
    """The benchmark alone, without the package sources, must not run."""
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for rel in bench["paths"]:
            shutil.copytree(ROOT / rel, Path(tmp) / rel, ignore=shutil.ignore_patterns("__pycache__"))
        cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                                  "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode == 0:
        return ["exit code 0 without the package sources"]
    if '"metrics"' in proc.stdout:
        return ["printed a result without the package sources"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
            problems = check_result(proc.stdout, units[trace])
            if proc.returncode != 0:
                problems.insert(0, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            failures += bool(problems)
            print(f"{'ok  ' if not problems else 'FAIL'} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
    problems = check_refuses_without_sources(bench)
    failures += bool(problems)
    print(f"{'ok  ' if not problems else 'FAIL'} refuses to run without the package sources")
    for problem in problems:
        print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
