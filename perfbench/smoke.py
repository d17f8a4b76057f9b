#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload once at the smallest size (`--tiny`), untraced and
traced, and checks that each prints, as its last line, every metric that
BENCHMARK.json names for that mode, with its unit, and no other; that no
operation failed; and that the counts of two traced runs agree exactly.
Then copies only BENCHMARK.json and perfbench/ into an empty directory and
checks that the benchmark refuses to run there. Exits 0 when all holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMEOUT = 180


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check_result(workload: str, trace: int, problems: list[str]) -> dict:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: error_rate {result['failed']}/{result['attempted']} "
                        f"is not 0: {proc.stderr.strip()[-500:]}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {[n for n in want if n in got and got[n] != want[n]]}")
    if not trace and any(m["value"] <= 0 for m in result["metrics"].values()):
        problems.append(f"{where}: an end-to-end metric is not positive")
    return result["metrics"]


def main() -> int:
    problems: list[str] = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_result(workload, 0, problems)
        first = check_result(workload, 1, problems)
        second = check_result(workload, 1, problems)
        for name, metric in first.items():
            if metric["unit"] == "count" and second.get(name) != metric:
                problems.append(f"{workload}: count {name} differs between traced runs")
        print(f"{workload}: done")
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
        if proc.returncode == 0:
            problems.append("the benchmark ran without the program's sources")
    for problem in problems:
        print(f"SMOKE FAILED {problem}")
    print("smoke check passed" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
