"""Smoke check of the benchmark itself.

Runs every workload at ``--size tiny`` on a second seed, untraced and
traced, and checks each result line against ``BENCHMARK.json``: every
named metric is present with its unit, nothing else is, and no slot
failed.  Exits non-zero on the first problem.

Usage (from the repository root)::

    python3 perfbench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 2


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
            "--size", "tiny",
        ],
        check=True, capture_output=True, text=True, timeout=170, cwd=str(ROOT),
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(result: dict, expected: dict[str, str], label: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"{label}: {result.get('failed')} failed slots")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(
            f"{label}: missing {sorted(set(expected) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(expected))}"
        )
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: {name} = {got!r}, want unit {unit!r}")
    if "certified_frac" in metrics and metrics["certified_frac"]["value"] != 1.0:
        problems.append(f"{label}: certified_frac = {metrics['certified_frac']}")
    if "check.failed_frac" in metrics and metrics["check.failed_frac"]["value"] != 0:
        problems.append(f"{label}: check.failed_frac = {metrics['check.failed_frac']}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            found = check(run(workload, trace), expected[trace], label)
            print(f"{label}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
