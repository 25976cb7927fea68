#!/usr/bin/env python3
"""Quick self-check of the benchmark.

Runs every workload for a handful of operations, twice untraced and once
traced, and asserts that

* the last stdout line holds exactly `correct`, `attempted`, `failed`
  and `metrics`, with every end-to-end (untraced) or per-layer (traced)
  metric of BENCHMARK.json printed under its unit;
* every operation succeeded and passed its output check (error rate 0);
* the two untraced invocations print the same outcome digest.

Run from the repository root: `python3 perfbench/selfcheck.py`.
"""

import json
import subprocess
import sys

OPS = "6"


def run(command, workload, trace):
    args = command + ["--workload", workload, "--seed", "7", "--seconds", "10",
                      "--trace", str(trace), "--max-ops", OPS]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(workload, info, result, expected):
    where = f"{workload} (trace={int(info['trace'])})"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: outputs incorrect"
    assert result["attempted"] >= 1, where
    assert result["failed"] == 0 and info["error_rate"] == 0, f"{where}: operations failed"
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, f"{where}: metric names differ"
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{where}: {m['name']} not a number"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    for name in [w["name"] for w in bench["workloads"]]:
        first = run(command, name, 0)
        second = run(command, name, 0)
        traced = run(command, name, 1)
        check(name, *first, bench["end_to_end"])
        check(name, *second, bench["end_to_end"])
        check(name, *traced, bench["per_layer"])
        assert first[0]["digest"] == second[0]["digest"] == traced[0]["digest"], \
            f"{name}: digests differ between invocations"
        print(f"ok {name}: digest {first[0]['digest']}")


if __name__ == "__main__":
    main()
