#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny size of each workload.

    python3 ac3bench/selftest.py [--workload NAME]

For each workload it runs `run.py --tiny` twice untraced and twice traced
with the same seed, and checks that
  * every metric BENCHMARK.json names is printed, with its unit;
  * no operation failed and the result says correct;
  * the deterministic metrics and the result fingerprint repeat exactly
    across the two invocations;
  * a traced run tags every per-layer metric and writes a readable trace.
Exits non-zero on the first workload that fails a check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def invoke(workload, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
               "--tiny"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError("{} exited {}: {}".format(
            " ".join(command), proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(workload, trace, spec):
    group = spec["per_layer"] if trace else spec["end_to_end"]
    runs = [invoke(workload, trace) for _ in range(2)]
    for report, result in runs:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, report["failures"]
        assert result["attempted"] >= 1
        for entry in group:
            got = result["metrics"].get(entry["name"])
            assert got is not None, "missing " + entry["name"]
            assert got["unit"] == entry["unit"], entry["name"]
            assert isinstance(got["value"], (int, float)), entry["name"]
        if trace:
            assert set(report["tags"]) == {e["name"] for e in group}
            events = json.loads((ROOT / report["trace_file"]).read_text())
            assert events["traceEvents"], "empty trace"
    (first, _), (second, _) = runs
    assert first["fingerprint"] == second["fingerprint"], "fingerprint"
    assert first["deterministic"] == second["deterministic"], (
        first["deterministic"], second["deterministic"])
    return len(first["deterministic"])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for workload in [args.workload] if args.workload else names:
        for trace in (0, 1):
            try:
                repeated = check(workload, trace, spec)
            except AssertionError as error:
                print("FAIL {} trace={}: {}".format(workload, trace, error))
                return 1
            print("ok   {} trace={}: all metrics present, {} deterministic "
                  "values repeat".format(workload, trace, repeated))
    return 0


if __name__ == "__main__":
    sys.exit(main())
