#!/usr/bin/env python3
"""The repository benchmark: builds ac3bench from source and runs one workload.

    python3 ac3bench/run.py --workload swap_sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It configures and builds the harness
(ac3bench/CMakeLists.txt, which pulls in the project's own build) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, runs the workload,
checks its outputs, and prints two JSON lines on stdout: a report with the
provenance, the deterministic fingerprint, every measured number and, for a
traced run, each per-layer metric tagged with the end-to-end metric it should
move; then the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). Traced runs also write a Chrome trace-event file under
.bench_out/ that opens offline in Perfetto. Any build or harness error exits
non-zero without a result line.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("swap_sweep", "crash_sweep", "openworld_bursty")
RUN_LIMIT_S = 175  # The whole invocation, build excluded.

# Per-layer metric -> (end-to-end metric it should move, workload where it
# should move most, workload where it should move least).
LAYER_TAGS = {
    "runner.worker_idle_frac": ("worlds_per_s", "crash_sweep", "swap_sweep"),
    "core.world_setup_ms": ("world_ms_p50", "swap_sweep", "crash_sweep"),
    "core.submit_us_per_tx": ("swaps_per_s", "openworld_bursty", "crash_sweep"),
    "protocols.engine_start_ms": ("world_ms_p50", "swap_sweep",
                                  "openworld_bursty"),
    "protocols.messages_per_swap": ("world_ms_p90", "swap_sweep",
                                    "crash_sweep"),
    "protocols.bytes_per_swap": ("world_ms_p90", "swap_sweep", "crash_sweep"),
    "protocols.fund_retries_per_swap": ("swap_latency_sim_p90_ms",
                                        "swap_sweep", "crash_sweep"),
    "sim.run_ms": ("worlds_per_s", "crash_sweep", "swap_sweep"),
    "sim.events_per_world": ("worlds_per_s", "crash_sweep", "swap_sweep"),
    "sim.us_per_event": ("swaps_per_s", "openworld_bursty", "crash_sweep"),
    "sim.workload_gen_ms": ("setup_s", "openworld_bursty", "swap_sweep"),
    "sim.net_delivered_per_swap": ("world_ms_p90", "swap_sweep",
                                   "crash_sweep"),
    "sim.net_drop_frac": ("world_ms_p90", "swap_sweep", "openworld_bursty"),
    "chain.blocks_per_world": ("worlds_per_s", "crash_sweep", "swap_sweep"),
    "chain.orphan_frac": ("worlds_per_s", "crash_sweep", "swap_sweep"),
    "chain.txs_per_block": ("swaps_per_s", "openworld_bursty", "crash_sweep"),
    "chain.backlog_max": ("swap_latency_sim_p90_ms", "openworld_bursty",
                          "crash_sweep"),
    "chain.backlog_mean": ("swaps_per_s", "openworld_bursty", "crash_sweep"),
    "chain.candidates_us": ("swaps_per_s", "openworld_bursty", "swap_sweep"),
    "chain.candidates_us_per_1k_pending": ("swaps_per_s", "openworld_bursty",
                                           "swap_sweep"),
    "chain.validate_us_per_block": ("swaps_per_s", "openworld_bursty",
                                    "swap_sweep"),
    "chain.validate_us_per_tx": ("swaps_per_s", "openworld_bursty",
                                 "crash_sweep"),
    "chain.pow_us_per_block": ("worlds_per_s", "crash_sweep",
                               "openworld_bursty"),
    "chain.pow_evals_per_block": ("world_ms_p50", "crash_sweep",
                                  "openworld_bursty"),
    "chain.pow_est_share": ("worlds_per_s", "crash_sweep", "openworld_bursty"),
    "common.threads_peak": ("swaps_per_s", "openworld_bursty", "swap_sweep"),
}


def fail(message):
    print("ac3bench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    configured = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return configured if configured.is_absolute() else ROOT / configured


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no project sources next to " + str(HERE))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    compile_cmd = ["cmake", "--build", str(out), "--target", "ac3bench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = out / "ac3bench"
    if not binary.is_file():
        fail("build produced no ac3bench binary")
    return binary


def source_digest():
    """SHA-256 over the project sources, for checkouts without git."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def traced_pass_warnings(stderr_text, needle):
    """Counts lines holding `needle` between the traced-pass markers."""
    inside, count = False, 0
    for line in stderr_text.splitlines():
        if line.startswith("ac3bench: traced pass begins"):
            inside = True
        elif line.startswith("ac3bench: traced pass ends"):
            inside = False
        elif inside and needle in line:
            count += 1
    return count


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: a few worlds, a short stream")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at " + str(spec_path))
    spec = json.loads(spec_path.read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    started = time.monotonic()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    trace_file = None
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / "trace-{}-{}.json".format(args.workload,
                                                         args.seed)
        command += ["--trace-file", str(trace_file)]
    if args.tiny:
        command.append("--tiny")
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within {} s".format(RUN_LIMIT_S))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("ac3bench exited with code {}".format(proc.returncode))
    try:
        raw = json.loads(proc.stdout)
    except json.JSONDecodeError as error:
        fail("unreadable ac3bench output: {}".format(error))

    measured = dict(raw["metrics"])
    info = raw["info"]
    if args.trace:
        # Engines log a warning each time a sender's funds are still
        # reserved by an earlier deploy (a hub's only output); each one is
        # a retried deploy.
        swaps = info.get("traced_worlds", info.get("offered_swaps", 0))
        retries = traced_pass_warnings(proc.stderr, "cannot fund")
        measured["protocols.fund_retries_per_swap"] = {
            "value": retries / swaps if swaps else 0.0, "unit": "count"}
        raw["deterministic"].append("protocols.fund_retries_per_swap")

    metrics, problems = {}, []
    for entry in group:
        got = measured.get(entry["name"])
        if got is None:
            problems.append("missing metric " + entry["name"])
        elif got["unit"] != entry["unit"]:
            problems.append("unit of {} is {}, BENCHMARK.json says {}".format(
                entry["name"], got["unit"], entry["unit"]))
        elif not math.isfinite(got["value"]):
            problems.append("metric {} is not finite".format(entry["name"]))
        else:
            metrics[entry["name"]] = {"value": got["value"],
                                      "unit": got["unit"]}
    if problems:
        fail("; ".join(problems))

    provenance = dict(raw["provenance"])
    provenance["commit"] = commit()
    provenance["source_sha256"] = source_digest()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance,
        "fingerprint": raw["fingerprint"],
        "deterministic": {name: measured[name]["value"]
                          for name in raw["deterministic"]
                          if name in measured},
        "failures": raw["failures"],
        "info": info,
        "measured": measured,
        "wall_s": round(time.monotonic() - started, 3),
    }
    if args.trace:
        report["tags"] = {
            name: {"value": metrics[name]["value"],
                   "unit": metrics[name]["unit"],
                   "should_move": LAYER_TAGS[name][0],
                   "most_on": LAYER_TAGS[name][1],
                   "least_on": LAYER_TAGS[name][2]}
            for name in metrics}
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(report, sort_keys=False))
    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
