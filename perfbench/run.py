#!/usr/bin/env python3
"""lapsched end-to-end benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a lapsched source tree. Builds the library and the
benchmark program (perfbench/src) with CMake into .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench), runs the program for one workload in
its own process, cross-checks the simulated metrics against the
committed bench/baselines rows at the default seed, and prints one JSON
context line followed by the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. Exits non-zero, printing no result, when
the tree cannot be built or the program fails.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1  # perfbench::kDefaultSeed: the seed of the committed baselines
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Workload -> (baseline CSV, case, scheduler) whose row the committed
# configuration (perfbench::WorkloadSpec::committed) must reproduce at
# the default seed.
BASELINE_ROWS = {
    "service-ols-overload": ("saturation.csv", "arr-500_adm-AdmitAll", "OLS"),
    "noc-mesh8x8": ("noc.csv", "mesh-64_lw-32", "OLS-NOC"),
}
BASELINE_COLUMNS = {
    "makespan_cycles": "makespan_cycles",
    "dcache_misses": "dcache_misses",
    "sojourn_p50_cycles": "sojourn_p50",
    "sojourn_p95_cycles": "sojourn_p95",
    "sojourn_p99_cycles": "sojourn_p99",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the program; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no lapsched source tree at {ROOT}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(configure, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")
    return out / "perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def source_identity():
    """The git commit if this is a checkout, and a digest of the sources."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def baseline_mismatches(workload, figures):
    """Figures of the committed configuration that differ from its
    bench/baselines row."""
    file, case, scheduler = BASELINE_ROWS[workload]
    with open(ROOT / "bench" / "baselines" / file, newline="") as f:
        rows = [r for r in csv.DictReader(f)
                if r["case"] == case and r["scheduler"] == scheduler]
    if len(rows) != 1:
        return [f"{file}: no unique row {case},{scheduler}"]
    return [f"{name}: {figures[name]} != {rows[0][column]}"
            for name, column in BASELINE_COLUMNS.items()
            if figures[name] != int(rows[0][column])]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    declared = declared_metrics(args.trace)
    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail(f"perfbench exited with {proc.returncode}")
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != declared:
        fail(f"printed metrics {sorted(printed.items())} differ from "
             f"BENCHMARK.json {sorted(declared.items())}")

    checks = []
    if args.seed == DEFAULT_SEED and args.workload in BASELINE_ROWS:
        if "committed_point" not in context:
            fail("perfbench reported no committed_point at the default seed")
        checks = baseline_mismatches(args.workload, context["committed_point"])
        context["baseline_row_matches"] = not checks
    if checks:
        print("perfbench: baseline mismatch: " + "; ".join(checks), file=sys.stderr)
        result["correct"] = False
        result["failed"] = result["attempted"]

    context["commit"], context["source_digest"] = source_identity()
    print(json.dumps({"context": context}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
