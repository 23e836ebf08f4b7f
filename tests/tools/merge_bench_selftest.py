#!/usr/bin/env python3
"""Self-test of bench/baselines/merge_bench_json.py on repeated runs.

Merges fixtures/bench_two_reps.json (two google-benchmark repetitions
per benchmark, plus aggregate rows) and checks the folding rule: one
row per benchmark, aggregates skipped, the minimum cpu_time and the
minimum real_time over the repetitions (which may come from different
passes), user counters carried, and the repetition count stamped in
the context. Then re-records one row with --only and checks that the
carried-over row is untouched and the fresh one stamps repetitions.

Usage: merge_bench_selftest.py
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
MERGE = os.path.join(HERE, "..", "..", "bench", "baselines",
                     "merge_bench_json.py")
FIXTURE = os.path.join(HERE, "fixtures", "bench_two_reps.json")


def merge(*args):
    subprocess.run([sys.executable, MERGE, *args], check=True)


def expect(condition, message, failures):
    if not condition:
        failures.append(message)


def main():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "merged.json")
        merge(FIXTURE, "-o", out_path)
        with open(out_path) as f:
            merged = json.load(f)
        rows = {b["name"]: b for b in merged["benchmarks"]}
        expect(len(merged["benchmarks"]) == 2 and
               set(rows) == {"BM_Alpha/64", "BM_Beta"},
               f"expected one row per benchmark, got {sorted(rows)}",
               failures)
        alpha, beta = rows.get("BM_Alpha/64", {}), rows.get("BM_Beta", {})
        # Alpha's fastest cpu pass (110) and fastest real pass (100) are
        # different repetitions; each minimum is kept on its own.
        expect(alpha.get("cpu_time_ns") == 110.0,
               f"BM_Alpha/64 cpu_time_ns {alpha.get('cpu_time_ns')} != 110.0",
               failures)
        expect(alpha.get("real_time_ns") == 100.0,
               f"BM_Alpha/64 real_time_ns {alpha.get('real_time_ns')} != 100.0",
               failures)
        expect(alpha.get("iterations") == 1000,
               "BM_Alpha/64 iterations should come from the fastest-cpu pass",
               failures)
        expect(alpha.get("candidates") == 64,
               "BM_Alpha/64 lost its user counter", failures)
        expect(beta.get("cpu_time_ns") == 2900.0 and
               beta.get("real_time_ns") == 3000.0,
               f"BM_Beta minima wrong: {beta}", failures)
        expect(merged["context"].get("repetitions") == 2,
               f"context repetitions {merged['context'].get('repetitions')}"
               " != 2", failures)

        only_path = os.path.join(tmp, "only.json")
        merge(FIXTURE, "--previous", out_path, "--only", "^BM_Beta$",
              "-o", only_path)
        with open(only_path) as f:
            only = json.load(f)
        only_rows = {b["name"]: b for b in only["benchmarks"]}
        expect(only_rows.get("BM_Alpha/64") == alpha,
               "--only changed a carried-over row", failures)
        expect(only_rows.get("BM_Beta", {}).get("repetitions") == 2,
               "--only row lacks its repetitions stamp", failures)
        expect(only_rows.get("BM_Beta", {}).get("speedup_vs_previous") == 1.0,
               "--only row should diff against the folded previous row",
               failures)

    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    if not failures:
        print("merge_bench_selftest: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
