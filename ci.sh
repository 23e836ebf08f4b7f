#!/bin/sh
# Tier-1 verify: configure, build everything, run the full test suite,
# regenerate the bench CSVs and check them for paper-shape violations and
# drift against the committed baselines — then rebuild the tests under
# ASan+UBSan and run them again (benches and examples are skipped in the
# sanitizer configuration; they only re-exercise library code the tests
# already cover).
#
# Extra modes:
#   lint        determinism lint over src/ (tools/determinism_lint.py;
#               the static side of the determinism contract,
#               docs/ARCHITECTURE.md §11) plus clang-tidy with the
#               committed .clang-tidy profile when the binary is
#               available (skipped with a notice otherwise); also
#               prints the src/ line count (informational);
#   audit       Debug build with -DLAPSCHED_AUDIT=ON — the LAPS_AUDIT
#               runtime invariant checks execute in every hot layer —
#               and the full test suite under it;
#   tsan        rebuild the tests under ThreadSanitizer (covers the
#               parallel analysis substrate of src/util/parallel.h) and
#               run them;
#   bench       run bench_micro at 1 and 8 analysis threads
#               (--benchmark_format=json) and merge the runs into
#               BENCH_micro.json at the repo root — the machine-readable
#               perf baseline future perf PRs diff against (the previous
#               file's numbers are folded in as previous_* fields);
#   bench-gate  run the bench mode against a saved copy of the committed
#               BENCH_micro.json and fail if any *_speedup field
#               regressed >25% (bench/baselines/check_bench_regression.py)
#               — the scheduled CI perf gate;
#   perfbench   run the end-to-end benchmark (perfbench/run.py) for 1 s
#               at seed 1 on each BENCHMARK.json workload and fail
#               unless every result line reports "correct": true and
#               "failed": 0 — the committed-baseline-row and sim-digest
#               checks of perfbench/run.py, in CI.
#
# Every cmake configure honours LAPSCHED_WERROR (default OFF); CI
# exports LAPSCHED_WERROR=ON so all CI configurations build -Werror.
#
# Usage: ci.sh [tier1|lint|audit|sanitize|tsan|bench|bench-gate|perfbench|all]
# (default: all; perfbench runs only when named)
set -eu

MODE="${1:-all}"
case "$MODE" in
  all|tier1|lint|audit|sanitize|tsan|bench|bench-gate|perfbench) ;;
  *)
    echo "ci.sh: unknown mode '$MODE' (expected tier1, lint, audit," \
         "sanitize, tsan, bench, bench-gate, perfbench or all)" >&2
    exit 2
    ;;
esac

WERROR="${LAPSCHED_WERROR:-OFF}"

if [ "$MODE" = "all" ] || [ "$MODE" = "tier1" ]; then
  cmake -B build -S . -DLAPSCHED_WERROR="$WERROR"
  cmake --build build -j
  (cd build && ctest --output-on-failure -j)

  # Bench baselines (see bench/baselines/check_shapes.py; regenerate the
  # CSVs there after an intentional behavior change). Figure 6's isolated
  # runs need the wider tolerance: LS ~= LSM per application, with small
  # wobbles either way; the aggregate orderings are checked strictly.
  if command -v python3 >/dev/null 2>&1; then
    (
      cd build
      ./bench_fig6_isolated --csv > bench_fig6.csv
      python3 ../bench/baselines/check_shapes.py bench_fig6.csv \
        --tol 0.15 --baseline ../bench/baselines/fig6.csv
      ./bench_fig7_concurrent --csv > bench_fig7.csv
      python3 ../bench/baselines/check_shapes.py bench_fig7.csv \
        --baseline ../bench/baselines/fig7.csv
      # Contention sweep: LS >= RS must survive the shared L2 + bounded
      # bus, and LSM's miss margin over LS must not shrink as |T| grows.
      # The column subset keeps the baseline valid if the sweep grows
      # new diagnostic columns.
      ./bench_ablation --csv > bench_ablation.csv
      python3 ../bench/baselines/check_shapes.py bench_ablation.csv \
        --lsm-gap-monotone \
        --baseline ../bench/baselines/ablation_contention.csv \
        --columns case,scheduler,l2_kb,bus_width,t,processes,makespan_cycles,dcache_misses,l2_misses
      ./bench_tables --csv > bench_tables.csv
      python3 ../bench/baselines/check_shapes.py bench_tables.csv \
        --baseline ../bench/baselines/tables.csv
      # Open-workload sweep: no LS/LSM rows, so the paper-shape
      # orderings are skipped; the deterministic CSV is baselined.
      ./bench_open_workload --csv > bench_open_workload.csv
      python3 ../bench/baselines/check_shapes.py bench_open_workload.csv \
        --no-shapes --baseline ../bench/baselines/open_workload.csv
      # Saturation sweep: per-process heavy-tailed arrivals x admission
      # policy. Checks the exact percentile ordering per row, the knee
      # ordering (locality-aware policies saturate later) and the
      # SloShed/QueueCap shedding shapes, then diffs the deterministic
      # CSV against the baseline.
      ./bench_saturation --csv > bench_saturation.csv
      python3 ../bench/baselines/check_shapes.py bench_saturation.csv \
        --no-shapes --percentile-monotone --saturation-shapes \
        --baseline ../bench/baselines/saturation.csv
      # Decision-throughput sweep: the checksum columns pin every
      # dispatch decision at every |T| (diffed against the baseline on
      # the machine-independent columns), and OLS-idx ns/event at the
      # largest |T| must stay within 2x its |T|=1000 value
      # (--decision-throughput; timing columns are excluded from the
      # baseline diff).
      ./bench_policy_overhead --csv > bench_policy_overhead.csv
      python3 ../bench/baselines/check_shapes.py bench_policy_overhead.csv \
        --no-shapes --decision-throughput \
        --baseline ../bench/baselines/policy_overhead.csv \
        --columns t,scheduler,cores,window,events,decisions,checksum
      # Fault-tolerance sweep: seeded fault injection x retry policy x
      # scheduler (docs §13). Checks that retries recover goodput, that
      # the locality p95 edge survives faults and that departures are
      # conserved on every row, then diffs the seeded CSV against the
      # baseline.
      ./bench_faults --csv > bench_faults.csv
      python3 ../bench/baselines/check_shapes.py bench_faults.csv \
        --no-shapes --percentile-monotone --fault-shapes \
        --baseline ../bench/baselines/faults.csv
      # NoC sweep: mesh size x link width x OLS distance-awareness on
      # the directory-coherent mesh platform. Checks cohort
      # conservation, real routed traffic per row and the hop-weighted
      # scheduler's p95/migration-penalty edge on the largest mesh,
      # then diffs the deterministic CSV against the baseline.
      ./bench_noc --csv > bench_noc.csv
      python3 ../bench/baselines/check_shapes.py bench_noc.csv \
        --no-shapes --percentile-monotone --noc-shapes \
        --baseline ../bench/baselines/noc.csv
    )
  else
    echo "ci.sh: python3 not found; skipping bench baseline checks" >&2
  fi
fi

if [ "$MODE" = "all" ] || [ "$MODE" = "lint" ]; then
  # The determinism lint is the hard gate: src/ must be finding-free
  # under the committed policy, every suppression justified.
  if command -v python3 >/dev/null 2>&1; then
    python3 tools/determinism_lint.py
    python3 tests/tools/lint_selftest.py
  else
    echo "ci.sh: python3 not found; cannot run the determinism lint" >&2
    exit 1
  fi
  # The src/ line count is the size metric ROADMAP's north-star aim 2
  # tracks (the same results from less code): printed, not gated.
  echo "ci.sh: src/ line count $(find src -name '*.[ch]*' -exec cat {} + | wc -l | tr -d ' ')"
  # clang-tidy is advisory-but-enforced where available: the committed
  # .clang-tidy profile runs over every library source with
  # warnings-as-errors. Skipped (not failed) when the binary is absent
  # so local runs without LLVM still pass; the CI lint job installs it.
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      -DLAPSCHED_BUILD_TESTS=OFF -DLAPSCHED_BUILD_BENCHES=OFF \
      -DLAPSCHED_BUILD_EXAMPLES=OFF
    find src -name '*.cpp' | xargs clang-tidy -p build-tidy --quiet
    echo "ci.sh: clang-tidy clean"
  else
    echo "ci.sh: clang-tidy not found; skipping the clang-tidy pass" >&2
  fi
fi

if [ "$MODE" = "all" ] || [ "$MODE" = "audit" ]; then
  # Audit build: every LAPS_AUDIT invariant check executes inline.
  # Debug keeps the checks un-elided; the full suite must stay green
  # with the contract enforced at runtime.
  cmake -B build-audit -S . -DCMAKE_BUILD_TYPE=Debug \
    -DLAPSCHED_AUDIT=ON -DLAPSCHED_WERROR="$WERROR" \
    -DLAPSCHED_BUILD_BENCHES=OFF -DLAPSCHED_BUILD_EXAMPLES=OFF
  cmake --build build-audit -j
  (cd build-audit && ctest --output-on-failure -j)
fi

if [ "$MODE" = "all" ] || [ "$MODE" = "sanitize" ]; then
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DLAPSCHED_SANITIZE=ON -DLAPSCHED_WERROR="$WERROR" \
    -DLAPSCHED_BUILD_BENCHES=OFF -DLAPSCHED_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j
  (cd build-asan && ctest --output-on-failure -j)
fi

if [ "$MODE" = "all" ] || [ "$MODE" = "tsan" ]; then
  # Tests-only TSan configuration: the thread pool and the parallel
  # analysis regions run under ThreadSanitizer. LAPS_THREADS widens the
  # default regions; the bit-identity tests additionally pin explicit
  # thread counts themselves.
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DLAPSCHED_SANITIZE=thread -DLAPSCHED_WERROR="$WERROR" \
    -DLAPSCHED_BUILD_BENCHES=OFF -DLAPSCHED_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j
  (cd build-tsan && LAPS_THREADS=4 ctest --output-on-failure -j)
fi

if [ "$MODE" = "bench" ] || [ "$MODE" = "bench-gate" ]; then
  if [ "$MODE" = "bench-gate" ]; then
    # Snapshot the committed baseline before the bench run folds the
    # fresh numbers into BENCH_micro.json.
    cp BENCH_micro.json build_bench_baseline.json 2>/dev/null || {
      echo "ci.sh: no committed BENCH_micro.json to gate against" >&2
      exit 1
    }
  fi
  cmake -B build -S . -DLAPSCHED_WERROR="$WERROR"
  cmake --build build -j --target bench_micro
  if [ ! -x build/bench_micro ]; then
    echo "ci.sh: bench_micro not built (google-benchmark missing?)" >&2
    exit 1
  fi
  LAPS_THREADS=1 ./build/bench_micro --benchmark_format=json \
    > build/bench_micro_t1.json
  LAPS_THREADS=8 ./build/bench_micro --benchmark_format=json \
    --benchmark_filter='BM_SharingMatrixSuite|BM_WorkloadFootprints|BM_SharingMatrixIncremental' \
    > build/bench_micro_t8.json
  python3 bench/baselines/merge_bench_json.py \
    build/bench_micro_t1.json --t8 build/bench_micro_t8.json \
    --previous BENCH_micro.json -o BENCH_micro.json
  echo "ci.sh: wrote BENCH_micro.json"
  # Saturation sweep CSV next to the micro numbers: deterministic, so it
  # doubles as a cross-host reproducibility probe of the integer-only
  # arrival sampling (the artifact must match the committed baseline on
  # any runner).
  cmake --build build -j --target bench_saturation
  ./build/bench_saturation --csv > build/bench_saturation.csv
  python3 bench/baselines/check_shapes.py build/bench_saturation.csv \
    --no-shapes --percentile-monotone --saturation-shapes \
    --baseline bench/baselines/saturation.csv
  echo "ci.sh: wrote build/bench_saturation.csv"
  # Scheduling-decision throughput: human-readable table for the bench
  # log plus the CSV checksum/scaling checks of the tier-1 run.
  cmake --build build -j --target bench_policy_overhead
  ./build/bench_policy_overhead
  ./build/bench_policy_overhead --csv > build/bench_policy_overhead.csv
  python3 bench/baselines/check_shapes.py build/bench_policy_overhead.csv \
    --no-shapes --decision-throughput \
    --baseline bench/baselines/policy_overhead.csv \
    --columns t,scheduler,cores,window,events,decisions,checksum
  echo "ci.sh: wrote build/bench_policy_overhead.csv"
  # Fault-tolerance sweep: the seeded fault/retry CSV doubles as a
  # cross-host reproducibility probe of the integer-only fault streams.
  cmake --build build -j --target bench_faults
  ./build/bench_faults --csv > build/bench_faults.csv
  python3 bench/baselines/check_shapes.py build/bench_faults.csv \
    --no-shapes --percentile-monotone --fault-shapes \
    --baseline bench/baselines/faults.csv
  echo "ci.sh: wrote build/bench_faults.csv"
  # NoC sweep: the deterministic mesh/directory CSV doubles as a
  # cross-host reproducibility probe of the integer-only NoC timing.
  cmake --build build -j --target bench_noc
  ./build/bench_noc --csv > build/bench_noc.csv
  python3 bench/baselines/check_shapes.py build/bench_noc.csv \
    --no-shapes --percentile-monotone --noc-shapes \
    --baseline bench/baselines/noc.csv
  echo "ci.sh: wrote build/bench_noc.csv"
  if [ "$MODE" = "bench-gate" ]; then
    python3 bench/baselines/check_bench_regression.py \
      BENCH_micro.json build_bench_baseline.json
    rm -f build_bench_baseline.json
  fi
fi

if [ "$MODE" = "perfbench" ]; then
  # perfbench/run.py builds its own tree (.bench_build/perfbench), runs
  # one workload and prints a context line and a result line; a build or
  # run failure exits non-zero and stops this script (set -e).
  for workload in service-ols-overload noc-mesh8x8 closed-lsm faults-bus; do
    output=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
      --seconds 1 --trace 0)
    python3 -c '
import json
import sys

workload, output = sys.argv[1], sys.argv[2]
result = json.loads(output.splitlines()[-1])
correct, failed = result.get("correct"), result.get("failed")
print(f"ci.sh: perfbench {workload}: correct={correct} failed={failed}")
sys.exit(0 if correct is True and failed == 0 else 1)
' "$workload" "$output"
  done
fi
