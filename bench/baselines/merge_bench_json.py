#!/usr/bin/env python3
"""Fold bench_micro runs into the committed BENCH_micro.json baseline.

Takes the google-benchmark JSON of a 1-thread run (the comparable
baseline: every entry), optionally an 8-thread run of the parallel
analysis benchmarks (--t8), and optionally the previous BENCH_micro.json
(--previous) whose numbers are carried over as previous_* fields so the
file records a before/after trajectory, not a single snapshot.

Output schema (one object per benchmark, times in ns):
  name, iterations, real_time_ns, cpu_time_ns         from the t1 run
  <counter>                                           user counters of the t1 run
  t8_real_time_ns, t8_cpu_time_ns, t8_speedup         when --t8 covers it
  previous_cpu_time_ns, speedup_vs_previous           when --previous has it
  vs_faultfree_speedup, vs_busytimeline_speedup       when a twin ran (TWINS)
t8_speedup is wall-time based (t1 real / t8 real): google-benchmark's
cpu_time counts only the driving thread, which mostly waits while the
pool works, so a cpu-time ratio would overstate parallel scaling.
A twin field pairs a benchmark with a reference twin sharing its
stem (BM_OpenWorkloadFaultPathFaultFree vs BM_OpenWorkloadFaultPath)
and records twin_cpu / current_cpu on the current entry — a
within-host ratio, so check_bench_regression.py gates it like
t8_speedup. vs_faultfree_speedup guards that the zero-rate fault path
stays within noise of the fault-free engine; vs_busytimeline_speedup
that the NoC link calendar keeps its edge over the interval calendar
on one-cycle link bookings (BM_LinkCalendarReserveOnBusyTimeline vs
BM_LinkCalendarReserve).
Context carries the google-benchmark host fields plus laps_threads notes.

Repetitions: ci.sh runs bench_micro with --benchmark_repetitions, so a
run holds several "iteration" rows per benchmark plus aggregate rows
(mean, median, ...). Rows are folded by run_name before anything else:
aggregate rows are skipped, and each benchmark keeps the minimum
cpu_time and the minimum real_time over its iteration rows (the least
disturbed pass; iterations and user counters come from the fastest-cpu
row). The repetition count is stamped in the context as "repetitions".

--only REGEX re-records just the benchmarks whose name matches (run
bench_micro with the same --benchmark_filter) and carries every other
row over from --previous unchanged, previous context included. The
re-recorded rows then stamp the run's num_cpus and repetitions on
themselves, since the file context still describes the carried-over rows.

Usage:
  merge_bench_json.py T1_JSON [--t8 T8_JSON] [--previous OLD]
                      [--only REGEX] -o OUT
"""

import argparse
import json
import re
import sys

# Twin suffix -> output field: BM_Foo<Tag> entries annotate BM_Foo with
# twin_cpu / current_cpu (see the twin-ratio block below).
TWINS = [
    ("FaultFree", "vs_faultfree_speedup"),
    ("OnBusyTimeline", "vs_busytimeline_speedup"),
]


# Fields google-benchmark writes for every run; any other numeric field
# of a run is a user counter.
GBENCH_FIELDS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "label", "items_per_second",
    "bytes_per_second", "error_occurred", "error_message",
    "aggregate_name", "aggregate_unit",
}


def load(path):
    with open(path) as f:
        return json.load(f)


def fold_repetitions(benchmarks):
    """One row per run_name: the minimum cpu_time/real_time over its
    iteration rows (aggregate rows skipped), in first-seen order."""
    folded = {}
    for bench in benchmarks:
        if bench.get("run_type", "iteration") != "iteration":
            continue
        name = bench.get("run_name", bench["name"])
        best = folded.get(name)
        if best is None:
            folded[name] = dict(bench, name=name)
            continue
        real_time = min(best["real_time"], bench["real_time"])
        if bench["cpu_time"] < best["cpu_time"]:
            best = folded[name] = dict(bench, name=name)
        best["real_time"] = real_time
    return list(folded.values())


def repetitions_of(benchmarks):
    return max((b.get("repetitions", 1) for b in benchmarks), default=1)


def by_name(benchmarks):
    return {b["name"]: b for b in benchmarks}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("t1_json", help="google-benchmark JSON at LAPS_THREADS=1")
    parser.add_argument("--t8", help="google-benchmark JSON at LAPS_THREADS=8")
    parser.add_argument("--previous", help="previous BENCH_micro.json to diff against")
    parser.add_argument("--only", help="re-record only names matching this regex")
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args()
    if args.only and not args.previous:
        parser.error("--only needs --previous to carry the other rows over")

    t1 = load(args.t1_json)
    repetitions = repetitions_of(t1["benchmarks"])
    t1["benchmarks"] = fold_repetitions(t1["benchmarks"])
    t8 = by_name(fold_repetitions(load(args.t8)["benchmarks"])) if args.t8 else {}
    previous = {}
    previous_file = {}
    if args.previous:
        try:
            previous_file = load(args.previous)
            previous = by_name(previous_file["benchmarks"])
        except FileNotFoundError:
            pass  # first run: no trajectory yet
    only = re.compile(args.only) if args.only else None
    if only:
        if not previous_file:
            parser.error(f"--only: no previous file at {args.previous}")
        t1["benchmarks"] = [b for b in t1["benchmarks"]
                            if only.search(b["name"])]

    out = []
    for bench in t1["benchmarks"]:
        name = bench["name"]
        entry = {
            "name": name,
            "iterations": bench["iterations"],
            "real_time_ns": round(bench["real_time"], 1),
            "cpu_time_ns": round(bench["cpu_time"], 1),
        }
        if "label" in bench:
            entry["label"] = bench["label"]
        # User counters (state.counters) are carried over verbatim: they
        # are deterministic work counts, e.g. examined_pairs.
        for key, value in bench.items():
            if key not in GBENCH_FIELDS and isinstance(value, (int, float)):
                entry[key] = value
        if name in t8:
            entry["t8_real_time_ns"] = round(t8[name]["real_time"], 1)
            entry["t8_cpu_time_ns"] = round(t8[name]["cpu_time"], 1)
            if t8[name]["real_time"] > 0:
                entry["t8_speedup"] = round(
                    bench["real_time"] / t8[name]["real_time"], 3)
        prev = previous.get(name)
        if prev and "cpu_time_ns" in prev and entry["cpu_time_ns"] > 0:
            entry["previous_cpu_time_ns"] = prev["cpu_time_ns"]
            entry["speedup_vs_previous"] = round(
                prev["cpu_time_ns"] / entry["cpu_time_ns"], 3)
        out.append(entry)

    if only:
        cpus = t1.get("context", {}).get("num_cpus")
        for entry in out:
            entry["num_cpus"] = cpus
            entry["repetitions"] = repetitions
        fresh = {e["name"]: e for e in out}
        # Carried-over rows keep their order; re-recorded ones replace
        # theirs in place, and new ones append.
        out = [fresh.pop(b["name"], b) for b in previous_file["benchmarks"]]
        out.extend(fresh.values())

    # Twin ratios: BM_Foo<Tag>/N measures a reference implementation on
    # the same instance as BM_Foo/N; the within-host cpu-time ratio
    # (reference / current) lands on the *current* entry, where the perf
    # gate picks it up via the *_speedup suffix. "FaultFree" twins guard
    # the inert fault path (ratio ~ 1 — the zero-rate engine must stay
    # within noise of the fault-free one, docs §13); "OnBusyTimeline"
    # twins replay a link stream on the interval calendar (docs §7).
    entries = {e["name"]: e for e in out}
    for tag, field in TWINS:
        for twin_name, twin in entries.items():
            if tag not in twin_name:
                continue
            current = entries.get(twin_name.replace(tag, "", 1))
            if current is None or current["cpu_time_ns"] <= 0:
                continue
            current[field] = round(
                twin["cpu_time_ns"] / current["cpu_time_ns"], 3)

    if only:
        context = previous_file["context"]
    else:
        context = dict(t1.get("context", {}))
        context["laps_threads_baseline"] = 1
        context["repetitions"] = repetitions
        if args.t8:
            context["laps_threads_parallel"] = 8
    result = {"context": context, "benchmarks": out}
    with open(args.output, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
