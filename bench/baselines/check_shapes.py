#!/usr/bin/env python3
"""Paper-shape and regression checker for the lapsched bench CSVs.

Consumes the CSV output of ``bench_fig6_isolated --csv``,
``bench_fig7_concurrent --csv`` or ``bench_ablation --csv`` (any CSV
whose first column is the group key) and verifies:

 1. Paper shapes, per group, when a ``scheduler`` column is present
    (paper section 4, Figs. 6-7):
      * LS never has more data-cache misses than RS (within --tol),
      * LSM never has more data-cache misses than LS (within --tol);
    and strictly in aggregate over all groups:
      * sum(LS misses) <= sum(RS misses),
      * sum(LSM misses) <= sum(LS misses).
    The per-row tolerance absorbs the small non-monotonicities the
    synthetic workloads show at individual |T| points; the aggregate
    check has none. CSVs without a scheduler column (e.g.
    ``bench_tables --csv``) skip the shape checks and are baselined
    only.

 2. With --lsm-gap-monotone (the contention sweep): grouping rows by
    (l2_kb, bus_width) and ordering by |T|, LSM's relative miss margin
    over LS — (LS - LSM) / LS — must never shrink by more than
    --gap-tol as |T| grows: contention is supposed to make the
    re-layout matter *more*, not less.

 3. With --percentile-monotone (any CSV carrying sojourn percentile
    columns): sojourn_p50 <= sojourn_p95 <= sojourn_p99 on every row —
    the order-statistics sanity of the exact percentile accounting.

 4. With --saturation-shapes (the bench_saturation sweep): per arrival
    level,
      * under AdmitAll the best locality-aware policy (DLS/CALS/OLS)
        has p95 sojourn no worse than the best locality-blind baseline
        (RS/RRS) — locality-awareness shortens effective service time,
        so the knee sits at a higher arrival rate;
      * for every (arrival, scheduler) pair, p99 under SloShed never
        exceeds p99 under AdmitAll (equal while the SLO is loose);
    and at the knee (some arrival level), every scheduler sheds under
    SloShed, and at the heaviest level every scheduler sheds under
    QueueCap.

 5. With --fault-shapes (the bench_faults sweep): per scheduler, goodput
    at the moderate fault level with retries on recovers to at least
    --goodput-frac of the fault-free count; on every faulty retry-on
    level the best locality-aware p95 stays no worse than the best
    locality-blind p95; and every row conserves departures
    (processes == completed + rejected + retired + failed).

 6. Drift against a committed baseline CSV (--baseline): every row must
    exist in both files, integer columns must match exactly (the
    simulator is deterministic), and float columns within a relative
    1e-9. With --columns only the named columns are compared, so a
    table can grow new columns without invalidating its baseline
    (incremental baselining).

Exits non-zero, listing every violation, if any check fails. To refresh
the baselines after an intentional behavior change:

    build/bench_fig6_isolated --csv > bench/baselines/fig6.csv
    build/bench_fig7_concurrent --csv > bench/baselines/fig7.csv
    build/bench_ablation --csv > bench/baselines/ablation_contention.csv
    build/bench_tables --csv > bench/baselines/tables.csv
    build/bench_open_workload --csv > bench/baselines/open_workload.csv
    build/bench_saturation --csv > bench/baselines/saturation.csv
    build/bench_policy_overhead --csv > bench/baselines/policy_overhead.csv
    build/bench_faults --csv > bench/baselines/faults.csv

The policy_overhead baseline is compared on its deterministic columns
only (--columns t,scheduler,cores,window,events,decisions,checksum);
the timing columns are machine-dependent and gated by the relative
--decision-throughput shape instead.
"""

import argparse
import csv
import sys


def read_rows(path):
    if path == "-":
        reader = csv.DictReader(sys.stdin)
        rows = list(reader)
        return reader.fieldnames, rows
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
        return reader.fieldnames, rows


def parse_cell(text):
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def check_shapes(header, rows, tol):
    errors = []
    group_key = header[0]
    groups = {}
    for row in rows:
        groups.setdefault(row[group_key], {})[row["scheduler"]] = row
    totals = {}
    for group, by_sched in groups.items():
        missing = {"RS", "LS", "LSM"} - set(by_sched)
        if missing:
            errors.append(f"group {group}: missing schedulers {sorted(missing)}")
            continue
        misses = {s: int(by_sched[s]["dcache_misses"]) for s in by_sched}
        for sched, count in misses.items():
            totals[sched] = totals.get(sched, 0) + count
        for better, worse in (("LS", "RS"), ("LSM", "LS")):
            if misses[better] > misses[worse] * (1.0 + tol):
                errors.append(
                    f"group {group}: {better} misses ({misses[better]}) exceed "
                    f"{worse} misses ({misses[worse]}) beyond {tol:.0%} tolerance"
                )
    for better, worse in (("LS", "RS"), ("LSM", "LS")):
        if better in totals and totals[better] > totals[worse]:
            errors.append(
                f"aggregate: total {better} misses ({totals[better]}) exceed "
                f"total {worse} misses ({totals[worse]})"
            )
    return errors


def check_lsm_gap_monotone(header, rows, gap_tol):
    """LSM's relative miss margin over LS must not shrink as |T| grows,
    per (l2_kb, bus_width) platform configuration."""
    needed = {"l2_kb", "bus_width", "t", "scheduler", "dcache_misses"}
    missing = needed - set(header)
    if missing:
        return [
            f"--lsm-gap-monotone: input lacks columns {sorted(missing)}"
        ]
    errors = []
    platforms = {}
    for row in rows:
        if row["scheduler"] not in ("LS", "LSM"):
            continue
        key = (row["l2_kb"], row["bus_width"])
        platforms.setdefault(key, {}).setdefault(int(row["t"]), {})[
            row["scheduler"]
        ] = int(row["dcache_misses"])
    for (l2, bus), by_t in sorted(platforms.items()):
        prev_t, prev_gap = None, None
        for t in sorted(by_t):
            point = by_t[t]
            if "LS" not in point or "LSM" not in point or point["LS"] == 0:
                errors.append(
                    f"platform l2={l2} bus={bus} t={t}: LS/LSM rows incomplete"
                )
                continue
            gap = (point["LS"] - point["LSM"]) / point["LS"]
            if prev_gap is not None and gap < prev_gap - gap_tol:
                errors.append(
                    f"platform l2={l2} bus={bus}: LSM-vs-LS miss gap shrank "
                    f"from {prev_gap:.1%} (t={prev_t}) to {gap:.1%} (t={t}) "
                    f"beyond {gap_tol:.1%} tolerance"
                )
            prev_t, prev_gap = t, gap
    return errors


def check_percentile_monotone(header, rows):
    """sojourn_p50 <= sojourn_p95 <= sojourn_p99 on every row."""
    needed = {"sojourn_p50", "sojourn_p95", "sojourn_p99"}
    missing = needed - set(header)
    if missing:
        return [f"--percentile-monotone: input lacks columns {sorted(missing)}"]
    errors = []
    key_cols = [header[0]] + (["scheduler"] if "scheduler" in header else [])
    for row in rows:
        p50, p95, p99 = (
            int(row["sojourn_p50"]),
            int(row["sojourn_p95"]),
            int(row["sojourn_p99"]),
        )
        if not p50 <= p95 <= p99:
            key = tuple(row[c] for c in key_cols)
            errors.append(
                f"row {key}: percentiles not monotone "
                f"(p50={p50}, p95={p95}, p99={p99})"
            )
    return errors


LOCALITY_AWARE = {"DLS", "CALS", "OLS"}
LOCALITY_BLIND = {"RS", "RRS"}


def check_saturation_shapes(header, rows):
    """Knee ordering and admission-control shapes of bench_saturation."""
    needed = {
        "scheduler",
        "admission",
        "arrival_cyc",
        "rejected",
        "sojourn_p95",
        "sojourn_p99",
    }
    missing = needed - set(header)
    if missing:
        return [f"--saturation-shapes: input lacks columns {sorted(missing)}"]
    errors = []
    # levels[arrival][admission][scheduler] = row
    levels = {}
    for row in rows:
        levels.setdefault(int(row["arrival_cyc"]), {}).setdefault(
            row["admission"], {}
        )[row["scheduler"]] = row
    schedulers = sorted({row["scheduler"] for row in rows})
    slo_knee_levels = 0
    for arrival in sorted(levels):
        by_admission = levels[arrival]
        admit_all = by_admission.get("AdmitAll", {})
        aware = [
            int(r["sojourn_p95"])
            for s, r in admit_all.items()
            if s in LOCALITY_AWARE
        ]
        blind = [
            int(r["sojourn_p95"])
            for s, r in admit_all.items()
            if s in LOCALITY_BLIND
        ]
        if not aware or not blind:
            errors.append(
                f"arrival {arrival}: AdmitAll rows lack a locality-aware or "
                f"locality-blind scheduler"
            )
        elif min(aware) > min(blind):
            errors.append(
                f"arrival {arrival}: best locality-aware p95 ({min(aware)}) "
                f"worse than best locality-blind p95 ({min(blind)})"
            )
        slo = by_admission.get("SloShed", {})
        for sched, row in slo.items():
            if sched not in admit_all:
                errors.append(
                    f"arrival {arrival}: {sched} has a SloShed row but no "
                    f"AdmitAll row"
                )
                continue
            p99_slo = int(row["sojourn_p99"])
            p99_all = int(admit_all[sched]["sojourn_p99"])
            if p99_slo > p99_all:
                errors.append(
                    f"arrival {arrival}, {sched}: SloShed p99 ({p99_slo}) "
                    f"exceeds AdmitAll p99 ({p99_all})"
                )
        if slo and all(int(r["rejected"]) > 0 for r in slo.values()):
            slo_knee_levels += 1
    if slo_knee_levels == 0:
        errors.append(
            "no arrival level where every scheduler sheds under SloShed "
            "(the sweep never crosses the SLO knee)"
        )
    heaviest = levels.get(min(levels), {}).get("QueueCap", {})
    for sched in schedulers:
        if sched not in heaviest or int(heaviest[sched]["rejected"]) == 0:
            errors.append(
                f"heaviest arrival level: {sched} sheds nothing under "
                f"QueueCap (the sweep never saturates the waiting room)"
            )
    return errors


def check_fault_shapes(header, rows, goodput_frac):
    """bench_faults shapes: retries recover goodput, the locality edge
    survives faults, and departures are conserved.

     * per scheduler, completed at (fault=moderate, retry=on) must be at
       least --goodput-frac of completed at fault=none;
     * per faulty retry-on fault level, the best locality-aware p95
       (DLS/CALS/OLS) must not exceed the best locality-blind p95
       (RS/RRS);
     * on every row, processes == completed + rejected + retired +
       failed (the engine's departure-conservation audit, visible in
       the CSV)."""
    needed = {
        "scheduler",
        "fault",
        "retry",
        "processes",
        "completed",
        "rejected",
        "retired",
        "failed",
        "sojourn_p95",
    }
    missing = needed - set(header)
    if missing:
        return [f"--fault-shapes: input lacks columns {sorted(missing)}"]
    errors = []
    # arms[(fault, retry)][scheduler] = row
    arms = {}
    for row in rows:
        n = int(row["processes"])
        accounted = (
            int(row["completed"])
            + int(row["rejected"])
            + int(row["retired"])
            + int(row["failed"])
        )
        if accounted != n:
            errors.append(
                f"row ({row['fault']}, retry={row['retry']}, "
                f"{row['scheduler']}): departures not conserved "
                f"({accounted} accounted of {n} processes)"
            )
        arms.setdefault((row["fault"], row["retry"]), {})[
            row["scheduler"]
        ] = row
    fault_free = next(
        (by_sched for (fault, _), by_sched in arms.items() if fault == "none"),
        {},
    )
    recovered = arms.get(("moderate", "on"), {})
    for sched, row in sorted(fault_free.items()):
        if sched not in recovered:
            errors.append(
                f"{sched}: fault-free row has no (moderate, retry=on) row"
            )
            continue
        base = int(row["completed"])
        got = int(recovered[sched]["completed"])
        if got < goodput_frac * base:
            errors.append(
                f"{sched}: goodput with retries at moderate faults ({got}) "
                f"below {goodput_frac:.0%} of fault-free ({base})"
            )
    for (fault, retry), by_sched in sorted(arms.items()):
        if fault == "none" or retry != "on":
            continue
        aware = [
            int(r["sojourn_p95"])
            for s, r in by_sched.items()
            if s in LOCALITY_AWARE
        ]
        blind = [
            int(r["sojourn_p95"])
            for s, r in by_sched.items()
            if s in LOCALITY_BLIND
        ]
        if not aware or not blind:
            errors.append(
                f"fault level {fault}: retry-on rows lack a locality-aware "
                f"or locality-blind scheduler"
            )
        elif min(aware) > min(blind):
            errors.append(
                f"fault level {fault}: best locality-aware p95 "
                f"({min(aware)}) worse than best locality-blind p95 "
                f"({min(blind)}) under faults"
            )
    return errors


def check_noc_shapes(header, rows):
    """bench_noc shapes: the hop-weighted scheduler earns its keep on
    the largest mesh.

     * every case carries one OLS (distance-blind) and one OLS-NOC
       (hop-weighted) row;
     * every row routes real NoC traffic (noc_transfers > 0) and
       completes its whole cohort (completed == processes);
     * on the largest cores value, per case: OLS-NOC sojourn_p95 and
       total migration penalty are both no worse than OLS, and at least
       one such case shows a strict penalty win — the distance term
       must actually remove migration churn somewhere, not just
       coincide with the blind policy everywhere.
    """
    needed = {
        "case",
        "scheduler",
        "cores",
        "processes",
        "completed",
        "noc_transfers",
        "noc_migration_penalty_cycles",
        "sojourn_p95",
    }
    missing = needed - set(header)
    if missing:
        return [f"--noc-shapes: input lacks columns {sorted(missing)}"]
    errors = []
    cases = {}
    for row in rows:
        if int(row["noc_transfers"]) <= 0:
            errors.append(
                f"row ({row['case']}, {row['scheduler']}): no NoC traffic "
                f"routed (noc_transfers == 0)"
            )
        if row["completed"] != row["processes"]:
            errors.append(
                f"row ({row['case']}, {row['scheduler']}): cohort not "
                f"conserved ({row['completed']} completed of "
                f"{row['processes']})"
            )
        cases.setdefault(row["case"], {})[row["scheduler"]] = row
    for case, by_sched in sorted(cases.items()):
        if set(by_sched) != {"OLS", "OLS-NOC"}:
            errors.append(
                f"case {case}: expected one OLS and one OLS-NOC row, got "
                f"{sorted(by_sched)}"
            )
    if errors:
        return errors
    largest = max(int(row["cores"]) for row in rows)
    strict_penalty_win = False
    for case, by_sched in sorted(cases.items()):
        if int(by_sched["OLS"]["cores"]) != largest:
            continue
        blind_p95 = int(by_sched["OLS"]["sojourn_p95"])
        aware_p95 = int(by_sched["OLS-NOC"]["sojourn_p95"])
        if aware_p95 > blind_p95:
            errors.append(
                f"case {case}: OLS-NOC p95 ({aware_p95}) worse than "
                f"distance-blind OLS ({blind_p95}) on the largest mesh"
            )
        blind_pen = int(by_sched["OLS"]["noc_migration_penalty_cycles"])
        aware_pen = int(by_sched["OLS-NOC"]["noc_migration_penalty_cycles"])
        if aware_pen > blind_pen:
            errors.append(
                f"case {case}: OLS-NOC migration penalty ({aware_pen}) "
                f"exceeds distance-blind OLS ({blind_pen}) on the largest "
                f"mesh"
            )
        elif aware_pen < blind_pen:
            strict_penalty_win = True
    if not strict_penalty_win:
        errors.append(
            f"no largest-mesh ({largest} cores) case where OLS-NOC strictly "
            f"cuts the migration penalty (the distance term never earned "
            f"its keep)"
        )
    return errors


def check_decision_throughput(header, rows, max_scaling):
    """bench_policy_overhead shapes: OLS-idx runs at every |T|, and its
    ns/event at the largest |T| is at most --max-scaling times its
    ns/event at |T| = 1000. Decision identity is the baseline diff's job
    (the checksum column); this gate catches a fall back to super-linear
    per-event cost."""
    needed = {"t", "scheduler", "ns_per_event"}
    missing = needed - set(header)
    if missing:
        return [
            f"--decision-throughput: input lacks columns {sorted(missing)}"
        ]
    errors = []
    ns_per_event = {}
    for row in rows:
        if row["scheduler"] == "OLS-idx":
            ns_per_event[int(row["t"])] = int(row["ns_per_event"])
    for t in sorted({int(row["t"]) for row in rows}):
        if t not in ns_per_event:
            errors.append(f"t={t}: missing an OLS-idx row")
    if 1000 not in ns_per_event:
        errors.append("no OLS-idx row at t=1000 to scale against")
        return errors
    t_max = max(ns_per_event)
    base, top = ns_per_event[1000], ns_per_event[t_max]
    if base <= 0 or top > max_scaling * base:
        errors.append(
            f"t={t_max}: OLS-idx ns/event ({top}) is not <= {max_scaling}x "
            f"its value at t=1000 ({base})"
        )
    return errors


def check_baseline(header, rows, baseline_path, columns):
    errors = []
    base_header, base_rows = read_rows(baseline_path)
    if columns:
        missing = [c for c in columns if c not in header]
        missing += [c for c in columns if c not in base_header]
        if missing:
            return [
                f"baseline {baseline_path}: requested columns missing "
                f"from input or baseline: {sorted(set(missing))}"
            ]
        compared = columns
    else:
        if base_header != header:
            return [
                f"baseline {baseline_path}: header differs "
                f"({base_header} vs {header}); use --columns to compare "
                f"a subset"
            ]
        compared = header
    key_cols = [header[0]] + (["scheduler"] if "scheduler" in header else [])
    missing_keys = [c for c in key_cols if c not in (base_header or [])]
    if missing_keys:
        return [
            f"baseline {baseline_path}: key column(s) {missing_keys} absent "
            f"from baseline header {base_header}; regenerate the baseline"
        ]

    def key(row):
        return tuple(row[c] for c in key_cols)

    current = {key(r): r for r in rows}
    baseline = {key(r): r for r in base_rows}
    for k in sorted(set(current) | set(baseline)):
        if k not in current:
            errors.append(f"row {k}: present in baseline only")
            continue
        if k not in baseline:
            errors.append(f"row {k}: not in baseline (new row)")
            continue
        for col in compared:
            have = parse_cell(current[k][col])
            want = parse_cell(baseline[k][col])
            if isinstance(want, float) or isinstance(have, float):
                scale = max(abs(float(want)), abs(float(have)), 1e-300)
                ok = abs(float(have) - float(want)) <= 1e-9 * scale
            else:
                ok = have == want
            if not ok:
                errors.append(f"row {k}, column {col}: {have} != baseline {want}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("csv", help="bench CSV output ('-' for stdin)")
    parser.add_argument("--baseline", help="committed baseline CSV to diff against")
    parser.add_argument(
        "--columns",
        help="comma-separated column subset for the baseline comparison "
        "(default: all columns, headers must match exactly)",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=0.05,
        help="per-group relative tolerance for the shape checks (default 0.05)",
    )
    parser.add_argument(
        "--no-shapes",
        action="store_true",
        help="skip the paper-shape orderings even when a scheduler column "
        "is present (e.g. bench_open_workload, whose scheduler set has no "
        "LS/LSM); the scheduler column still keys the baseline diff",
    )
    parser.add_argument(
        "--lsm-gap-monotone",
        action="store_true",
        help="require a non-shrinking LSM-vs-LS miss gap as |T| grows, "
        "per (l2_kb, bus_width) platform",
    )
    parser.add_argument(
        "--gap-tol",
        type=float,
        default=0.02,
        help="absolute gap shrink tolerated by --lsm-gap-monotone "
        "(default 0.02 = 2 points)",
    )
    parser.add_argument(
        "--percentile-monotone",
        action="store_true",
        help="require sojourn_p50 <= sojourn_p95 <= sojourn_p99 per row",
    )
    parser.add_argument(
        "--saturation-shapes",
        action="store_true",
        help="check the bench_saturation knee ordering and "
        "admission-control shapes",
    )
    parser.add_argument(
        "--fault-shapes",
        action="store_true",
        help="check the bench_faults shapes: retry goodput recovery, "
        "the locality p95 edge under faults, departure conservation",
    )
    parser.add_argument(
        "--goodput-frac",
        type=float,
        default=0.9,
        help="fraction of fault-free goodput --fault-shapes requires of "
        "the (moderate, retry=on) arm (default 0.9)",
    )
    parser.add_argument(
        "--noc-shapes",
        action="store_true",
        help="check the bench_noc shapes: cohort conservation, real NoC "
        "traffic per row, and the hop-weighted scheduler's p95/migration-"
        "penalty edge on the largest mesh",
    )
    parser.add_argument(
        "--decision-throughput",
        action="store_true",
        help="check the bench_policy_overhead shapes: an OLS-idx row at "
        "every |T|, and OLS-idx ns/event at the largest |T| within "
        "--max-scaling of its value at |T| = 1000",
    )
    parser.add_argument(
        "--max-scaling",
        type=float,
        default=2.0,
        help="largest-|T| over |T|=1000 ns/event factor "
        "--decision-throughput allows OLS-idx (default 2.0)",
    )
    args = parser.parse_args()

    header, rows = read_rows(args.csv)
    if not header:
        print("check_shapes: input has no header", file=sys.stderr)
        return 2
    errors = []
    checks = []
    if "scheduler" in header and not args.no_shapes:
        errors += check_shapes(header, rows, args.tol)
        checks.append("paper shapes hold")
    else:
        checks.append("shape checks skipped")
    if args.lsm_gap_monotone:
        errors += check_lsm_gap_monotone(header, rows, args.gap_tol)
        checks.append("LSM gap monotone")
    if args.percentile_monotone:
        errors += check_percentile_monotone(header, rows)
        checks.append("percentiles monotone")
    if args.saturation_shapes:
        errors += check_saturation_shapes(header, rows)
        checks.append("saturation shapes hold")
    if args.fault_shapes:
        errors += check_fault_shapes(header, rows, args.goodput_frac)
        checks.append("fault shapes hold")
    if args.noc_shapes:
        errors += check_noc_shapes(header, rows)
        checks.append("NoC shapes hold")
    if args.decision_throughput:
        errors += check_decision_throughput(header, rows, args.max_scaling)
        checks.append("decision throughput holds")
    if args.baseline:
        columns = args.columns.split(",") if args.columns else None
        errors += check_baseline(header, rows, args.baseline, columns)
        checks.append("no drift from baseline")
    if errors:
        print(f"check_shapes: {len(errors)} violation(s) in {args.csv}:")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"check_shapes: OK — {len(rows)} rows, " + ", ".join(checks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
