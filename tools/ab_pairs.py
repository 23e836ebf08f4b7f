#!/usr/bin/env python3
"""Alternating-pairs end-to-end comparison of two revisions.

    tools/ab_pairs.py <parent-rev> <change-rev> --workload W [--workload W2 ...]
                      [--seed S] [--pairs N] [--seconds T] [--repo PATH]
                      [--json OUT]

Exports both revisions into fresh directories under a temporary
directory (`git archive`; the revision WORKTREE stands for the working
tree's tracked and untracked, non-ignored files), so neither side reuses
a build made from other sources. Each side builds in its own build
directory: perfbench/run.py is run with CARGO_TARGET_DIR pointing there.
Then, for each workload in turn, it runs `python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0` once per side per pair, in
alternating order (parent first in even pairs, change first in odd
ones), so slow spells of a shared host hit both sides alike.

Prints, per workload and for every end-to-end metric of BENCHMARK.json:
each side's
median and q1-q3, the change/parent ratio of the medians and the pairs
the change won (strictly better by the metric's direction), plus
`num_cpus` as the benchmark reports it. Exits non-zero when a run fails
or reports `"correct": false` or failed operations.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKTREE = "WORKTREE"


def fail(message):
    print(f"ab_pairs: {message}", file=sys.stderr)
    sys.exit(1)


def git(repo, *args, **kwargs):
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, **kwargs).stdout


def export(repo, rev, dest):
    """Writes the files of \\p rev (or of the working tree) into dest;
    returns a label naming what was exported."""
    dest.mkdir(parents=True)
    if rev == WORKTREE:
        files = git(repo, "ls-files", "-z", "--cached", "--others",
                    "--exclude-standard").split(b"\0")
        for name in filter(None, files):
            source = repo / os.fsdecode(name)
            if source.is_file():
                (dest / os.fsdecode(name)).parent.mkdir(parents=True,
                                                        exist_ok=True)
                shutil.copy2(source, dest / os.fsdecode(name))
        return "working tree"
    commit = git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}",
                 text=True).strip()
    archive = subprocess.Popen(["git", "-C", str(repo), "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        fail(f"git archive {commit} failed")
    return commit


def run_once(tree, build, workload, args):
    env = dict(os.environ, CARGO_TARGET_DIR=str(build))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        fail(f"run in {tree} exited with {proc.returncode}")
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        fail(f"run in {tree} reported correct={result.get('correct')} "
             f"failed={result.get('failed')}")
    return context, {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(metrics, samples, pairs):
    rows = []
    for name, better in metrics:
        parent = [s[name] for s in samples["parent"]]
        change = [s[name] for s in samples["change"]]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(parent, change))
        ratio = cm / pm if pm else float("nan")
        rows.append({"metric": name, "better": better,
                     "parent": {"median": pm, "q1": p1, "q3": p3},
                     "change": {"median": cm, "q1": c1, "q3": c3},
                     "ratio": ratio, "change_wins": wins, "pairs": pairs})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("change_rev")
    parser.add_argument("--workload", required=True, action="append",
                        help="repeat to compare several workloads on one "
                             "pair of builds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--repo", default=None,
                        help="git repository (default: the one holding "
                             "this script)")
    parser.add_argument("--json", default=None,
                        help="also write the table and raw samples here")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        fail("--pairs must be >= 1 and --seconds > 0")

    repo = Path(args.repo or Path(__file__).resolve().parent).resolve()
    repo = Path(git(repo, "rev-parse", "--show-toplevel", text=True).strip())

    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        sides = {}
        for side, rev in (("parent", args.parent_rev),
                          ("change", args.change_rev)):
            tree = Path(tmp) / side / "src"
            label = export(repo, rev, tree)
            sides[side] = (tree, Path(tmp) / side / "build", label)
        spec = json.loads((sides["change"][0] / "BENCHMARK.json").read_text())
        metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]

        results = []
        for workload in args.workload:
            samples = {"parent": [], "change": []}
            cpus = set()
            for i in range(args.pairs):
                order = (("parent", "change") if i % 2 == 0
                         else ("change", "parent"))
                for side in order:
                    tree, build, _ = sides[side]
                    context, values = run_once(tree, build, workload, args)
                    cpus.add(context.get("num_cpus", os.cpu_count()))
                    samples[side].append(values)
                print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                    f"{side} wall_s {samples[side][-1].get('wall_s', 0):.4f}"
                    for side in ("parent", "change")), file=sys.stderr)

            rows = report(metrics, samples, args.pairs)
            num_cpus = ",".join(str(c) for c in sorted(cpus, key=str))
            print(f"workload {workload}, seed {args.seed}, {args.pairs} "
                  f"alternating pairs of {args.seconds:g} s, "
                  f"num_cpus {num_cpus}")
            print(f"parent: {args.parent_rev} ({sides['parent'][2]})")
            print(f"change: {args.change_rev} ({sides['change'][2]})")
            print("| metric | parent median [q1-q3] | change median [q1-q3] "
                  "| change/parent | change wins |")
            print("|---|---|---|---|---|")
            for r in rows:
                p, c = r["parent"], r["change"]
                print(f"| {r['metric']} | {p['median']:.6g} [{p['q1']:.6g}-"
                      f"{p['q3']:.6g}] | {c['median']:.6g} [{c['q1']:.6g}-"
                      f"{c['q3']:.6g}] | {r['ratio']:.4f} | "
                      f"{r['change_wins']}/{r['pairs']} |")
            print(flush=True)
            results.append({"workload": workload, "seed": args.seed,
                            "seconds": args.seconds,
                            "num_cpus": sorted(cpus, key=str),
                            "parent": args.parent_rev,
                            "change": args.change_rev,
                            "rows": rows, "samples": samples})
        if args.json:
            Path(args.json).write_text(json.dumps(results, indent=1) + "\n")


if __name__ == "__main__":
    main()
