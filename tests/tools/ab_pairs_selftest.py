#!/usr/bin/env python3
"""Self-test of tools/ab_pairs.py against a stub benchmark.

Builds a throwaway git repository with two commits. Each holds a
BENCHMARK.json with two end-to-end metrics and a stub perfbench/run.py
that prints the context and result lines of the real one: its wall_s
comes from the commit's speed.txt plus a per-call wobble, and it logs
every call (tree, build directory, arguments). The first commit is
twice as slow as the second. Checks that both sides ran from their own
exported trees and build directories, in alternating order, with the
requested flags; that the table reports the right medians, quartiles,
wins and num_cpus; that several workloads share one pair of builds;
that WORKTREE exports uncommitted files; and that a run reporting
"correct": false makes the script fail.

Usage: ab_pairs_selftest.py
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCRIPT = HERE.parent.parent / "tools" / "ab_pairs.py"

BENCHMARK = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "goodput_permille", "unit": "permille", "better": "higher",
         "bound": 0.05},
    ]
}

STUB = r'''
import argparse, json, os, sys
from pathlib import Path
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
tree = Path.cwd()
log = Path(os.environ["AB_STUB_LOG"])
calls = log.read_text().count("\n") if log.exists() else 0
speed = float((tree / "speed.txt").read_text())
with open(log, "a") as f:
    f.write(json.dumps({"tree": str(tree), "speed": speed,
                        "build": os.environ.get("CARGO_TARGET_DIR"),
                        "args": vars(args)}) + "\n")
correct = (tree / "broken.txt").exists() is False
print(json.dumps({"context": {"num_cpus": 3}}))
print(json.dumps({"correct": correct, "attempted": 5, "failed": 0, "metrics": {
    "wall_s": {"value": speed + 0.001 * (calls % 4), "unit": "s"},
    "goodput_permille": {"value": 1000, "unit": "permille"}}}))
'''


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), *args], check=True,
                   capture_output=True)


def commit(repo, speed, message, broken=False):
    (repo / "speed.txt").write_text(f"{speed}\n")
    if broken:
        (repo / "broken.txt").write_text("1\n")
    git(repo, "add", "-A")
    git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q",
        "-m", message)
    out = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                         check=True, capture_output=True, text=True)
    return out.stdout.strip()


def run(repo, parent, change, log, pairs=4, workloads=("w1",)):
    env = dict(os.environ, AB_STUB_LOG=str(log),
               TMPDIR=str(repo.parent))
    flags = [f for w in workloads for f in ("--workload", w)]
    return subprocess.run(
        [sys.executable, str(SCRIPT), parent, change, *flags,
         "--seed", "7", "--pairs", str(pairs), "--seconds", "0.5",
         "--repo", str(repo), "--json", str(repo.parent / "out.json")],
        env=env, capture_output=True, text=True)


def expect(condition, message, failures):
    if not condition:
        failures.append(message)


def main():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        repo = Path(tmp) / "repo"
        (repo / "perfbench").mkdir(parents=True)
        git(repo, "init", "-q")
        (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
        (repo / "perfbench" / "run.py").write_text(STUB)
        slow = commit(repo, 0.2, "slow")
        fast = commit(repo, 0.1, "fast")

        log = Path(tmp) / "calls.log"
        proc = run(repo, slow, fast, log)
        expect(proc.returncode == 0,
               f"ab_pairs exited {proc.returncode}: {proc.stderr}", failures)
        calls = [json.loads(line) for line in log.read_text().splitlines()]
        expect(len(calls) == 8, f"expected 8 runs, got {len(calls)}", failures)
        speeds = [c["speed"] for c in calls]
        expect(speeds == [0.2, 0.1, 0.1, 0.2, 0.2, 0.1, 0.1, 0.2],
               f"runs not in alternating order: {speeds}", failures)
        trees = {s: {c["tree"] for c, v in zip(calls, speeds) if v == s}
                 for s in (0.2, 0.1)}
        builds = {s: {c["build"] for c, v in zip(calls, speeds) if v == s}
                  for s in (0.2, 0.1)}
        expect(all(len(t) == 1 for t in trees.values()) and
               trees[0.2] != trees[0.1],
               f"each side must run in one tree of its own: {trees}", failures)
        expect(all(len(b) == 1 for b in builds.values()) and
               builds[0.2] != builds[0.1],
               f"each side must build in its own directory: {builds}",
               failures)
        expect(all(not str(t).startswith(str(repo))
                   for s in trees.values() for t in s),
               "a side ran inside the repository itself", failures)
        expect(all(c["args"] == {"workload": "w1", "seed": "7",
                                 "seconds": "0.5", "trace": "0"}
                   for c in calls),
               f"unexpected arguments: {[c['args'] for c in calls]}", failures)

        out = proc.stdout
        expect("num_cpus 3" in out, f"num_cpus missing:\n{out}", failures)
        expect("| wall_s |" in out and "| 4/4 |" in out,
               f"wall_s row should show 4/4 change wins:\n{out}", failures)
        expect("| goodput_permille |" in out and "| 0/4 |" in out,
               f"ties must not count as wins:\n{out}", failures)
        table = json.loads((Path(tmp) / "out.json").read_text())[0]
        wall = next(r for r in table["rows"] if r["metric"] == "wall_s")
        # Wobble per call index: parent gets calls 0, 3, 4, 7 (+0, 3, 0,
        # 3 ms), the change calls 1, 2, 5, 6 (+1, 2, 1, 2 ms).
        expect(abs(wall["parent"]["median"] - 0.2015) < 1e-9 and
               abs(wall["change"]["median"] - 0.1015) < 1e-9,
               f"medians wrong: {wall}", failures)
        expect(abs(wall["parent"]["q1"] - 0.2) < 1e-9 and
               abs(wall["parent"]["q3"] - 0.203) < 1e-9,
               f"parent quartiles wrong: {wall['parent']}", failures)
        expect(abs(wall["ratio"] - 0.1015 / 0.2015) < 1e-9,
               f"ratio wrong: {wall['ratio']}", failures)

        # Several workloads share one pair of builds, one after another.
        log.unlink()
        proc = run(repo, slow, fast, log, pairs=1, workloads=("w1", "w2"))
        calls = [json.loads(line) for line in log.read_text().splitlines()]
        expect(proc.returncode == 0 and
               [c["args"]["workload"] for c in calls] ==
               ["w1", "w1", "w2", "w2"] and
               len({c["build"] for c in calls}) == 2,
               f"two workloads: {[c['args'] for c in calls]} {proc.stderr}",
               failures)
        expect("workload w1," in proc.stdout and "workload w2," in proc.stdout,
               f"one table per workload:\n{proc.stdout}", failures)

        # WORKTREE: the uncommitted working tree is the change side.
        (repo / "speed.txt").write_text("0.05\n")
        log.unlink()
        proc = run(repo, fast, "WORKTREE", log, pairs=1)
        speeds = [json.loads(line)["speed"]
                  for line in log.read_text().splitlines()]
        expect(proc.returncode == 0 and speeds == [0.1, 0.05],
               f"WORKTREE must export the working tree: {speeds} "
               f"{proc.stderr}", failures)

        broken = commit(repo, 0.1, "broken", broken=True)
        log.unlink()
        proc = run(repo, fast, broken, log, pairs=1)
        expect(proc.returncode != 0 and "correct=False" in proc.stderr,
               f"a failed run must fail the script: {proc.returncode} "
               f"{proc.stderr}", failures)

    for message in failures:
        print(f"FAIL: {message}")
    if failures:
        sys.exit(1)
    print("ab_pairs self-test passed")


if __name__ == "__main__":
    main()
