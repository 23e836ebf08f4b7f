#!/usr/bin/env python3
"""Self-test for tools/determinism_lint.py.

Proves every rule is live (fires on a dedicated bad fixture), that the
comment/string stripper does not produce false positives, that the
suppression machinery accepts justified LINT-ALLOWs while reporting
stale or unjustified ones, and that a whole-root scan reports a policy
exemption that excuses nothing. Run via CTest (lint_selftest) or directly:

    python3 tests/tools/lint_selftest.py
"""

from __future__ import annotations

import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
LINT = REPO / "tools" / "determinism_lint.py"
FIXTURES = HERE / "fixtures"

# fixture -> (expected exit code, {rule: minimum finding count})
EXPECTATIONS = {
    "bad_no_float.cpp": (1, {"no-float": 2}),
    "bad_unordered.cpp": (1, {"unordered-container": 2}),
    "bad_wall_clock.cpp": (1, {"wall-clock": 1}),
    "bad_ambient_random.cpp": (1, {"ambient-random": 3}),
    "bad_pointer_keyed.cpp": (1, {"pointer-keyed": 3}),
    "bad_raw_thread.cpp": (1, {"raw-thread": 1}),
    "clean.cpp": (0, {}),
    "suppressed.cpp": (0, {}),
    "stale_suppression.cpp": (1, {"stale-suppression": 1}),
    # The malformed annotation is reported AND the underlying finding
    # still fires — an unjustified suppression suppresses nothing.
    "unjustified_suppression.cpp": (1, {"bad-suppression": 1, "no-float": 1}),
}

FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[a-z-]+)\]")


def run_lint(*args: str) -> tuple[int, dict[str, int], str]:
    proc = subprocess.run(
        [sys.executable, str(LINT), "--engine", "token", *args],
        capture_output=True, text=True, check=False)
    counts: dict[str, int] = {}
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            counts[m.group("rule")] = counts.get(m.group("rule"), 0) + 1
    return proc.returncode, counts, proc.stdout


def check_stale_exemption(failures: list[str]) -> None:
    """A whole-root scan under the fixture policy reports exactly the
    exemption that excused nothing ('model'); the one that excused a
    finding ('report') stays silent. Linting one file is no whole-root
    scan, so it reports no exemption."""
    tree = FIXTURES / "exempt_tree"
    policy = str(tree / "policy.toml")
    rc, counts, out = run_lint("--policy", policy, "--root", str(tree / "tree"))
    ok = (rc == 1 and counts == {"stale-exemption": 1}
          and "'model'" in out and "'report'" not in out)
    if not ok:
        failures.append(f"exempt_tree: rc={rc} findings={counts}: {out!r}")
    rc_one, counts_one, _ = run_lint(
        "--policy", policy, "--root", str(tree / "tree"),
        str(tree / "tree" / "report" / "format.cpp"))
    if rc_one != 0 or counts_one:
        ok = False
        failures.append(f"exempt_tree (one file): rc={rc_one} "
                        f"findings={counts_one}")
    print(f"  {'ok' if ok else 'FAIL'}  exempt_tree: rc={rc} findings={counts}")


def main() -> int:
    failures: list[str] = []
    for name, (expected_rc, expected_rules) in sorted(EXPECTATIONS.items()):
        fixture = FIXTURES / name
        if not fixture.exists():
            failures.append(f"{name}: fixture missing")
            continue
        rc, counts, _ = run_lint("--no-policy", str(fixture))
        if rc != expected_rc:
            failures.append(f"{name}: exit {rc}, expected {expected_rc} "
                            f"(findings: {counts})")
        for rule, minimum in expected_rules.items():
            if counts.get(rule, 0) < minimum:
                failures.append(f"{name}: expected >= {minimum} "
                                f"[{rule}] finding(s), got {counts.get(rule, 0)}")
        unexpected = set(counts) - set(expected_rules)
        if unexpected:
            failures.append(f"{name}: unexpected rule(s) fired: "
                            f"{sorted(unexpected)}")
        status = "FAIL" if any(f.startswith(name) for f in failures) else "ok"
        print(f"  {status}  {name}: rc={rc} findings={counts}")

    check_stale_exemption(failures)

    # --list-rules must enumerate every rule the fixtures exercise, so a
    # renamed rule cannot silently orphan its fixture.
    listed = subprocess.run(
        [sys.executable, str(LINT), "--list-rules"],
        capture_output=True, text=True, check=False).stdout
    for rule in ("no-float", "unordered-container", "wall-clock",
                 "ambient-random", "pointer-keyed", "raw-thread"):
        if f"{rule}:" not in listed:
            failures.append(f"--list-rules does not list '{rule}'")

    if failures:
        print("lint_selftest: FAILED", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"lint_selftest: all {len(EXPECTATIONS)} fixtures and the "
          "exemption tree behaved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
