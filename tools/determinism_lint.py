#!/usr/bin/env python3
"""Determinism lint: static enforcement of the determinism contract.

Every result this repository publishes rests on one invariant: identical
inputs produce bit-identical SimResults on every platform, compiler and
thread count (docs/ARCHITECTURE.md §11). This linter bans the constructs
that silently break that contract when they appear in model code:

  no-float            float / double arithmetic (rounding, FMA contraction
                      and x87 excess precision vary across toolchains)
  unordered-container std::unordered_map / std::unordered_set (iteration
                      order is implementation-defined; one refactor away
                      from feeding hash order into model state)
  wall-clock          std::chrono and friends as model inputs (time is
                      not reproducible)
  ambient-random      rand() / std::random_device / std:: engines (the
                      project's integer-only laps::Rng is the one
                      sanctioned randomness source)
  pointer-keyed       ordering or keying on pointer values (allocation
                      addresses differ run to run)
  raw-thread          std::thread / std::async outside util/parallel (the
                      deterministic pool is the one sanctioned
                      parallelism substrate)

Suppressions: a finding is allowed by a justification comment on the
same line or the immediately preceding line:

    // LINT-ALLOW(rule-name): why this use cannot break bit-identity

The justification is mandatory and must carry real content (>= 10
characters). A suppression that no longer matches any finding is itself
reported (stale-suppression) so the annotations cannot rot.

Policy: tools/lint_policy.toml exempts reporting-only layers from
specific rules, with a written reason per entry (see that file). A scan
of the whole root reports an exemption that excused no finding
(stale-exemption), so a layer that lost its hazard loses its exemption.

Engines: token-level scanning with a hand-rolled comment/string stripper
by default; when the libclang Python bindings are importable
(--engine=auto probes for them) the same rules run over libclang's
lexer tokens instead, which is immune to stripper corner cases. Both
engines see identical rule logic; CI runs whichever the runner has.

Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import re
import sys

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - python < 3.11
    tomllib = None


@dataclasses.dataclass(frozen=True)
class Rule:
    name: str
    pattern: re.Pattern
    message: str


RULES = [
    Rule(
        "no-float",
        re.compile(r"\b(?:float|double)\b"),
        "floating point in model code: rounding mode, FMA contraction and "
        "excess precision vary across toolchains and break bit-identity",
    ),
    Rule(
        "unordered-container",
        re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b"),
        "unordered container in model code: iteration order is "
        "implementation-defined; prove the use order-insensitive "
        "(lookup-only) or switch to an ordered container",
    ),
    Rule(
        "wall-clock",
        re.compile(
            r"\bstd::chrono\b|\bgettimeofday\b|\bclock_gettime\b|"
            r"\bsteady_clock\b|\bsystem_clock\b|\bhigh_resolution_clock\b|"
            r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
        ),
        "wall-clock time in model code: results must not depend on when "
        "the simulation runs",
    ),
    Rule(
        "ambient-random",
        re.compile(
            r"\bstd::random_device\b|\bstd::mt19937(?:_64)?\b|"
            r"\bstd::default_random_engine\b|\bstd::minstd_rand0?\b|"
            r"\bstd::uniform_(?:int|real)_distribution\b|"
            r"(?<![\w:])s?rand\s*\("
        ),
        "ambient randomness in model code: use the integer-only seeded "
        "laps::Rng (util/rng.h) so streams replay bit-for-bit",
    ),
    Rule(
        "pointer-keyed",
        re.compile(
            r"\bstd::(?:map|set|multimap|multiset|unordered_map|"
            r"unordered_set)<[^,>]*\*\s*[,>]|"
            r"\bstd::hash<[^>]*\*\s*>|"
            r"\breinterpret_cast<\s*(?:std::)?uintptr_t\s*>"
        ),
        "pointer-keyed ordering in model code: allocation addresses "
        "differ run to run; key on stable ids instead",
    ),
    Rule(
        "raw-thread",
        re.compile(r"\bstd::(?:thread|jthread|async)\b"),
        "raw threading outside util/parallel: the deterministic pool "
        "(util/parallel.h) is the one sanctioned parallelism substrate",
    ),
]

RULE_NAMES = {rule.name for rule in RULES}

ALLOW_RE = re.compile(r"LINT-ALLOW\(([a-z0-9-]+)\)\s*:?\s*(.*)")

MIN_JUSTIFICATION_CHARS = 10


@dataclasses.dataclass
class Suppression:
    rule: str
    line: int            # line the suppression comment sits on
    justification: str
    used: bool = False


@dataclasses.dataclass
class Finding:
    path: pathlib.Path
    line: int
    rule: str
    message: str

    def render(self, root: pathlib.Path) -> str:
        try:
            shown = self.path.relative_to(root)
        except ValueError:
            shown = self.path
        return f"{shown}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> list[str]:
    """Returns per-line code with comments, string and char literals
    blanked (newlines preserved so line numbers survive)."""
    out: list[str] = []
    i, n = 0, len(text)
    line: list[str] = []
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            out.append("".join(line))
            line = []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == "R" and nxt == '"':
                m = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
                if m:
                    state = "raw"
                    raw_delim = ")" + m.group(1) + '"'
                    i += m.end()
                    continue
            if c == '"':
                state = "string"
                i += 1
                continue
            if c == "'":
                state = "char"
                i += 1
                continue
            line.append(c)
            i += 1
            continue
        if state in ("string", "char"):
            if c == "\\":
                i += 2
                continue
            if (state == "string" and c == '"') or (state == "char" and c == "'"):
                state = "code"
            i += 1
            continue
        if state == "raw":
            if text.startswith(raw_delim, i):
                state = "code"
                i += len(raw_delim)
            else:
                i += 1
            continue
        if state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                i += 1
            continue
        if state == "line_comment":
            i += 1
            continue
    out.append("".join(line))
    return out


def code_lines_token_engine(text: str) -> list[str]:
    return strip_comments_and_strings(text)


def code_lines_libclang_engine(path: pathlib.Path, text: str) -> list[str]:
    """Reconstructs comment/literal-free per-line code from libclang's
    lexer tokens. Same downstream rule logic as the token engine."""
    import clang.cindex as ci  # noqa: PLC0415 - optional dependency

    index = ci.Index.create()
    tu = index.parse(
        str(path),
        args=["-std=c++20", "-fsyntax-only"],
        options=ci.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD,
    )
    lines = [""] * (text.count("\n") + 1)
    skip = {ci.TokenKind.COMMENT, ci.TokenKind.LITERAL}
    for token in tu.cursor.get_tokens():
        if token.kind in skip:
            continue
        row = token.location.line - 1
        if 0 <= row < len(lines):
            lines[row] += " " + token.spelling
    return lines


def collect_suppressions(raw_lines: list[str]) -> tuple[list[Suppression], list[tuple[int, str]]]:
    """Scans the *raw* source (comments included) for LINT-ALLOW
    annotations. Returns (suppressions, malformed) where malformed is a
    list of (line, problem)."""
    suppressions: list[Suppression] = []
    malformed: list[tuple[int, str]] = []
    for idx, raw in enumerate(raw_lines, start=1):
        # Only the call form counts; prose mentions of LINT-ALLOW in
        # documentation comments are not annotations.
        if "LINT-ALLOW(" not in raw:
            continue
        m = ALLOW_RE.search(raw)
        if not m:
            malformed.append(
                (idx, "malformed LINT-ALLOW (expected LINT-ALLOW(rule): why)"))
            continue
        rule, justification = m.group(1), m.group(2).strip()
        if rule not in RULE_NAMES:
            malformed.append((idx, f"LINT-ALLOW names unknown rule '{rule}'"))
            continue
        if len(justification) < MIN_JUSTIFICATION_CHARS:
            malformed.append(
                (idx,
                 f"LINT-ALLOW({rule}) carries no real justification "
                 f"(need >= {MIN_JUSTIFICATION_CHARS} characters after the colon)"))
            continue
        suppressions.append(Suppression(rule, idx, justification))
    return suppressions, malformed


@dataclasses.dataclass
class Policy:
    root: str = "src"
    source: pathlib.Path | None = None  # the policy file, for reports
    # (path-prefix, rule or '*', why, line of the entry in source)
    exemptions: list[tuple[str, str, str, int]] = dataclasses.field(
        default_factory=list)
    # indices into exemptions that excused at least one finding
    used: set[int] = dataclasses.field(default_factory=set)

    def exempt(self, rel: str, rule: str, excuses: bool = False) -> bool:
        for i, (prefix, exempt_rule, _why, _line) in enumerate(self.exemptions):
            if rel.startswith(prefix) and exempt_rule in ("*", rule):
                if excuses:
                    self.used.add(i)
                return True
        return False

    def stale_exemptions(self) -> list[Finding]:
        """Exemptions that excused no finding over a whole-root scan:
        the directory-level twin of stale-suppression."""
        return [
            Finding(self.source, line, "stale-exemption",
                    f"exemption '{prefix}' [{rule}] excuses no finding; "
                    "delete it from the policy")
            for i, (prefix, rule, _why, line) in enumerate(self.exemptions)
            if i not in self.used]


def load_policy(path: pathlib.Path) -> Policy:
    if tomllib is None:
        raise SystemExit("determinism_lint: python >= 3.11 (tomllib) required "
                         "to read the policy file")
    text = path.read_text(encoding="utf-8")
    data = tomllib.loads(text)
    policy = Policy(source=path)
    policy.root = data.get("lint", {}).get("root", "src")
    for entry in data.get("exempt", []):
        prefix = entry.get("path")
        rules = entry.get("rules", ["*"])
        why = entry.get("why", "")
        if not prefix:
            raise SystemExit("determinism_lint: policy exemption missing 'path'")
        if len(why.strip()) < MIN_JUSTIFICATION_CHARS:
            raise SystemExit(
                f"determinism_lint: policy exemption for '{prefix}' needs a "
                "written 'why'")
        # The entry's line, located by its path key, for stale reports.
        line = next((idx for idx, raw in enumerate(text.split("\n"), start=1)
                     if re.match(rf'\s*path\s*=\s*"{re.escape(prefix)}"', raw)),
                    0)
        for rule in rules:
            if rule != "*" and rule not in RULE_NAMES:
                raise SystemExit(
                    f"determinism_lint: policy exemption for '{prefix}' names "
                    f"unknown rule '{rule}'")
            policy.exemptions.append((prefix, rule, why, line))
    return policy


def lint_file(path: pathlib.Path, rel: str, policy: Policy,
              engine: str) -> list[Finding]:
    text = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = text.split("\n")
    if engine == "libclang":
        code_lines = code_lines_libclang_engine(path, text)
    else:
        code_lines = code_lines_token_engine(text)

    suppressions, malformed = collect_suppressions(raw_lines)
    findings = [Finding(path, line, "bad-suppression", problem)
                for line, problem in malformed]

    def allowed(rule: str, line: int) -> bool:
        for sup in suppressions:
            if sup.rule == rule and sup.line in (line, line - 1):
                sup.used = True
                return True
        return False

    for idx, code in enumerate(code_lines, start=1):
        if not code.strip():
            continue
        for rule in RULES:
            if not rule.pattern.search(code):
                continue
            if policy.exempt(rel, rule.name, excuses=True):
                continue
            if allowed(rule.name, idx):
                continue
            findings.append(Finding(path, idx, rule.name, rule.message))

    # A suppression that allowed nothing is dead weight — or worse, a
    # leftover claim about code that changed. Exempted files keep their
    # annotations (the policy already covers them).
    for sup in suppressions:
        if not sup.used and not policy.exempt(rel, sup.rule):
            findings.append(Finding(
                path, sup.line, "stale-suppression",
                f"LINT-ALLOW({sup.rule}) matches no finding on this or the "
                "next line; delete it or move it next to the hazard"))
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=pathlib.Path,
                        help="explicit files to lint (default: policy root)")
    parser.add_argument("--policy", type=pathlib.Path, default=None,
                        help="policy TOML (default: lint_policy.toml next to "
                             "this script; --no-policy to disable)")
    parser.add_argument("--no-policy", action="store_true",
                        help="run with an empty policy (fixture self-tests)")
    parser.add_argument("--root", type=pathlib.Path, default=None,
                        help="directory to scan (overrides the policy root)")
    parser.add_argument("--engine", choices=["auto", "token", "libclang"],
                        default="auto",
                        help="auto probes for the libclang python bindings "
                             "and falls back to the token engine")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.name}: {rule.message}")
        return 0

    script_dir = pathlib.Path(__file__).resolve().parent
    repo_root = script_dir.parent

    if args.no_policy:
        policy = Policy()
    else:
        policy_path = args.policy or (script_dir / "lint_policy.toml")
        if not policy_path.exists():
            print(f"determinism_lint: policy file {policy_path} not found "
                  "(use --no-policy to run without one)", file=sys.stderr)
            return 2
        policy = load_policy(policy_path)
        repo_root = policy_path.resolve().parent.parent

    engine = args.engine
    if engine == "auto":
        try:
            import clang.cindex  # noqa: F401, PLC0415
            engine = "libclang"
        except Exception:
            engine = "token"
    elif engine == "libclang":
        try:
            import clang.cindex  # noqa: F401, PLC0415
        except Exception as exc:
            print(f"determinism_lint: libclang engine requested but the "
                  f"python bindings are unavailable ({exc})", file=sys.stderr)
            return 2

    scan_root = (args.root or (repo_root / policy.root)).resolve()
    if args.files:
        files = [f.resolve() for f in args.files]
    else:
        if not scan_root.is_dir():
            print(f"determinism_lint: scan root {scan_root} is not a "
                  "directory", file=sys.stderr)
            return 2
        files = sorted(p for p in scan_root.rglob("*")
                       if p.suffix in (".h", ".hpp", ".cc", ".cpp", ".cxx"))

    all_findings: list[Finding] = []
    for path in files:
        try:
            rel = str(path.relative_to(scan_root))
        except ValueError:
            rel = path.name
        all_findings.extend(lint_file(path, rel, policy, engine))
    if not args.files:
        all_findings.extend(policy.stale_exemptions())

    for finding in sorted(all_findings,
                          key=lambda f: (str(f.path), f.line, f.rule)):
        print(finding.render(scan_root))
    if all_findings:
        print(f"determinism_lint[{engine}]: {len(all_findings)} finding(s) "
              f"over {len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"determinism_lint[{engine}]: clean ({len(files)} file(s))",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
