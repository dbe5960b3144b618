#!/usr/bin/env python3
"""dbfa_lint: project-specific invariant checker for the dbfa tree.

Enforces invariants the generic tools (clang-tidy, -Wthread-safety) cannot
express, documented in docs/static_analysis.md:

  raw-byte-read     reinterpret_cast / memcpy outside the audited byte
                    accessors (common/bytes.h, sql/row_codec, common/
                    checksum — see allowlist.txt). All type punning over
                    carved, hostile input must go through bounds-checked,
                    reviewed code.
  nodiscard-status  Status/Result must stay [[nodiscard]] in
                    src/common/status.h, and explicitly discarded calls
                    ("(void)Foo(...)") need a justifying allow comment —
                    a dropped Status loses an error on the floor.
  unordered-iter    no std::unordered_{map,set} iteration in the
                    determinism-critical merge/carver/detective code
                    unless the site is annotated as order-insensitive or
                    feeding a sort: hash-order iteration silently breaks
                    the bit-identical-output contract.
  naked-rand-time   no rand()/srand()/time() in src/: forensic runs must
                    be reproducible; randomness comes from the seeded
                    common/rng.h, timestamps from the virtual clock.
  hot-loop-string   no std::string construction (std::string temporaries,
                    std::to_string, stringstreams, .ToString()) inside
                    regions bracketed by "// dbfa:hot-loop-begin" ...
                    "// dbfa:hot-loop-end" markers. Those kernels run per
                    carved row; string work must stay on StringRef /
                    string_view (pool identity, cached hash, memcmp) or
                    move outside the loop.
  raw-sync          no raw std::mutex / lock_guard / unique_lock /
                    scoped_lock / condition_variable in src/ outside
                    common/mutex.h (see allowlist.txt). All locking goes
                    through dbfa::Mutex so it carries a (name, rank)
                    identity and stays visible to the thread-safety
                    annotations, dbfa_lockcheck's cross-TU lock-order
                    analysis, and the DBFA_LOCK_DEBUG runtime validator —
                    a raw std primitive is invisible to all three.
  raw-file-io       no fopen/freopen/fdopen/::open(/std::rename( in src/,
                    tools/ or bench/ outside the file seam,
                    common/file_io.cc, which checks every open, read,
                    write, flush and close result.
  log-reparse       no ParseStatement(<expr>.sql) in src/ or tools/ outside
                    engine/audit_log.cc: an audit-log entry is parsed once,
                    by its shared handle (AuditEntry::statement()), and a
                    private parse loop re-parses the whole log per call.
  line-length       no line longer than .clang-format's ColumnLimit (80
                    columns) in src/, tools/, bench/ or tests/: the CI
                    format job (clang-format --dry-run -Werror) rejects
                    one, and this machine-independent check catches it
                    before CI does. "// clang-format off" does not exempt
                    a line here.

Suppression: append "// dbfa-lint: allow(<rule>): <why>" on the offending
line or the line above it. File-level exemptions live in allowlist.txt
next to this script.

Run over the tree (from anywhere inside the repo):
    python3 tools/dbfa_lint/dbfa_lint.py
Regression-test the linter itself against tests/lint_fixtures/:
    python3 tools/dbfa_lint/dbfa_lint.py --self-test

Lexical, stdlib-only by design: the container toolchain has no libclang,
and every invariant above is expressible over comment/string-stripped
token text. Scanned files are the first-party .cc/.h/.cpp sources under
src/, tools/, bench/ and tests/ (tests/lint_fixtures/ only through
--self-test); the optional compile_commands.json is not required.
"""

import argparse
import os
import re
import sys

RULES = ("raw-byte-read", "nodiscard-status", "unordered-iter",
         "naked-rand-time", "hot-loop-string", "raw-sync", "raw-file-io",
         "log-reparse", "line-length")

# Directories (relative to the repo root) whose output ordering is part of
# the bit-identical determinism contract; unordered-iter fires only here.
DETERMINISM_DIRS = (
    "src/core/",
    "src/metaquery/",
    "src/detective/",
    "src/snapshot/",
)

ALLOW_RE = re.compile(r"dbfa-lint:\s*allow\(([a-z-]+)\)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def strip_comments_and_strings(text):
    """Returns (code, comments) where `code` is `text` with comments and
    string/char literals blanked (newlines preserved, so line numbers
    survive) and `comments` maps line number -> concatenated comment text
    on that line."""
    code = []
    comments = {}
    i, n, line = 0, len(text), 1

    def note_comment(ln, s):
        comments[ln] = comments.get(ln, "") + s

    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            note_comment(line, text[i:j])
            code.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            for off, part in enumerate(chunk.split("\n")):
                note_comment(line + off, part)
            code.append(re.sub(r"[^\n]", " ", chunk))
            line += chunk.count("\n")
            i = j
        elif (c == "'" and 0 < i < n - 1 and text[i - 1] in HEX_DIGITS
              and text[i + 1] in HEX_DIGITS):
            # A digit separator (90'000), not a character literal.
            code.append(c)
            i += 1
        elif c == '"' or c == "'":
            # R"delim(...)delim" raw strings first.
            if c == '"' and i >= 1 and text[i - 1] == "R":
                m = re.match(r'R"([^(\s]*)\(', text[i - 1:i + 20])
                if m:
                    end = text.find(f"){m.group(1)}\"", i)
                    j = n if end == -1 else end + len(m.group(1)) + 2
                    chunk = text[i:j]
                    code.append(re.sub(r"[^\n]", " ", chunk))
                    line += chunk.count("\n")
                    i = j
                    continue
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            code.append(c + " " * (j - i - 2) + (c if j - i >= 2 else ""))
            i = j
        else:
            if c == "\n":
                line += 1
            code.append(c)
            i += 1
    return "".join(code), comments


def allowed(rule, lineno, comments, code):
    """True if the finding line, or the contiguous comment block directly
    above it, carries "dbfa-lint: allow(<rule>)"."""
    code_lines = code.split("\n")

    def matches(ln):
        m = ALLOW_RE.search(comments.get(ln, ""))
        return bool(m and m.group(1) == rule)

    if matches(lineno):
        return True
    ln = lineno - 1
    # Walk up through comment-only lines (blank code after stripping).
    while (ln >= 1 and ln in comments
           and not code_lines[ln - 1].strip()):
        if matches(ln):
            return True
        ln -= 1
    return False


def line_of(pos, code):
    return code.count("\n", 0, pos) + 1


def balanced_span(code, open_pos, open_ch="(", close_ch=")"):
    """Returns the position just past the matching close bracket."""
    depth = 0
    for i in range(open_pos, len(code)):
        if code[i] == open_ch:
            depth += 1
        elif code[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


# ---- raw-byte-read --------------------------------------------------------

RAW_BYTE_RE = re.compile(r"\breinterpret_cast\b|\b(?:std::)?memcpy\s*\(")


def check_raw_byte_read(relpath, code, comments, findings):
    if not relpath.startswith("src/"):
        return
    for m in RAW_BYTE_RE.finditer(code):
        ln = line_of(m.start(), code)
        if allowed("raw-byte-read", ln, comments, code):
            continue
        tok = "reinterpret_cast" if "reinterpret" in m.group(0) else "memcpy"
        findings.append(Finding(
            relpath, ln, "raw-byte-read",
            f"raw {tok} outside the audited byte accessors; use "
            "AsByteView/AsStringView/CopyBytes or the common/bytes.h "
            "codecs (file-level exemptions: tools/dbfa_lint/allowlist.txt)"))


# ---- nodiscard-status -----------------------------------------------------

DISCARD_CAST_RE = re.compile(r"\(\s*void\s*\)\s*[A-Za-z_(][^;{}]*\(")


def check_nodiscard_status(relpath, code, comments, findings):
    if relpath == "src/common/status.h":
        for cls in ("Status", "Result"):
            if not re.search(
                    r"class\s+\[\[nodiscard\]\]\s+" + cls + r"\b", code):
                findings.append(Finding(
                    relpath, 1, "nodiscard-status",
                    f"class {cls} must be declared [[nodiscard]] so "
                    "dropped errors fail the build"))
    if not relpath.startswith("src/"):
        return
    for m in DISCARD_CAST_RE.finditer(code):
        ln = line_of(m.start(), code)
        if allowed("nodiscard-status", ln, comments, code):
            continue
        findings.append(Finding(
            relpath, ln, "nodiscard-status",
            "explicitly discarded call result; if the Status genuinely "
            "cannot be acted on, justify it with "
            "// dbfa-lint: allow(nodiscard-status): <why>"))


# ---- unordered-iter -------------------------------------------------------

UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_(?:map|set)\s*<")
USING_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*std::unordered_(?:map|set)\s*<")
FOR_RE = re.compile(r"\bfor\s*\(")


def unordered_variables(code):
    """Names of variables (or members/params) whose declared type is an
    unordered container or a same-file alias of one."""
    aliases = set(USING_ALIAS_RE.findall(code))
    names = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        end = balanced_span(code, m.end() - 1, "<", ">")
        tail = code[end:end + 80]
        dm = re.match(r"\s*[*&]*\s*(\w+)", tail)
        if dm and dm.group(1) not in ("const",):
            names.add(dm.group(1))
    for alias in aliases:
        for dm in re.finditer(r"\b" + alias + r"\s*[*&]*\s+(\w+)", code):
            names.add(dm.group(1))
    return names


def check_unordered_iter(relpath, code, comments, findings):
    if not any(relpath.startswith(d) for d in DETERMINISM_DIRS):
        return
    names = unordered_variables(code)
    if not names:
        return
    for m in FOR_RE.finditer(code):
        open_pos = m.end() - 1
        close = balanced_span(code, open_pos)
        header = code[open_pos + 1:close - 1]
        # Split a range-for header on its top-level ':' (ignore '::').
        depth, split = 0, -1
        for i, ch in enumerate(header):
            if ch in "(<[{":
                depth += 1
            elif ch in ")>]}":
                depth -= 1
            elif (ch == ":" and depth == 0
                  and (i == 0 or header[i - 1] != ":")
                  and (i + 1 >= len(header) or header[i + 1] != ":")):
                split = i
                break
        if split == -1:
            continue
        target = header[split + 1:].strip()
        target = target.lstrip("*& ")
        base = re.split(r"\.|->", target)[-1].strip()
        if base in names:
            ln = line_of(m.start(), code)
            if allowed("unordered-iter", ln, comments, code):
                continue
            findings.append(Finding(
                relpath, ln, "unordered-iter",
                f"iteration over unordered container '{base}' in "
                "determinism-critical code; hash order must not reach the "
                "output — sort first, or annotate the site "
                "// dbfa-lint: allow(unordered-iter): <why ordering "
                "cannot leak>"))


# ---- naked-rand-time ------------------------------------------------------

RAND_TIME_RE = re.compile(
    r"(?<![\w.>])(?<!->)\b(rand|srand|time)\s*\(")


def check_rand_time(relpath, code, comments, findings):
    if not relpath.startswith("src/"):
        return
    for m in RAND_TIME_RE.finditer(code):
        # `time(...)` only counts as libc time() when called with no args,
        # NULL, nullptr, or 0 — Clock::time(x) style methods stay legal.
        if m.group(1) == "time":
            close = balanced_span(code, m.end() - 1)
            arg = code[m.end():close - 1].strip()
            if arg not in ("", "NULL", "nullptr", "0", "&t"):
                continue
        ln = line_of(m.start(), code)
        if allowed("naked-rand-time", ln, comments, code):
            continue
        findings.append(Finding(
            relpath, ln, "naked-rand-time",
            f"naked {m.group(1)}() breaks reproducibility; use the seeded "
            "dbfa::Rng (common/rng.h) or the engine's virtual clock"))


# ---- hot-loop-string ------------------------------------------------------

HOT_STRING_RE = re.compile(
    r"\bstd::(?:string\b(?!_view)|to_string\s*\("
    r"|[io]?stringstream\b)"
    r"|(?:\.|->)\s*ToString\s*\(")


def hot_loop_regions(comments):
    """(begin, end) line pairs for "dbfa:hot-loop-begin/end" marker
    comments; an unmatched begin extends to end-of-file so a deleted end
    marker cannot silently disable the rule."""
    begins = sorted(ln for ln, txt in comments.items()
                    if "dbfa:hot-loop-begin" in txt)
    ends = sorted(ln for ln, txt in comments.items()
                  if "dbfa:hot-loop-end" in txt)
    regions = []
    ei = 0
    for b in begins:
        while ei < len(ends) and ends[ei] <= b:
            ei += 1
        e = ends[ei] if ei < len(ends) else float("inf")
        ei += 1
        regions.append((b, e))
    return regions


def check_hot_loop_string(relpath, code, comments, findings):
    regions = hot_loop_regions(comments)
    if not regions:
        return
    for m in HOT_STRING_RE.finditer(code):
        ln = line_of(m.start(), code)
        if not any(b < ln < e for b, e in regions):
            continue
        if allowed("hot-loop-string", ln, comments, code):
            continue
        tok = m.group(0).strip(" \t.(->")
        findings.append(Finding(
            relpath, ln, "hot-loop-string",
            f"{tok} inside a dbfa:hot-loop region; this code runs per "
            "carved row — compare via StringRef/string_view (pool id, "
            "cached hash, memcmp) and build strings outside the loop, or "
            "justify with // dbfa-lint: allow(hot-loop-string): <why>"))


# ---- raw-sync -------------------------------------------------------------

RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock|condition_variable(?:_any)?)\b")


def check_raw_sync(relpath, code, comments, findings):
    if not relpath.startswith("src/"):
        return
    for m in RAW_SYNC_RE.finditer(code):
        ln = line_of(m.start(), code)
        if allowed("raw-sync", ln, comments, code):
            continue
        findings.append(Finding(
            relpath, ln, "raw-sync",
            f"raw std::{m.group(1)} outside common/mutex.h; use "
            "dbfa::Mutex / MutexLock / CondVar so the lock has a (name, "
            "rank) identity and stays visible to -Wthread-safety, "
            "dbfa_lockcheck, and the DBFA_LOCK_DEBUG validator "
            "(file-level exemptions: tools/dbfa_lint/allowlist.txt)"))


# ---- raw-file-io ----------------------------------------------------------

RAW_FILE_IO_RE = re.compile(
    r"(?<![\w.>])(?:std::)?(fopen|freopen|fdopen)\s*\("
    r"|(?<![\w:])(::open)\s*\("
    r"|\b(std::rename)\s*\(")


def check_raw_file_io(relpath, code, comments, findings):
    if not relpath.startswith(("src/", "tools/", "bench/")):
        return
    for m in RAW_FILE_IO_RE.finditer(code):
        ln = line_of(m.start(), code)
        if allowed("raw-file-io", ln, comments, code):
            continue
        tok = next(g for g in m.groups() if g)
        findings.append(Finding(
            relpath, ln, "raw-file-io",
            f"raw {tok}() outside the file seam; use common/file_io.h, "
            "which checks every open, read, write, flush and close"))


# ---- log-reparse ----------------------------------------------------------

PARSE_STATEMENT_RE = re.compile(r"\bParseStatement\s*\(")
SQL_MEMBER_RE = re.compile(r"(?:\.|->)\s*sql\s*$")


def check_log_reparse(relpath, code, comments, findings):
    if not relpath.startswith(("src/", "tools/")):
        return
    for m in PARSE_STATEMENT_RE.finditer(code):
        close = balanced_span(code, m.end() - 1)
        if not SQL_MEMBER_RE.search(code[m.end():close - 1]):
            continue
        ln = line_of(m.start(), code)
        if allowed("log-reparse", ln, comments, code):
            continue
        findings.append(Finding(
            relpath, ln, "log-reparse",
            "ParseStatement over an entry's .sql re-parses the audit log; "
            "read the entry's shared parse, AuditEntry::statement(), "
            "which parses each entry once for every copy of the log"))


# ---- line-length ----------------------------------------------------------

COLUMN_LIMIT = 80  # .clang-format ColumnLimit


def check_line_length(relpath, code, comments, findings):
    # `code` keeps every line's width: comments and literals are blanked
    # character for character.
    for ln, line in enumerate(code.split("\n"), 1):
        if len(line) <= COLUMN_LIMIT:
            continue
        if allowed("line-length", ln, comments, code):
            continue
        findings.append(Finding(
            relpath, ln, "line-length",
            f"{len(line)} columns, over .clang-format's ColumnLimit of "
            f"{COLUMN_LIMIT}; wrap it as clang-format would"))


CHECKS = {
    "raw-byte-read": check_raw_byte_read,
    "nodiscard-status": check_nodiscard_status,
    "unordered-iter": check_unordered_iter,
    "naked-rand-time": check_rand_time,
    "hot-loop-string": check_hot_loop_string,
    "raw-sync": check_raw_sync,
    "raw-file-io": check_raw_file_io,
    "log-reparse": check_log_reparse,
    "line-length": check_line_length,
}


# ---- driver ---------------------------------------------------------------

def load_allowlist(path):
    """allowlist.txt lines: "<rule> <path-prefix>  # why"."""
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for raw in f:
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 2 or parts[0] not in RULES:
                raise SystemExit(
                    f"allowlist: bad line {raw.rstrip()!r} "
                    f"(want '<rule> <path-prefix>')")
            entries.append((parts[0], parts[1]))
    return entries


def lint_text(relpath, text, allowlist):
    findings = []
    code, comments = strip_comments_and_strings(text)
    for rule, check in CHECKS.items():
        if any(r == rule and relpath.startswith(prefix)
               for r, prefix in allowlist):
            continue
        check(relpath, code, comments, findings)
    return findings


FIXTURE_DIR = os.path.join("tests", "lint_fixtures")


def iter_source_files(root):
    for top in ("src", "tools", "bench", "tests"):
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            # Fixtures are known-bad by design; --self-test lints them.
            if os.path.relpath(dirpath, root) == FIXTURE_DIR:
                continue
            for name in sorted(files):
                if name.endswith((".cc", ".h", ".cpp")):
                    yield os.path.join(dirpath, name)


def run_tree(root, paths, allowlist):
    findings = []
    files = paths or sorted(iter_source_files(root))
    for path in files:
        relpath = os.path.relpath(os.path.abspath(path), root).replace(
            os.sep, "/")
        with open(path, encoding="utf-8") as f:
            findings.extend(lint_text(relpath, f.read(), allowlist))
    return findings


FIXTURE_HEADER_RE = re.compile(
    r"//\s*dbfa-lint-fixture:\s*path=(\S+)\s+rule=(\S+)\s+expect=(\d+)")


def run_self_test(root, allowlist):
    """Every fixture declares the pretend path it is linted under, the rule
    it exercises, and how many findings of that rule it must produce; a
    rule that stops firing on its known-bad fixture fails the suite."""
    fixture_dir = os.path.join(root, FIXTURE_DIR)
    fixtures = sorted(
        f for f in os.listdir(fixture_dir) if f.endswith((".cc", ".h")))
    if not fixtures:
        print("self-test: no fixtures found", file=sys.stderr)
        return 1
    failures = 0
    exercised = set()
    for name in fixtures:
        with open(os.path.join(fixture_dir, name), encoding="utf-8") as f:
            text = f.read()
        m = FIXTURE_HEADER_RE.search(text)
        if not m:
            print(f"self-test: {name}: missing dbfa-lint-fixture header")
            failures += 1
            continue
        pretend, rule, expect = m.group(1), m.group(2), int(m.group(3))
        if rule not in RULES:
            print(f"self-test: {name}: unknown rule {rule}")
            failures += 1
            continue
        got = [f for f in lint_text(pretend, text, allowlist)
               if f.rule == rule]
        if len(got) != expect:
            print(f"self-test: {name}: expected {expect} {rule} "
                  f"finding(s) under pretend path {pretend}, got "
                  f"{len(got)}")
            for f in got:
                print(f"  {f}")
            failures += 1
        if expect > 0:
            exercised.add(rule)
    missing = set(RULES) - exercised
    if missing:
        print(f"self-test: no failing fixture exercises: "
              f"{', '.join(sorted(missing))}")
        failures += 1
    if failures == 0:
        print(f"self-test: {len(fixtures)} fixtures ok, "
              f"all {len(RULES)} rules exercised")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: src/, tools/, "
                        "bench/, tests/)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above script)")
    parser.add_argument("--allowlist", default=None,
                        help="allowlist file (default: next to the script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite in tests/lint_fixtures/")
    args = parser.parse_args()

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root) if args.root else os.path.dirname(
        os.path.dirname(script_dir))
    allowlist = load_allowlist(
        args.allowlist or os.path.join(script_dir, "allowlist.txt"))

    if args.self_test:
        return run_self_test(root, allowlist)

    findings = run_tree(root, args.paths, allowlist)
    for f in findings:
        print(f)
    if findings:
        print(f"dbfa_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("dbfa_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
