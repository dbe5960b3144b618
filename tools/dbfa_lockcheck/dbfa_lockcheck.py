#!/usr/bin/env python3
"""dbfa_lockcheck: cross-TU lock-order analysis for the dbfa tree.

Statically enforces the deadlock-freedom discipline documented in
docs/lock_order.md. Every dbfa::Mutex carries a (name, rank) identity from
common/lock_rank.h; this tool extracts every mutex declaration, every
DBFA_ACQUIRED_BEFORE/AFTER annotation, and every acquisition site
(MutexLock scopes, DBFA_REQUIRES bodies, CondVar::Wait) across the whole
tree, builds the global lock-order graph, and rejects:

  lock-cycle          the combined observed + declared order graph has a
                      cycle (two code paths acquire the same locks in
                      opposite orders) — a latent deadlock. The witness
                      cycle is printed edge by edge.
  rank-order          a site acquires a mutex whose rank is not strictly
                      greater than a rank already held (or an ordering
                      annotation contradicts the ranks). Rank order is the
                      machine-checkable form of the global order.
  unranked-multilock  a scope nests two locks where either side has no
                      rank; unranked mutexes are only legal while they
                      stay leaf-only.
  blocking-under-lock a blocking call under a held lock: file I/O
                      (fopen/fwrite/std::filesystem mutations, the
                      common/file_io seam),
                      BoundedQueue Push/Pop, ThreadPool Wait/ParallelFor,
                      or a CondVar::Wait on anything but the innermost
                      held mutex. Blocking while holding a lock turns
                      local slowness into fleet-wide convoying and is the
                      other half of most real deadlocks.

Suppression: append "// dbfa-lockcheck: allow(<rule>): <why>" on the
offending line or the comment block above it. An allow on a MutexLock
line exempts blocking-under-lock for that whole hold scope (the
justification is about the lock, not one call under it).

Analysis is per stem group (foo.h + foo.cc): member mutexes declared in
the header resolve at acquisition sites in the paired source file, and
DBFA_REQUIRES annotations on header declarations mark the corresponding
out-of-line definition bodies as holding the named mutex. Known blind
spots (docs/lock_order.md): REQUIRES callers in *other* TUs, and joins
hidden behind destructors (pool_.reset()) — the runtime validator
(DBFA_LOCK_DEBUG) and TSan cover those.

Run over the tree (writes lock_graph.dot next to the invocation):
    python3 tools/dbfa_lockcheck/dbfa_lockcheck.py
Regression-test the checker against tests/lockcheck_fixtures/:
    python3 tools/dbfa_lockcheck/dbfa_lockcheck.py --self-test

Lexical, stdlib-only by design, like tools/dbfa_lint (whose stripper this
reuses): the container toolchain has no libclang, and the discipline is
expressible over comment/string-stripped token text because the tree only
ever locks through dbfa::Mutex / MutexLock (enforced by dbfa_lint's
raw-sync rule).
"""

import argparse
import os
import re
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "dbfa_lint"))
from dbfa_lint import balanced_span, line_of, strip_comments_and_strings

RULES = ("lock-cycle", "rank-order", "unranked-multilock",
         "blocking-under-lock")

ALLOW_RE = re.compile(r"dbfa-lockcheck:\s*allow\(([a-z-]+)\)")

UNRANKED = -1

# Mutex member/variable declarations, optionally annotated and initialized:
#   mutable Mutex mu_ DBFA_ACQUIRED_AFTER(a_, b_){"name", lock_rank::kX};
# Runs over stripped code; the initializer text (the lock name literal) is
# recovered from the original text at the same offsets, which the stripper
# preserves.
MUTEX_DECL_RE = re.compile(
    r"\bMutex\s+(\w+)\s*"
    r"((?:DBFA_ACQUIRED_(?:BEFORE|AFTER)\s*\([^)]*\)\s*)*)"
    r"(\{[^;{}]*\})?\s*;", re.S)
ACQ_ATTR_RE = re.compile(r"DBFA_ACQUIRED_(BEFORE|AFTER)\s*\(([^)]*)\)")
INIT_RE = re.compile(r'"([^"]*)"\s*(?:,\s*([A-Za-z_][\w:]*|-?\d+))?', re.S)

MUTEXLOCK_RE = re.compile(r"\bMutexLock\s+\w+\s*\(\s*&\s*([^);]+?)\s*\)")
REQUIRES_RE = re.compile(r"DBFA_REQUIRES\s*\(([^)]*)\)")
CV_WAIT_RE = re.compile(r"(?:\.|->)\s*Wait\s*\(\s*&\s*([^);]+?)\s*\)")

# Calls that block (or may block) the calling thread. Kept deliberately
# conservative: every pattern is either real file I/O or one of this
# repo's own blocking primitives (including the common/file_io seam).
# std::filesystem::path is a pure value type, not I/O, hence the carve-out.
BLOCKING_RE = re.compile(
    r"\b(?:std::)?(?:f(?:open|close|read|write|flush|printf|sync))\s*\("
    r"|\bstd::filesystem::(?!path\b)\w+\s*\("
    r"|\b(?:ReadFile|ReadFileBytes|WriteFile|ScanBlocks|ScanCommitLog)\s*\("
    r"|(?:\.|->)\s*(?:Append|ReadAt)\s*\("
    r"|(?:\.|->)\s*(?:Push|TryPush|Pop|ParallelFor|Submit)\s*\("
    r"|(?:\.|->)\s*Wait\s*\(\s*\)")
# Of the above, these never block: TryPush returns kFull immediately and
# Submit only enqueues. They are still matched so the message can say why
# a site is or is not flagged, then filtered here.
NONBLOCKING_TOKENS = ("TryPush", "Submit")

RANK_CONST_RE = re.compile(r"\bk(\w+)\s*=\s*(-?\d+)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class MutexDecl:
    """One Mutex member/variable: its C++ member name, lock name, rank,
    and declared ordering constraints (member names of the other side)."""

    def __init__(self, member, lock_name, rank, path, line):
        self.member = member
        self.lock_name = lock_name  # None = anonymous
        self.rank = rank
        self.path = path
        self.line = line
        self.before = []  # member names this lock is acquired before
        self.after = []   # member names this lock is acquired after

    def describe(self):
        name = self.lock_name if self.lock_name else f"<unnamed {self.member}>"
        rank = f"rank {self.rank}" if self.rank != UNRANKED else "unranked"
        return f"'{name}' ({rank}, declared {self.path}:{self.line})"


class Hold:
    """One entry of the simulated held-lock stack during a scope walk."""

    def __init__(self, member, decl, depth, line, exempt):
        self.member = member
        self.decl = decl
        self.depth = depth
        self.line = line
        self.exempt = exempt  # allow(blocking-under-lock) on the lock site


class LockGraph:
    """Global lock-order graph: nodes are lock names, edges mean "acquired
    before", each edge remembering the first witness site."""

    def __init__(self):
        self.edges = {}  # from_name -> {to_name: witness}
        self.nodes = {}  # lock name -> MutexDecl (first seen)

    def add_node(self, decl):
        if decl.lock_name and decl.lock_name not in self.nodes:
            self.nodes[decl.lock_name] = decl

    def add_edge(self, src, dst, witness):
        self.edges.setdefault(src, {}).setdefault(dst, witness)

    def find_cycle(self):
        """Returns a cycle as [(from, to, witness), ...] or None."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {}
        stack = []

        def visit(node):
            color[node] = GRAY
            stack.append(node)
            for nxt, witness in sorted(self.edges.get(node, {}).items()):
                if color.get(nxt, WHITE) == GRAY:
                    cycle_nodes = stack[stack.index(nxt):] + [nxt]
                    return [(a, b, self.edges[a][b]) for a, b in
                            zip(cycle_nodes, cycle_nodes[1:])]
                if color.get(nxt, WHITE) == WHITE:
                    found = visit(nxt)
                    if found:
                        return found
            stack.pop()
            color[node] = BLACK
            return None

        for node in sorted(self.edges):
            if color.get(node, WHITE) == WHITE:
                found = visit(node)
                if found:
                    return found
        return None

    def to_dot(self):
        lines = ["digraph lock_order {", "  rankdir=LR;",
                 "  node [shape=box, fontname=\"monospace\"];"]
        for name in sorted(self.nodes):
            decl = self.nodes[name]
            rank = (f"rank {decl.rank}" if decl.rank != UNRANKED
                    else "unranked")
            lines.append(f'  "{name}" [label="{name}\\n{rank}"];')
        for src in sorted(self.edges):
            for dst, witness in sorted(self.edges[src].items()):
                style = ', style=dashed' if witness.startswith("declared") \
                    else ''
                lines.append(
                    f'  "{src}" -> "{dst}" [label="{witness}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def allowed(rule, lineno, comments, code):
    """Same contract as dbfa_lint.allowed, for dbfa-lockcheck markers."""
    code_lines = code.split("\n")

    def matches(ln):
        m = ALLOW_RE.search(comments.get(ln, ""))
        return bool(m and m.group(1) == rule)

    if matches(lineno):
        return True
    ln = lineno - 1
    while (ln >= 1 and ln in comments
           and not code_lines[ln - 1].strip()):
        if matches(ln):
            return True
        ln -= 1
    return False


def load_ranks(root):
    """Parses the rank enum in src/common/lock_rank.h into a token map
    accepting both spellings ("kAuditState", "lock_rank::kAuditState")."""
    ranks = {}
    path = os.path.join(root, "src", "common", "lock_rank.h")
    if not os.path.exists(path):
        return ranks
    with open(path, encoding="utf-8") as f:
        code, _ = strip_comments_and_strings(f.read())
    for m in RANK_CONST_RE.finditer(code):
        for spelling in (f"k{m.group(1)}", f"lock_rank::k{m.group(1)}",
                         f"dbfa::lock_rank::k{m.group(1)}"):
            ranks[spelling] = int(m.group(2))
    return ranks


def base_member(expr):
    """'daemon->feed_mu_' -> 'feed_mu_'; 'shards_[i]->mu' -> 'mu'."""
    last = re.split(r"\.|->", expr.strip())[-1].strip()
    m = re.search(r"(\w+)\s*$", last)
    return m.group(1) if m else last


def parse_decls(relpath, code, text, ranks):
    """All Mutex declarations in one file: member name -> MutexDecl."""
    decls = {}
    for m in MUTEX_DECL_RE.finditer(code):
        member = m.group(1)
        line = line_of(m.start(), code)
        lock_name, rank = None, UNRANKED
        if m.group(3):
            # Lock name and rank token live inside a (blanked) string
            # literal and the initializer; read them from the original
            # text, whose offsets the stripper preserves.
            init = text[m.start(3):m.end(3)]
            im = INIT_RE.search(init)
            if im:
                lock_name = im.group(1)
                tok = im.group(2)
                if tok is not None:
                    if re.fullmatch(r"-?\d+", tok):
                        rank = int(tok)
                    else:
                        rank = ranks.get(tok, UNRANKED)
        decl = MutexDecl(member, lock_name, rank, relpath, line)
        for am in ACQ_ATTR_RE.finditer(m.group(2)):
            targets = [t.strip() for t in am.group(2).split(",") if t.strip()]
            (decl.before if am.group(1) == "BEFORE" else
             decl.after).extend(targets)
        decls[member] = decl
    return decls


def header_requires(code):
    """Function name -> mutex member names its body requires held, from
    DBFA_REQUIRES annotations on declarations (applied to the paired .cc
    definitions and to inline bodies in the header itself)."""
    out = {}
    for m in REQUIRES_RE.finditer(code):
        head = code[max(0, m.start() - 400):m.start()]
        fm = None
        for fm in re.finditer(r"(\w+)\s*\(", head):
            pass  # last call-ish token before the attribute = function name
        if fm:
            members = [base_member(t) for t in m.group(1).split(",")
                       if t.strip()]
            out.setdefault(fm.group(1), []).extend(members)
    return out


def requires_regions(code, req_map):
    """(start, end, members) spans whose bodies hold mutexes by contract:
    inline definitions annotated DBFA_REQUIRES, and out-of-line
    definitions of functions the paired header annotated."""
    regions = []
    # Inline: ... DBFA_REQUIRES(mu_) { body }
    for m in REQUIRES_RE.finditer(code):
        tail = code[m.end():m.end() + 200]
        bm = re.match(r"\s*(?:const\s*)?(?:noexcept\s*)?\{", tail)
        if not bm:
            continue
        open_pos = m.end() + bm.end() - 1
        close = balanced_span(code, open_pos, "{", "}")
        members = [base_member(t) for t in m.group(1).split(",")
                   if t.strip()]
        regions.append((open_pos, close, members))
    # Out-of-line: Class::Func(...) ... { with Func annotated in the header.
    for func, members in req_map.items():
        for m in re.finditer(r"::\s*" + re.escape(func) + r"\s*\(", code):
            close_paren = balanced_span(code, m.end() - 1)
            tail = code[close_paren:close_paren + 80]
            bm = re.match(r"\s*(?:const\s*)?(?:noexcept\s*)?\{", tail)
            if not bm:
                continue
            open_pos = close_paren + bm.end() - 1
            close = balanced_span(code, open_pos, "{", "}")
            regions.append((open_pos, close, members))
    return regions


def analyze_scopes(relpath, code, comments, decls, regions, graph,
                   findings):
    """Walks every brace scope simulating the held-lock stack; emits
    rank-order / unranked-multilock / blocking-under-lock findings and
    feeds observed nestings into the global graph."""
    events = []
    for i, ch in enumerate(code):
        if ch == "{":
            events.append((i, 0, "open", None))
        elif ch == "}":
            events.append((i, 0, "close", None))
    for start, _, members in regions:
        events.append((start, 1, "require", members))
    for m in MUTEXLOCK_RE.finditer(code):
        events.append((m.start(), 2, "acquire", base_member(m.group(1))))
    for m in CV_WAIT_RE.finditer(code):
        events.append((m.start(), 2, "wait", base_member(m.group(1))))
    for m in BLOCKING_RE.finditer(code):
        tok = m.group(0).strip(" \t.:()->")
        if tok in NONBLOCKING_TOKENS:
            continue
        events.append((m.start(), 2, "blocking", tok))
    events.sort(key=lambda e: (e[0], e[1]))

    depth = 0
    holds = []

    def describe(member):
        d = decls.get(member)
        return d.describe() if d else f"'{member}' (no declaration found)"

    def on_acquire(pos, member, via):
        ln = line_of(pos, code)
        d = decls.get(member)
        rank = d.rank if d else UNRANKED
        name = d.lock_name if d else None
        for h in holds:
            if h.member == member:
                continue  # re-entry via REQUIRES region of the same lock
            h_rank = h.decl.rank if h.decl else UNRANKED
            h_name = h.decl.lock_name if h.decl else None
            if h_name and name:
                if h_name == name:
                    if not allowed("lock-cycle", ln, comments, code):
                        findings.append(Finding(
                            relpath, ln, "lock-cycle",
                            f"acquiring {describe(member)} while a lock of "
                            "the same name is already held (self-deadlock)"))
                else:
                    graph.add_edge(h_name, name, f"{relpath}:{ln}")
            if h_rank != UNRANKED and rank != UNRANKED and h_rank >= rank:
                if not allowed("rank-order", ln, comments, code):
                    findings.append(Finding(
                        relpath, ln, "rank-order",
                        f"acquiring {describe(member)} while holding "
                        f"{describe(h.member)}: ranks must strictly "
                        "increase down the stack (common/lock_rank.h)"))
            if h_rank == UNRANKED or rank == UNRANKED:
                if not allowed("unranked-multilock", ln, comments, code):
                    findings.append(Finding(
                        relpath, ln, "unranked-multilock",
                        f"nesting {describe(member)} under "
                        f"{describe(h.member)} with an unranked side; give "
                        "both a rank from common/lock_rank.h before "
                        "nesting them"))
        exempt = allowed("blocking-under-lock", ln, comments, code)
        holds.append(Hold(member, d, depth, ln, exempt))
        if d:
            graph.add_node(d)

    for pos, _, kind, payload in events:
        if kind == "open":
            depth += 1
        elif kind == "close":
            depth -= 1
            holds = [h for h in holds if h.depth <= depth]
        elif kind == "require":
            for member in payload:
                on_acquire(pos, member, "requires")
        elif kind == "acquire":
            on_acquire(pos, payload, "lock")
        elif kind == "wait":
            if not holds:
                continue
            if holds[-1].member == payload:
                continue  # waiting on the innermost held lock: the one
                # legal blocking call under a lock (the wait releases it)
            ln = line_of(pos, code)
            if any(h.exempt for h in holds):
                continue
            if allowed("blocking-under-lock", ln, comments, code):
                continue
            held = ", ".join(describe(h.member) for h in holds)
            findings.append(Finding(
                relpath, ln, "blocking-under-lock",
                f"CondVar::Wait(&{payload}) while the innermost held lock "
                f"is different (held: {held}); a wait only releases its "
                "own mutex, so everything else stays locked for the full "
                "sleep"))
        elif kind == "blocking":
            if not holds:
                continue
            ln = line_of(pos, code)
            if any(h.exempt for h in holds):
                continue
            if allowed("blocking-under-lock", ln, comments, code):
                continue
            held = ", ".join(describe(h.member) for h in holds)
            findings.append(Finding(
                relpath, ln, "blocking-under-lock",
                f"blocking call {payload}() under a held lock (held: "
                f"{held}); hoist the I/O out of the critical section or "
                "justify with // dbfa-lockcheck: "
                "allow(blocking-under-lock): <why>"))


def add_declared_edges(relpath, code, comments, decls, group_decls, graph,
                       findings):
    """Feeds DBFA_ACQUIRED_BEFORE/AFTER annotations into the graph and
    cross-checks them against the ranks."""
    for decl in decls.values():
        graph.add_node(decl)
        pairs = [(decl, t, "before") for t in decl.before] + \
                [(decl, t, "after") for t in decl.after]
        for src_decl, target, direction in pairs:
            other = group_decls.get(base_member(target))
            if other is None or not src_decl.lock_name \
                    or not other.lock_name:
                continue
            graph.add_node(other)
            first, second = ((src_decl, other) if direction == "before"
                             else (other, src_decl))
            graph.add_edge(first.lock_name, second.lock_name,
                           f"declared at {relpath}:{src_decl.line}")
            if (first.rank != UNRANKED and second.rank != UNRANKED
                    and first.rank >= second.rank
                    and not allowed("rank-order", src_decl.line, comments,
                                    code)):
                findings.append(Finding(
                    relpath, src_decl.line, "rank-order",
                    f"annotation orders {first.describe()} before "
                    f"{second.describe()} but the ranks say the opposite; "
                    "fix the ranks or the annotation"))


def check_cycles(graph, findings):
    cycle = graph.find_cycle()
    if cycle is None:
        return
    steps = []
    for src, dst, witness in cycle:
        steps.append(f"  '{src}' -> '{dst}'  ({witness})")
    head = cycle[0][0]
    findings.append(Finding(
        graph.nodes[head].path if head in graph.nodes else "<graph>",
        graph.nodes[head].line if head in graph.nodes else 0,
        "lock-cycle",
        "the global lock-order graph has a cycle — two code paths acquire "
        "these locks in opposite orders:\n" + "\n".join(steps)))


# ---- drivers --------------------------------------------------------------

def iter_source_files(root):
    for top in ("src", "tools", "bench"):
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for name in sorted(files):
                if name.endswith((".cc", ".h", ".cpp")):
                    yield os.path.join(dirpath, name)


def analyze_tree(root, paths, ranks):
    """Full analysis: returns (findings, graph)."""
    findings = []
    graph = LockGraph()
    files = sorted(paths) if paths else sorted(iter_source_files(root))

    parsed = {}  # relpath -> (code, comments, text, decls)
    for path in files:
        relpath = os.path.relpath(os.path.abspath(path), root).replace(
            os.sep, "/")
        with open(path, encoding="utf-8") as f:
            text = f.read()
        code, comments = strip_comments_and_strings(text)
        parsed[relpath] = (code, comments, text,
                          parse_decls(relpath, code, text, ranks))

    def stem_partner(relpath):
        stem, ext = os.path.splitext(relpath)
        if ext == ".h":
            for other_ext in (".cc", ".cpp"):
                if stem + other_ext in parsed:
                    return stem + other_ext
        else:
            if stem + ".h" in parsed:
                return stem + ".h"
        return None

    for relpath in sorted(parsed):
        code, comments, text, decls = parsed[relpath]
        group_decls = dict(decls)
        req_map = header_requires(code) if relpath.endswith(".h") else {}
        partner = stem_partner(relpath)
        if partner:
            p_code, _, _, p_decls = parsed[partner]
            for member, decl in p_decls.items():
                group_decls.setdefault(member, decl)
            if partner.endswith(".h"):
                req_map = header_requires(p_code)
        add_declared_edges(relpath, code, comments, decls, group_decls,
                           graph, findings)
        regions = requires_regions(code, req_map)
        analyze_scopes(relpath, code, comments, group_decls, regions,
                       graph, findings)

    check_cycles(graph, findings)
    return findings, graph


FIXTURE_HEADER_RE = re.compile(
    r"//\s*dbfa-lockcheck-fixture:\s*expect=(\S+)")


def run_self_test(root):
    """Each fixture in tests/lockcheck_fixtures/ is analyzed in isolation
    and declares the exact per-rule finding counts it must produce
    ("expect=lock-cycle:1,rank-order:1" or "expect=none"). A rule that
    stops firing on its known-bad fixture fails the suite."""
    fixture_dir = os.path.join(root, "tests", "lockcheck_fixtures")
    fixtures = sorted(
        f for f in os.listdir(fixture_dir) if f.endswith((".cc", ".h")))
    if not fixtures:
        print("self-test: no fixtures found", file=sys.stderr)
        return 1
    failures = 0
    exercised = set()
    for name in fixtures:
        path = os.path.join(fixture_dir, name)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        m = FIXTURE_HEADER_RE.search(text)
        if not m:
            print(f"self-test: {name}: missing dbfa-lockcheck-fixture "
                  "header")
            failures += 1
            continue
        expected = {}
        if m.group(1) != "none":
            for part in m.group(1).split(","):
                rule, _, count = part.partition(":")
                if rule not in RULES:
                    print(f"self-test: {name}: unknown rule {rule}")
                    failures += 1
                expected[rule] = int(count)
        findings, _ = analyze_tree(root, [path], ranks={})
        got = {}
        for f in findings:
            got[f.rule] = got.get(f.rule, 0) + 1
        if got != expected:
            print(f"self-test: {name}: expected {expected or 'no findings'}"
                  f", got {got or 'no findings'}")
            for f in findings:
                print(f"  {f}")
            failures += 1
        exercised.update(r for r, n in expected.items() if n > 0)
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
                        help="files to check (default: src/, tools/, "
                             "bench/)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above script)")
    parser.add_argument("--dot", default="lock_graph.dot",
                        help="write the lock-order graph here (Graphviz); "
                             "empty string disables")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite in "
                             "tests/lockcheck_fixtures/")
    args = parser.parse_args()

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root) if args.root else os.path.dirname(
        os.path.dirname(script_dir))

    if args.self_test:
        return run_self_test(root)

    ranks = load_ranks(root)
    findings, graph = analyze_tree(root, args.paths, ranks)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as f:
            f.write(graph.to_dot())
    for f in findings:
        print(f)
    if findings:
        print(f"dbfa_lockcheck: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"dbfa_lockcheck: clean ({len(graph.nodes)} named locks, "
          f"{sum(len(e) for e in graph.edges.values())} order edges)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
