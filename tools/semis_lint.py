#!/usr/bin/env python3
# Copyright (c) the semis authors.
"""Determinism lint for the semis codebase.

The repo's standing contract is byte-identical output at every shard and
thread count.  This checker forbids the constructs that historically break
that contract, before they reach a differential test:

  unordered-iteration  Range-for over a std::unordered_{map,set,multimap,
                       multiset} in src/core or src/graph.  Hash-table
                       iteration order is libstdc++-version- and
                       pointer-dependent; anything it feeds into output or
                       commit order is nondeterministic.
  raw-random           rand()/srand()/random()/drand48()/std::random_device
                       anywhere under src/ except src/util/random.h.  All
                       randomness must flow through the seeded xoshiro256**
                       in util/random.h so runs are reproducible.
  wall-clock           std::chrono ::now(), time(nullptr), gettimeofday,
                       clock() in src/core or src/graph.  Deterministic
                       paths must not read the clock; timing belongs in
                       util/timer.h and the bench layer.
  pointer-tiebreak     reinterpret_cast<uintptr_t/intptr_t/size_t>(ptr) or
                       std::less<T*> in src/core or src/graph.  Pointer
                       values vary across runs (ASLR, allocator state);
                       they must never break ties.
  raw-parallel-for     A std::thread or std::jthread in src/core or
                       src/graph.  A pass over shards starts its workers
                       only through ForEachItem (util/fan_out.h), which
                       joins them before it returns and reports the first
                       error in item order; a hand-rolled thread lets the
                       schedule pick which error a failed pass reports, or
                       outlive its pass.
  raw-io               Direct OS file I/O (fopen/::open/::read/lseek/pread/
                       mmap/fsync/rename/unlink/mkdtemp/std::filesystem,
                       ...) anywhere under src/ except src/io/env.cc.  All
                       file-system access must route through the FileSystem
                       seam in io/env.h so fault injection (SEMIS_FAULT_SPEC)
                       and the retry policy see every operation.
  raw-record-decoder   AdjacencyRecordDecoder named in code anywhere under
                       src/ except src/graph/adjacency_file.{h,cc}.
                       AdjacencyFileScanner is the one reader that decodes
                       records, so every record passes its stream checks
                       (the end byte, trailing bytes, the latched error);
                       a reader built on the bare decoder would skip them.

A finding on line N is suppressed by `// semis-lint: allow(<rule>)` on
line N or line N-1.  Use a suppression only with a justification comment:
the sanctioned cases are order-insensitive reductions (e.g. summing bytes
over a map for memory accounting).

Usage:  semis_lint.py [--root DIR] [paths...]

Paths default to src/ under the root.  Directories are walked for
.h/.cc/.cpp files.  Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import os
import re
import sys

RULES = (
    "unordered-iteration",
    "raw-random",
    "wall-clock",
    "pointer-tiebreak",
    "raw-parallel-for",
    "raw-io",
    "raw-record-decoder",
)

# Rules that only apply inside the deterministic core.  raw-random and
# raw-io apply to all of src/ (a seeded run must be reproducible end to
# end, and every file-system call must be fault-injectable).
CORE_ONLY_RULES = {"unordered-iteration", "wall-clock", "pointer-tiebreak",
                   "raw-parallel-for"}
CORE_DIRS = ("src/core", "src/graph")
RANDOM_EXEMPT = "src/util/random.h"
# The posix implementation of the FileSystem seam is the one place raw OS
# calls are allowed.
RAW_IO_EXEMPT = ("src/io/env.cc",)
# The scanner's own files: the decoder is declared and used there only.
RECORD_DECODER_EXEMPT = ("src/graph/adjacency_file.h",
                         "src/graph/adjacency_file.cc")

SUPPRESS_RE = re.compile(r"//\s*semis-lint:\s*allow\(([a-z-]+)\)")

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<"
)
FOR_HEAD_RE = re.compile(r"\bfor\s*\(")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

RAW_RANDOM_RE = re.compile(
    r"\b(?:s?rand|random|drand48)\s*\(|\brandom_device\b"
)
WALL_CLOCK_RE = re.compile(
    r"::now\s*\(\s*\)|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
    r"|\bgettimeofday\s*\(|\bclock\s*\(\s*\)"
)
POINTER_TIEBREAK_RE = re.compile(
    r"\breinterpret_cast\s*<\s*(?:std::)?(?:u?intptr_t|size_t)\s*>"
    r"|\bstd::less\s*<[^<>;]*\*\s*>"
)
# The thread types themselves, wherever they are named: `std::thread t(`,
# `std::jthread{`, `std::vector<std::thread>`. Their static members
# (`std::thread::hardware_concurrency()`, `std::thread::id`) and
# `std::this_thread` start no thread and do not match.
RAW_PARALLEL_FOR_RE = re.compile(r"\bstd\s*::\s*j?thread\b(?!\s*::)")
RAW_RECORD_DECODER_RE = re.compile(r"\bAdjacencyRecordDecoder\b")

# Unqualified C-library / posix calls.  The lookbehind rejects member calls
# (`f.open(`, `f->open(`), identifiers that merely end in a name
# (`Reopen(`), and qualified names (those are matched by RAW_IO_QUAL_RE so
# wrapper namespaces like `semis::RenameFile` never match).  Case matters:
# the repo's own seam methods are CamelCase (`Open`, `RenameFile`).
RAW_IO_CALL_RE = re.compile(
    r"(?<![A-Za-z0-9_.>:])"
    r"(?:fopen|fdopen|freopen|open|openat|creat|fsync|fdatasync|"
    r"rename|renameat|link|linkat|unlink|unlinkat|remove|"
    r"mkdtemp|mkstemp|mkdir|rmdir|"
    r"lseek(?:64)?|pread(?:64)?|pwrite(?:64)?|mmap(?:64)?)"
    r"\s*\("
)
# `::`-qualified forms (`::open(`, `::read(`, `std::rename(`) plus any
# use of std::filesystem, which bypasses the seam wholesale. Unqualified
# read/write are left alone: too many methods share those names.
RAW_IO_QUAL_RE = re.compile(
    r"::\s*(?:fopen|open|openat|fsync|fdatasync|rename|link|unlink|"
    r"remove|mkdtemp|mkstemp|read|write|lseek|pread)\s*\("
    r"|::\s*filesystem\b"
)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving newlines.

    Keeps line structure intact so findings report real line numbers.
    AST-light: no preprocessor awareness, which is fine for this codebase
    (no string-pasting macro tricks in the linted trees).
    """
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def collect_suppressions(text):
    """Maps rule -> set of line numbers where a finding is allowed."""
    allowed = {rule: set() for rule in RULES}
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in SUPPRESS_RE.finditer(line):
            rule = match.group(1)
            if rule not in allowed:
                sys.stderr.write(
                    "warning: unknown semis-lint rule in suppression: "
                    "%s (line %d)\n" % (rule, lineno))
                continue
            # The suppression covers its own line and the next one, so it
            # can sit on the line above a long statement.
            allowed[rule].add(lineno)
            allowed[rule].add(lineno + 1)
    return allowed


def unordered_names(code):
    """Identifiers declared with an unordered container type in this file.

    Heuristic: after a `unordered_xxx<...>` type, the declared name is the
    next identifier past the matching `>`.  Good enough for the repo's
    declaration style (one declarator per line, no function-pointer
    contortions).
    """
    names = set()
    for match in UNORDERED_DECL_RE.finditer(code):
        depth = 1
        i = match.end()
        n = len(code)
        while i < n and depth > 0:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
            i += 1
        tail = code[i:i + 200]
        ident = IDENT_RE.search(tail)
        if ident and tail[:ident.start()].strip() in ("", "&", "*", "const"):
            names.add(ident.group(0))
    return names


def line_of(code, offset):
    return code.count("\n", 0, offset) + 1


def range_for_exprs(code):
    """Yields (offset, range_expr) for each range-based for loop.

    Walks to the matching close paren of each `for (` and splits on the
    top-level `:` (ignoring `::`); classic three-clause for loops have a
    top-level `;` and are skipped.  Handles multi-line headers and parens
    or templates inside the range expression.
    """
    for match in FOR_HEAD_RE.finditer(code):
        start = match.end()
        depth = 1
        i = start
        n = len(code)
        colon = -1
        is_classic = False
        while i < n and depth > 0:
            c = code[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif depth == 1 and c == ";":
                is_classic = True
                break
            elif depth == 1 and c == ":" and colon < 0:
                if code[i - 1] == ":" or (i + 1 < n and code[i + 1] == ":"):
                    i += 2
                    continue
                colon = i
            i += 1
        if is_classic or colon < 0:
            continue
        end = i - 1  # position of the closing paren
        yield match.start(), code[colon + 1:end]


def check_unordered_iteration(path, code, findings):
    names = unordered_names(code)
    if not names:
        return
    for offset, range_expr in range_for_exprs(code):
        for ident in IDENT_RE.findall(range_expr):
            if ident in names:
                findings.append(Finding(
                    path, line_of(code, offset),
                    "unordered-iteration",
                    "range-for over unordered container '%s'; iteration "
                    "order is not deterministic" % ident))
                break


def check_regex_rule(path, code, rule, regex, message, findings):
    for match in regex.finditer(code):
        findings.append(Finding(path, line_of(code, match.start()), rule,
                                message))


def is_under(rel, prefixes):
    rel = rel.replace(os.sep, "/")
    return any(rel == p or rel.startswith(p + "/") for p in prefixes)


def lint_file(abs_path, rel_path):
    with open(abs_path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    allowed = collect_suppressions(text)
    code = strip_comments_and_strings(text)
    findings = []

    in_core = is_under(rel_path, CORE_DIRS)
    if in_core:
        check_unordered_iteration(rel_path, code, findings)
        check_regex_rule(
            rel_path, code, "wall-clock", WALL_CLOCK_RE,
            "clock read in a deterministic path; use util/timer.h from "
            "the bench layer instead", findings)
        check_regex_rule(
            rel_path, code, "pointer-tiebreak", POINTER_TIEBREAK_RE,
            "pointer value used as an ordering key; pointer values vary "
            "across runs", findings)
        check_regex_rule(
            rel_path, code, "raw-parallel-for", RAW_PARALLEL_FOR_RE,
            "raw std::thread in a pass; run the items through "
            "ForEachItem (util/fan_out.h) so the workers are joined and "
            "a failed pass returns the first error in item order",
            findings)
    if rel_path.replace(os.sep, "/") != RANDOM_EXEMPT:
        check_regex_rule(
            rel_path, code, "raw-random", RAW_RANDOM_RE,
            "raw randomness source; use the seeded generator in "
            "util/random.h", findings)
    if rel_path.replace(os.sep, "/") not in RAW_IO_EXEMPT:
        raw_io_msg = ("direct OS file I/O bypasses the FileSystem seam; "
                      "route through io/env.h (io/file.h) so fault "
                      "injection and retries see the operation")
        check_regex_rule(rel_path, code, "raw-io", RAW_IO_CALL_RE,
                         raw_io_msg, findings)
        check_regex_rule(rel_path, code, "raw-io", RAW_IO_QUAL_RE,
                         raw_io_msg, findings)
    if (is_under(rel_path, ("src",)) and
            rel_path.replace(os.sep, "/") not in RECORD_DECODER_EXEMPT):
        check_regex_rule(
            rel_path, code, "raw-record-decoder", RAW_RECORD_DECODER_RE,
            "records are decoded only by AdjacencyFileScanner "
            "(graph/adjacency_file.h), whose stream checks every record "
            "must pass", findings)

    return [f for f in findings if f.line not in allowed[f.rule]]


def iter_source_files(root, paths):
    for path in paths:
        abs_path = path if os.path.isabs(path) else os.path.join(root, path)
        if os.path.isdir(abs_path):
            for dirpath, dirnames, filenames in os.walk(abs_path):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith((".h", ".cc", ".cpp")):
                        yield os.path.join(dirpath, name)
        elif os.path.isfile(abs_path):
            yield abs_path
        else:
            raise FileNotFoundError(abs_path)


def main(argv):
    parser = argparse.ArgumentParser(
        description="semis determinism lint (see module docstring)")
    parser.add_argument("--root", default=".",
                        help="repo root rule paths are interpreted "
                             "against (default: cwd)")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: src/ under --root)")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    paths = args.paths or ["src"]
    findings = []
    try:
        for abs_path in iter_source_files(root, paths):
            rel_path = os.path.relpath(os.path.abspath(abs_path), root)
            findings.extend(lint_file(abs_path, rel_path))
    except FileNotFoundError as err:
        sys.stderr.write("semis_lint: no such file or directory: %s\n"
                         % err)
        return 2

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding)
    if findings:
        print("semis_lint: %d finding(s)" % len(findings))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
