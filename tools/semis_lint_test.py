#!/usr/bin/env python3
# Copyright (c) the semis authors.
"""Unit tests for semis_lint.py (run directly or via ctest)."""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import semis_lint  # noqa: E402


class LintTestBase(unittest.TestCase):
    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="semis_lint_test.")

    def tearDown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def write(self, rel_path, content):
        abs_path = os.path.join(self.root, rel_path)
        os.makedirs(os.path.dirname(abs_path), exist_ok=True)
        with open(abs_path, "w", encoding="utf-8") as f:
            f.write(content)
        return abs_path

    def lint(self, rel_path):
        abs_path = os.path.join(self.root, rel_path)
        return semis_lint.lint_file(abs_path, rel_path)

    def rules(self, rel_path):
        return [f.rule for f in self.lint(rel_path)]


class UnorderedIterationTest(LintTestBase):
    CODE = """
#include <unordered_map>
struct Foo {
  std::unordered_map<int, int> counts_;
  int Sum() {
    int total = 0;
    for (const auto& kv : counts_) total += kv.second;
    return total;
  }
};
"""

    def test_flags_range_for_in_core(self):
        self.write("src/core/foo.cc", self.CODE)
        findings = self.lint("src/core/foo.cc")
        self.assertEqual([f.rule for f in findings], ["unordered-iteration"])
        self.assertEqual(findings[0].line, 7)

    def test_not_flagged_outside_core(self):
        self.write("src/util/foo.cc", self.CODE)
        self.assertEqual(self.rules("src/util/foo.cc"), [])

    def test_vector_iteration_clean(self):
        self.write("src/core/foo.cc", """
#include <vector>
#include <unordered_set>
std::unordered_set<int> seen;
void F(const std::vector<int>& items) {
  for (int x : items) { seen.insert(x); }
}
""")
        self.assertEqual(self.rules("src/core/foo.cc"), [])

    def test_classic_for_with_unordered_in_body_clean(self):
        # A three-clause for whose BODY touches an unordered container is
        # fine; only iterating the container itself is order-dependent.
        self.write("src/core/foo.cc", """
#include <unordered_set>
std::unordered_set<int> seen;
void F(int n) {
  for (int i = 0; i < n; ++i) { seen.insert(i); }
}
""")
        self.assertEqual(self.rules("src/core/foo.cc"), [])

    def test_multiline_header_and_nested_template(self):
        self.write("src/core/foo.cc", """
#include <unordered_map>
#include <utility>
#include <vector>
std::unordered_map<int, std::pair<int, int>> pairs_;
int Sum() {
  int t = 0;
  for (const std::pair<const int, std::pair<int, int>>& kv :
       pairs_) {
    t += kv.second.first;
  }
  return t;
}
""")
        self.assertEqual(self.rules("src/core/foo.cc"),
                         ["unordered-iteration"])

    def test_suppression_same_line(self):
        self.write("src/core/foo.cc", """
#include <unordered_map>
std::unordered_map<int, int> m_;
int Sum() {
  int t = 0;
  for (const auto& kv : m_) t += kv.second;  // semis-lint: allow(unordered-iteration)
  return t;
}
""")
        self.assertEqual(self.rules("src/core/foo.cc"), [])

    def test_suppression_previous_line(self):
        self.write("src/core/foo.cc", """
#include <unordered_map>
std::unordered_map<int, int> m_;
int Sum() {
  int t = 0;
  // semis-lint: allow(unordered-iteration)
  for (const auto& kv : m_) t += kv.second;
  return t;
}
""")
        self.assertEqual(self.rules("src/core/foo.cc"), [])

    def test_suppression_wrong_rule_does_not_apply(self):
        self.write("src/core/foo.cc", """
#include <unordered_map>
std::unordered_map<int, int> m_;
int Sum() {
  int t = 0;
  // semis-lint: allow(raw-random)
  for (const auto& kv : m_) t += kv.second;
  return t;
}
""")
        self.assertEqual(self.rules("src/core/foo.cc"),
                         ["unordered-iteration"])


class RawRandomTest(LintTestBase):
    def test_rand_flagged_everywhere_in_src(self):
        self.write("src/util/foo.cc", "int F() { return rand(); }\n")
        self.assertEqual(self.rules("src/util/foo.cc"), ["raw-random"])

    def test_random_device_flagged(self):
        self.write("src/core/foo.cc",
                   "#include <random>\nstd::random_device rd;\n")
        self.assertEqual(self.rules("src/core/foo.cc"), ["raw-random"])

    def test_random_h_exempt(self):
        self.write("src/util/random.h",
                   "inline unsigned Seed() { return rand(); }\n")
        self.assertEqual(self.rules("src/util/random.h"), [])

    def test_identifier_containing_rand_clean(self):
        self.write("src/core/foo.cc",
                   "int operand(int x);\nint F() { return operand(3); }\n")
        self.assertEqual(self.rules("src/core/foo.cc"), [])


class WallClockTest(LintTestBase):
    def test_chrono_now_flagged_in_core(self):
        self.write("src/core/foo.cc", """
#include <chrono>
long F() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
""")
        self.assertEqual(self.rules("src/core/foo.cc"), ["wall-clock"])

    def test_time_nullptr_flagged(self):
        self.write("src/graph/foo.cc",
                   "#include <ctime>\nlong F() { return time(nullptr); }\n")
        self.assertEqual(self.rules("src/graph/foo.cc"), ["wall-clock"])

    def test_timer_use_outside_core_clean(self):
        self.write("src/util/timer.cc", """
#include <chrono>
long Now() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
""")
        self.assertEqual(self.rules("src/util/timer.cc"), [])


class PointerTiebreakTest(LintTestBase):
    def test_reinterpret_cast_uintptr_flagged(self):
        self.write("src/core/foo.cc", """
#include <cstdint>
bool Less(const int* a, const int* b) {
  return reinterpret_cast<uintptr_t>(a) < reinterpret_cast<uintptr_t>(b);
}
""")
        self.assertEqual(self.rules("src/core/foo.cc"),
                         ["pointer-tiebreak", "pointer-tiebreak"])

    def test_std_less_pointer_flagged(self):
        self.write("src/core/foo.cc", """
#include <functional>
#include <map>
std::map<int*, int, std::less<int*>> m;
""")
        self.assertEqual(self.rules("src/core/foo.cc"),
                         ["pointer-tiebreak"])

    def test_value_cast_clean(self):
        self.write("src/core/foo.cc", """
#include <cstdint>
uint64_t F(double d) { return static_cast<uint64_t>(d); }
""")
        self.assertEqual(self.rules("src/core/foo.cc"), [])


class RawParallelForTest(LintTestBase):
    CODE = """
#include <thread>
void Pass(int* out) {
  std::thread worker([out] { out[1] = 1; });
  worker.join();
}
"""

    def test_flags_thread_in_core_and_graph(self):
        for rel in ("src/core/foo.cc", "src/graph/foo.h"):
            self.write(rel, self.CODE)
            findings = self.lint(rel)
            self.assertEqual([f.rule for f in findings],
                             ["raw-parallel-for"])
            self.assertEqual(findings[0].line, 4)

    def test_flags_jthread_and_thread_vectors(self):
        self.write("src/core/foo.cc", """
#include <thread>
#include <vector>
void Pass() {
  std::vector<std::thread> workers;
  std::jthread one([] {});
}
""")
        findings = self.lint("src/core/foo.cc")
        self.assertEqual([(f.rule, f.line) for f in findings],
                         [("raw-parallel-for", 5), ("raw-parallel-for", 6)])

    def test_static_members_and_this_thread_clean(self):
        self.write("src/core/foo.cc", """
#include <thread>
unsigned Cores() { return std::thread::hardware_concurrency(); }
std::thread::id Me() { return std::this_thread::get_id(); }
""")
        self.assertEqual(self.rules("src/core/foo.cc"), [])

    def test_suppression_applies(self):
        self.write("src/core/foo.cc", """
#include <thread>
void Pass() {
  // semis-lint: allow(raw-parallel-for) -- joined on the next line
  std::thread worker([] {});
  worker.join();
}
""")
        self.assertEqual(self.rules("src/core/foo.cc"), [])

    def test_not_flagged_outside_core(self):
        # ForEachItem in src/util is the one place a pass starts threads.
        self.write("src/util/foo.h", self.CODE)
        self.assertEqual(self.rules("src/util/foo.h"), [])


class RawIoTest(LintTestBase):
    def test_fopen_flagged_anywhere_in_src(self):
        self.write("src/core/foo.cc",
                   '#include <cstdio>\nvoid F() { fopen("x", "r"); }\n')
        self.assertEqual(self.rules("src/core/foo.cc"), ["raw-io"])

    def test_qualified_open_and_fsync_flagged(self):
        self.write("src/graph/foo.cc", """
#include <fcntl.h>
#include <unistd.h>
void F() {
  int fd = ::open("x", O_RDONLY);
  ::fsync(fd);
}
""")
        self.assertEqual(self.rules("src/graph/foo.cc"),
                         ["raw-io", "raw-io"])

    def test_std_rename_and_filesystem_flagged(self):
        self.write("src/util/foo.cc", """
#include <cstdio>
#include <filesystem>
void F() {
  std::rename("a", "b");
  std::filesystem::remove_all("dir");
}
""")
        self.assertEqual(self.rules("src/util/foo.cc"),
                         ["raw-io", "raw-io"])

    def test_seek_and_qualified_read_flagged(self):
        # The forward skip's lseek, and positional or raw fd reads, stay
        # inside src/io/env.cc.
        self.write("src/io/file.cc", """
#include <unistd.h>
void F(int fd, char* buf) {
  lseek(fd, 16, SEEK_CUR);
  ::read(fd, buf, 8);
  pread(fd, buf, 8, 0);
}
""")
        self.assertEqual(self.rules("src/io/file.cc"),
                         ["raw-io", "raw-io", "raw-io"])

    def test_seek_through_the_seam_clean(self):
        self.write("src/graph/foo.cc", """
#include "io/file.h"
semis::Status F(semis::SequentialFileReader* r, semis::RawFile* f) {
  auto s = r->Skip(16);
  if (!s.ok()) return s;
  size_t n = 0;
  char buf[8];
  return f->Read(buf, sizeof(buf), &n);
}
""")
        self.assertEqual(self.rules("src/graph/foo.cc"), [])

    def test_env_cc_exempt(self):
        self.write("src/io/env.cc",
                   '#include <cstdio>\nvoid F() { fopen("x", "r"); }\n')
        self.assertEqual(self.rules("src/io/env.cc"), [])

    def test_seam_wrappers_clean(self):
        # CamelCase seam methods and namespaced wrappers must not match.
        self.write("src/core/foo.cc", """
#include "io/file.h"
semis::Status F(semis::SequentialFileWriter* w) {
  auto s = w->Open("x");
  if (!s.ok()) return s;
  return semis::RenameFile("a", "b");
}
""")
        self.assertEqual(self.rules("src/core/foo.cc"), [])

    def test_member_open_clean(self):
        self.write("src/core/foo.cc", """
#include <fstream>
void F(std::ifstream& in, std::ifstream* pin) {
  in.open("x");
  pin->open("y");
}
""")
        self.assertEqual(self.rules("src/core/foo.cc"), [])

    def test_suppression_applies(self):
        self.write("src/core/foo.cc", """
#include <cstdio>
// semis-lint: allow(raw-io)
void F() { fopen("x", "r"); }
""")
        self.assertEqual(self.rules("src/core/foo.cc"), [])


class RawRecordDecoderTest(LintTestBase):
    CODE = """
#include "graph/adjacency_file.h"
semis::Status Read(semis::SequentialFileReader* reader,
                   semis::VertexRecordView* view) {
  semis::AdjacencyRecordDecoder decoder;
  return decoder.Decode(reader, view);
}
"""

    def test_flags_a_planted_decoder_in_core(self):
        self.write("src/core/foo.cc", self.CODE)
        findings = self.lint("src/core/foo.cc")
        self.assertEqual([(f.rule, f.line) for f in findings],
                         [("raw-record-decoder", 5)])

    def test_scanner_files_exempt(self):
        for rel in ("src/graph/adjacency_file.h",
                    "src/graph/adjacency_file.cc"):
            self.write(rel, self.CODE)
            self.assertEqual(self.rules(rel), [])

    def test_other_graph_files_flagged(self):
        self.write("src/graph/sharded_adjacency_file.cc", self.CODE)
        self.assertEqual(self.rules("src/graph/sharded_adjacency_file.cc"),
                         ["raw-record-decoder"])

    def test_mention_in_a_comment_clean(self):
        self.write("src/core/foo.h",
                   "// Reads through AdjacencyRecordDecoder's scanner.\n")
        self.assertEqual(self.rules("src/core/foo.h"), [])

    def test_suppression_applies(self):
        self.write("src/core/foo.cc", """
// semis-lint: allow(raw-record-decoder) -- a fixture's decoder
semis::AdjacencyRecordDecoder decoder;
""")
        self.assertEqual(self.rules("src/core/foo.cc"), [])


class CommentAndStringStrippingTest(LintTestBase):
    def test_mentions_in_comments_and_strings_clean(self):
        self.write("src/core/foo.cc", """
// rand() in a comment is fine, as is std::random_device.
/* for (auto& kv : some_unordered_map_) {} */
const char* kMsg = "call rand() then time(nullptr)";
""")
        self.assertEqual(self.rules("src/core/foo.cc"), [])

    def test_line_numbers_survive_block_comments(self):
        self.write("src/core/foo.cc", """/* multi
line
comment */
int F() { return rand(); }
""")
        findings = self.lint("src/core/foo.cc")
        self.assertEqual(findings[0].line, 4)


class CliTest(LintTestBase):
    def test_exit_codes(self):
        self.write("src/core/clean.cc", "int F() { return 1; }\n")
        self.assertEqual(semis_lint.main(["--root", self.root, "src"]), 0)
        self.write("src/core/dirty.cc", "int F() { return rand(); }\n")
        self.assertEqual(semis_lint.main(["--root", self.root, "src"]), 1)
        self.assertEqual(
            semis_lint.main(["--root", self.root, "no/such/dir"]), 2)

    def test_single_file_argument(self):
        path = self.write("src/core/dirty.cc", "int F() { return rand(); }\n")
        self.assertEqual(semis_lint.main(["--root", self.root, path]), 1)


if __name__ == "__main__":
    unittest.main()
