// Robustness suite for the SDELTA readers (io/edge_delta_file.h): the
// delta manifest and shard logs are the only inputs the streaming update
// pipeline accepts from the outside world, so hostile bytes -- truncated
// files, flipped bits, out-of-range ids, self-loops, duplicate/garbage
// ops -- must come back as clean Status errors, never as a crash or an
// out-of-bounds read. The whole file runs under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "io/edge_delta_file.h"
#include "io/file.h"
#include "test_util.h"
#include "util/random.h"

namespace semis {
namespace {

using testing_util::ScratchTest;

class EdgeDeltaFileTest : public ScratchTest {};

constexpr uint64_t kVertices = 100;

// Builds a small valid overlay: 2 shards, 3 entries in shard 0 and 2 in
// shard 1 (entry seq 1 is a cross-shard update routed to both).
EdgeDeltaManifest WriteValidDelta(const std::string& delta_path) {
  EdgeDeltaManifest m;
  m.num_vertices = kVertices;
  m.next_sequence = 4;
  m.shard_entries = {3, 2};
  EXPECT_OK(
      CreateEdgeDeltaShardLog(EdgeDeltaShardPath(delta_path, 0), 0, kVertices));
  EXPECT_OK(
      CreateEdgeDeltaShardLog(EdgeDeltaShardPath(delta_path, 1), 1, kVertices));
  {
    EdgeDeltaShardWriter w;
    EXPECT_OK(w.Open(EdgeDeltaShardPath(delta_path, 0), kVertices));
    EXPECT_OK(w.Append({0, EdgeDeltaOp::kInsert, 1, 2}));
    EXPECT_OK(w.Append({1, EdgeDeltaOp::kInsert, 3, 50}));
    EXPECT_OK(w.Append({3, EdgeDeltaOp::kDelete, 1, 2}));
    EXPECT_OK(w.Close());
  }
  {
    EdgeDeltaShardWriter w;
    EXPECT_OK(w.Open(EdgeDeltaShardPath(delta_path, 1), kVertices));
    EXPECT_OK(w.Append({1, EdgeDeltaOp::kInsert, 3, 50}));
    EXPECT_OK(w.Append({2, EdgeDeltaOp::kDelete, 60, 61}));
    EXPECT_OK(w.Close());
  }
  EXPECT_OK(WriteEdgeDeltaManifest(delta_path, m));
  return m;
}

std::vector<char> ReadAllBytes(const std::string& path) {
  std::vector<char> bytes;
  SequentialFileReader r;
  EXPECT_OK(r.Open(path));
  char buf[4096];
  size_t n = 0;
  while (true) {
    EXPECT_OK(r.Read(buf, sizeof(buf), &n));
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  return bytes;
}

void WriteAllBytes(const std::string& path, const std::vector<char>& bytes) {
  SequentialFileWriter w;
  EXPECT_OK(w.Open(path));
  if (!bytes.empty()) EXPECT_OK(w.Append(bytes.data(), bytes.size()));
  EXPECT_OK(w.Close());
}

Status DrainShardLog(const std::string& delta_path,
                     const EdgeDeltaManifest& manifest, uint32_t index,
                     std::vector<EdgeDeltaEntry>* out = nullptr) {
  std::vector<EdgeDeltaEntry> entries;
  Status s = ReadEdgeDeltaShardLog(delta_path, manifest, index, &entries);
  if (out != nullptr) *out = std::move(entries);
  return s;
}

TEST_F(EdgeDeltaFileTest, RoundTrip) {
  const std::string delta = NewPath("g.sadjs.delta");
  EdgeDeltaManifest written = WriteValidDelta(delta);
  EdgeDeltaManifest read;
  ASSERT_OK(ReadEdgeDeltaManifest(delta, &read));
  EXPECT_EQ(read.num_vertices, written.num_vertices);
  EXPECT_EQ(read.next_sequence, written.next_sequence);
  ASSERT_EQ(read.num_shards(), 2u);
  EXPECT_EQ(read.shard_entries[0], 3u);
  EXPECT_EQ(read.shard_entries[1], 2u);
  std::vector<EdgeDeltaEntry> entries;
  ASSERT_OK(DrainShardLog(delta, read, 0, &entries));
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].seq, 0u);
  EXPECT_EQ(entries[0].op, EdgeDeltaOp::kInsert);
  EXPECT_EQ(entries[2].op, EdgeDeltaOp::kDelete);
  entries.clear();
  ASSERT_OK(DrainShardLog(delta, read, 1, &entries));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].seq, 1u);  // routed copy shares the sequence number
}

TEST_F(EdgeDeltaFileTest, WriterRejectsInvalidEntries) {
  const std::string delta = NewPath("w.delta");
  const std::string log0 = EdgeDeltaShardPath(delta, 0);
  ASSERT_OK(CreateEdgeDeltaShardLog(log0, 0, kVertices));
  EdgeDeltaShardWriter w;
  ASSERT_OK(w.Open(log0, kVertices));
  EXPECT_TRUE(w.Append({0, EdgeDeltaOp::kInsert, 5, 5}).IsInvalidArgument());
  EXPECT_TRUE(w.Append({0, EdgeDeltaOp::kInsert, 5, kVertices})
                  .IsInvalidArgument());
  ASSERT_OK(w.Close());
}

TEST_F(EdgeDeltaFileTest, AppendToMissingLogIsNotFound) {
  EdgeDeltaShardWriter w;
  EXPECT_TRUE(
      w.Open(EdgeDeltaShardPath(NewPath("nope.delta"), 0), kVertices)
          .IsNotFound());
}

TEST_F(EdgeDeltaFileTest, MissingFilesAreCleanErrors) {
  const std::string delta = NewPath("missing.delta");
  EdgeDeltaManifest m;
  EXPECT_FALSE(ReadEdgeDeltaManifest(delta, &m).ok());
  m = WriteValidDelta(delta);
  ASSERT_OK(RemoveFileIfExists(EdgeDeltaShardPath(delta, 1)));
  EXPECT_FALSE(DrainShardLog(delta, m, 1).ok());
}

TEST_F(EdgeDeltaFileTest, ManifestRejectsGarbageHeaders) {
  const std::string delta = NewPath("m.delta");
  EdgeDeltaManifest valid = WriteValidDelta(delta);
  std::vector<char> bytes = ReadAllBytes(delta);

  {  // wrong magic
    std::vector<char> bad = bytes;
    bad[0] ^= 0x5A;
    WriteAllBytes(delta, bad);
    EdgeDeltaManifest m;
    EXPECT_TRUE(ReadEdgeDeltaManifest(delta, &m).IsCorruption());
  }
  {  // unsupported version
    std::vector<char> bad = bytes;
    bad[4] = 99;
    WriteAllBytes(delta, bad);
    EdgeDeltaManifest m;
    EXPECT_FALSE(ReadEdgeDeltaManifest(delta, &m).ok());
  }
  {  // zero shards
    std::vector<char> bad = bytes;
    for (int i = 0; i < 4; ++i) bad[24 + i] = 0;
    WriteAllBytes(delta, bad);
    EdgeDeltaManifest m;
    EXPECT_TRUE(ReadEdgeDeltaManifest(delta, &m).IsCorruption());
  }
  {  // impossible shard count: must be rejected BEFORE any allocation
    std::vector<char> bad = bytes;
    for (int i = 0; i < 4; ++i) bad[24 + i] = static_cast<char>(0xFF);
    WriteAllBytes(delta, bad);
    EdgeDeltaManifest m;
    EXPECT_TRUE(ReadEdgeDeltaManifest(delta, &m).IsCorruption());
  }
  {  // trailing bytes
    std::vector<char> bad = bytes;
    bad.push_back('x');
    WriteAllBytes(delta, bad);
    EdgeDeltaManifest m;
    EXPECT_TRUE(ReadEdgeDeltaManifest(delta, &m).IsCorruption());
  }
  {  // per-shard count exceeding the update count
    std::vector<char> bad = bytes;
    bad[32] = 120;  // shard 0 entry count; next_sequence is 4
    WriteAllBytes(delta, bad);
    EdgeDeltaManifest m;
    EXPECT_TRUE(ReadEdgeDeltaManifest(delta, &m).IsCorruption());
  }
  // Restore and confirm the baseline still reads.
  WriteAllBytes(delta, bytes);
  EdgeDeltaManifest m;
  ASSERT_OK(ReadEdgeDeltaManifest(delta, &m));
  EXPECT_EQ(m.next_sequence, valid.next_sequence);
}

TEST_F(EdgeDeltaFileTest, ShardLogRejectsHostileEntries) {
  const std::string delta = NewPath("s.delta");
  EdgeDeltaManifest m = WriteValidDelta(delta);
  const std::string log0 = EdgeDeltaShardPath(delta, 0);
  std::vector<char> bytes = ReadAllBytes(log0);
  // Header is 24 bytes; entries are 20 bytes: u64 seq, u32 op, u32 u,
  // u32 v.
  const size_t kHeader = 24;
  const size_t kEntry = 20;
  ASSERT_EQ(bytes.size(), kHeader + 3 * kEntry);

  auto expect_corrupt = [&](const std::vector<char>& bad) {
    WriteAllBytes(log0, bad);
    Status s = DrainShardLog(delta, m, 0);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  };

  {  // unknown op code
    std::vector<char> bad = bytes;
    bad[kHeader + 8] = 7;
    expect_corrupt(bad);
  }
  {  // self-loop entry (u == v)
    std::vector<char> bad = bytes;
    bad[kHeader + 12] = bad[kHeader + 16];  // u := v (low byte; rest is 0)
    expect_corrupt(bad);
  }
  {  // vertex id out of range
    std::vector<char> bad = bytes;
    bad[kHeader + 12] = static_cast<char>(0xFF);
    bad[kHeader + 13] = static_cast<char>(0xFF);
    expect_corrupt(bad);
  }
  {  // sequence numbers not strictly increasing (duplicate entry seq)
    std::vector<char> bad = bytes;
    bad[kHeader + kEntry] = 0;  // second entry's seq 1 -> 0
    expect_corrupt(bad);
  }
  {  // sequence number beyond the manifest's update count
    std::vector<char> bad = bytes;
    bad[kHeader + 2 * kEntry] = 100;  // third entry's seq 3 -> 100
    expect_corrupt(bad);
  }
  {  // shard index mismatch
    std::vector<char> bad = bytes;
    bad[8] = 1;
    expect_corrupt(bad);
  }
  {  // vertex-count disagreement with the manifest
    std::vector<char> bad = bytes;
    bad[16] = 99;
    expect_corrupt(bad);
  }
  {  // bad magic / version
    std::vector<char> bad = bytes;
    bad[1] ^= 0x40;
    expect_corrupt(bad);
    bad = bytes;
    bad[4] = 42;
    WriteAllBytes(log0, bad);
    EXPECT_FALSE(DrainShardLog(delta, m, 0).ok());
  }
  {  // trailing bytes after the declared entries
    std::vector<char> bad = bytes;
    bad.push_back('z');
    expect_corrupt(bad);
  }
  // Restore and confirm the baseline still reads.
  WriteAllBytes(log0, bytes);
  ASSERT_OK(DrainShardLog(delta, m, 0));
}

TEST_F(EdgeDeltaFileTest, TruncationSweepNeverCrashes) {
  // Every proper prefix of a valid log (and manifest) must be reported as
  // an error: the manifest's counts are authoritative, so losing any byte
  // of a declared entry is Corruption.
  const std::string delta = NewPath("t.delta");
  EdgeDeltaManifest m = WriteValidDelta(delta);
  const std::string log0 = EdgeDeltaShardPath(delta, 0);
  const std::vector<char> log_bytes = ReadAllBytes(log0);
  for (size_t len = 0; len < log_bytes.size(); ++len) {
    WriteAllBytes(log0, {log_bytes.begin(), log_bytes.begin() + len});
    Status s = DrainShardLog(delta, m, 0);
    EXPECT_FALSE(s.ok()) << "truncated log of " << len << " bytes read OK";
  }
  WriteAllBytes(log0, log_bytes);

  const std::vector<char> man_bytes = ReadAllBytes(delta);
  for (size_t len = 0; len < man_bytes.size(); ++len) {
    WriteAllBytes(delta, {man_bytes.begin(), man_bytes.begin() + len});
    EdgeDeltaManifest out;
    Status s = ReadEdgeDeltaManifest(delta, &out);
    EXPECT_FALSE(s.ok()) << "truncated manifest of " << len
                         << " bytes read OK";
  }
  WriteAllBytes(delta, man_bytes);
  EdgeDeltaManifest out;
  ASSERT_OK(ReadEdgeDeltaManifest(delta, &out));
}

TEST_F(EdgeDeltaFileTest, ByteFlipFuzzNeverCrashes) {
  // Seeded random single- and multi-byte corruption of both files. Any
  // Status is acceptable (some flips keep the file valid); the point is
  // that no input crashes, over-reads, or loops -- ASan/UBSan in CI turn
  // silent violations into failures here.
  const std::string delta = NewPath("f.delta");
  EdgeDeltaManifest m = WriteValidDelta(delta);
  const std::string log0 = EdgeDeltaShardPath(delta, 0);
  const std::vector<char> log_bytes = ReadAllBytes(log0);
  const std::vector<char> man_bytes = ReadAllBytes(delta);
  Random rng(20260728);
  for (int round = 0; round < 400; ++round) {
    std::vector<char> bad = (round % 2 == 0) ? log_bytes : man_bytes;
    const int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int i = 0; i < flips; ++i) {
      bad[rng.Uniform(bad.size())] ^= static_cast<char>(rng.Uniform(255) + 1);
    }
    if (round % 2 == 0) {
      WriteAllBytes(log0, bad);
      // Fuzz contract: must not crash; the status itself is arbitrary.
      DrainShardLog(delta, m, 0).IgnoreError();
      WriteAllBytes(log0, log_bytes);
    } else {
      WriteAllBytes(delta, bad);
      EdgeDeltaManifest out;
      Status s = ReadEdgeDeltaManifest(delta, &out);
      if (s.ok()) {
        // A still-valid manifest must at least keep the readers in
        // bounds.
        DrainShardLog(delta, out, 0).IgnoreError();  // fuzz: any status
      }
      WriteAllBytes(delta, man_bytes);
    }
  }
  ASSERT_OK(DrainShardLog(delta, m, 0));
}

}  // namespace
}  // namespace semis
