// ShardRecordLocator (graph/shard_record_locator.h): the locator agrees
// with a full scan, a frontier read (ReadRecords) yields exactly the
// records a scan yields for the ids asked for, at every worker count,
// and the forward-only and identity checks hold. The locator's range cut covers every record once from
// checkpoints, the scanner's range open reads the cut back as the scan's
// records, and its end checks fail a misplaced or overlong range with
// Corruption, but a read error at the end check with that error.
#include "graph/shard_record_locator.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "graph/graph.h"
#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/sharded_adjacency_file.h"
#include "io/env.h"
#include "io/file.h"
#include "io/io_stats.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::ScratchTest;
using testing_util::WriteGraphFile;

struct ScannedRecord {
  VertexId id = 0;
  std::vector<VertexId> neighbors;
  uint64_t offset = 0;  // byte offset in its shard
};

class ShardRecordLocatorTest : public ScratchTest {
 protected:
  // A degree-sorted PLRG split into `shards` shards, its manifest, and
  // every record per shard in scan order.
  void MakeStore(uint32_t shards) {
    const Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 2.0), 91);
    const std::string mono = WriteGraphFile(&scratch_, g);
    const std::string sorted = NewPath("sorted");
    ASSERT_OK(
        BuildDegreeSortedAdjacencyFile(mono, sorted, DegreeSortOptions{}));
    manifest_path_ = NewPath("store");
    ASSERT_OK(ShardAdjacencyFile(sorted, manifest_path_, shards));
    ASSERT_OK(ReadShardedAdjacencyManifest(manifest_path_, &manifest_));
    scanned_.assign(shards, {});
    for (uint32_t k = 0; k < shards; ++k) {
      AdjacencyFileScanner scanner;
      ASSERT_OK(scanner.OpenShard(manifest_path_, manifest_, k));
      uint64_t offset = kAdjacencyShardHeaderBytes;
      VertexRecordView rec;
      bool has_next = false;
      while (true) {
        ASSERT_OK(scanner.Next(&rec, &has_next));
        if (!has_next) break;
        scanned_[k].push_back({rec.id, {rec.begin(), rec.end()}, offset});
        offset += AdjacencyRecordBytes(rec.degree);
      }
      ASSERT_OK(scanner.Close());
    }
  }

  // Reads `range` of shard `shard` through the scanner's range open
  // into `out` (offsets included), charging `io`; `*edges` counts the
  // edges read.
  Status ReadRange(uint32_t shard, const ShardRecordRange& range, IoStats* io,
                   std::vector<ScannedRecord>* out, uint64_t* edges) {
    AdjacencyFileScanner scanner(io);
    SEMIS_RETURN_IF_ERROR(
        scanner.OpenShard(manifest_path_, manifest_, shard, range));
    uint64_t offset = range.begin_offset;
    VertexRecordView rec;
    bool has_next = false;
    while (true) {
      SEMIS_RETURN_IF_ERROR(scanner.Next(&rec, &has_next));
      if (!has_next) break;
      out->push_back({rec.id, {rec.begin(), rec.end()}, offset});
      offset += AdjacencyRecordBytes(rec.degree);
      *edges += rec.degree;
    }
    return scanner.Close();
  }

  std::string manifest_path_;
  ShardedAdjacencyManifest manifest_;
  std::vector<std::vector<ScannedRecord>> scanned_;
};

// The length of shard `shard` as its manifest entry gives it.
uint64_t ShardBytes(const ShardedAdjacencyManifest& manifest, uint32_t shard) {
  return WholeShardRange(manifest.shards[shard]).end_offset;
}

TEST_F(ShardRecordLocatorTest, LocatorAgreesWithTheScan) {
  MakeStore(3);
  ShardRecordLocator locator;
  IoStats io;
  ASSERT_OK(locator.Build(manifest_path_, manifest_, &io));
  EXPECT_EQ(io.sequential_scans, 1u);
  uint64_t rank = 0;
  for (uint32_t k = 0; k < scanned_.size(); ++k) {
    EXPECT_EQ(locator.first_rank(k), rank);
    for (const ScannedRecord& r : scanned_[k]) {
      EXPECT_EQ(locator.rank(r.id), rank);
      EXPECT_EQ(locator.ShardOf(r.id), k);
      rank++;
    }
  }
  EXPECT_EQ(locator.first_rank(manifest_.num_shards()), rank);
  EXPECT_GE(locator.MemoryBytes(), rank * sizeof(uint32_t));

  // SortByRank orders by record position and drops repeats.
  std::vector<VertexId> ids = {scanned_[2][5].id, scanned_[0][7].id,
                               scanned_[2][5].id, scanned_[0][3].id};
  locator.SortByRank(&ids);
  EXPECT_EQ(ids, (std::vector<VertexId>{scanned_[0][3].id, scanned_[0][7].id,
                                        scanned_[2][5].id}));
}

TEST_F(ShardRecordLocatorTest, FrontierReadMatchesTheScanAtEveryWorkerCount) {
  MakeStore(3);
  ShardRecordLocator locator;
  ASSERT_OK(locator.Build(manifest_path_, manifest_, nullptr));
  // Ids in rank order across all shards, with gaps of 1..40 records:
  // some stay inside one checkpoint block, some jump several.
  std::vector<VertexId> ids;
  std::vector<const ScannedRecord*> want;
  for (const std::vector<ScannedRecord>& shard : scanned_) {
    uint64_t gap = 1;
    for (uint64_t i = 0; i < shard.size(); i += gap, gap = gap % 40 + 3) {
      ids.push_back(shard[i].id);
      want.push_back(&shard[i]);
    }
  }
  ASSERT_GT(ids.size(), 100u);

  for (size_t workers : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    std::vector<std::vector<ScannedRecord>> got(manifest_.num_shards());
    IoStats io;
    ASSERT_OK(locator.ReadRecords(
        manifest_path_, manifest_, ids, workers, &io,
        [&](uint32_t shard, const VertexRecordView& rec) {
          got[shard].push_back({rec.id, {rec.begin(), rec.end()}, 0});
        }));
    size_t next = 0;
    for (uint32_t k = 0; k < got.size(); ++k) {
      for (const ScannedRecord& r : got[k]) {
        ASSERT_LT(next, want.size());
        EXPECT_EQ(r.id, want[next]->id);
        EXPECT_EQ(r.neighbors, want[next]->neighbors) << "vertex " << r.id;
        EXPECT_EQ(locator.ShardOf(r.id), k);
        next++;
      }
    }
    EXPECT_EQ(next, want.size());
    EXPECT_EQ(io.records_decoded, ids.size());
    EXPECT_EQ(io.sequential_scans, 0u);
  }
}

TEST_F(ShardRecordLocatorTest, IdsOutOfRankOrderAreInvalidArgument) {
  MakeStore(3);
  ShardRecordLocator locator;
  ASSERT_OK(locator.Build(manifest_path_, manifest_, nullptr));
  for (size_t workers : {size_t{1}, size_t{2}}) {
    const auto read = [&](const std::vector<VertexId>& ids) {
      return locator.ReadRecords(manifest_path_, manifest_, ids, workers,
                                 nullptr,
                                 [](uint32_t, const VertexRecordView&) {});
    };
    // An id behind its shard's read position.
    EXPECT_TRUE(
        read({scanned_[1][20].id, scanned_[1][3].id}).IsInvalidArgument());
    // A shard's ids after a later shard's.
    EXPECT_TRUE(read({scanned_[0][1].id, scanned_[2][1].id,
                      scanned_[0][9].id})
                    .IsInvalidArgument());
  }
}

TEST_F(ShardRecordLocatorTest, CheckpointNamingTheWrongRecordIsCorruption) {
  MakeStore(3);
  ShardRecordLocator locator;
  ASSERT_OK(locator.Build(manifest_path_, manifest_, nullptr));
  // Shard 1's checkpoints each name the record after the right one.
  const std::vector<ScannedRecord>& shard = scanned_[1];
  std::vector<uint64_t> shifted;
  for (size_t i = 0; i < shard.size(); i += kLocatorCheckpointStride) {
    shifted.push_back(shard[std::min(i + 1, shard.size() - 1)].offset);
  }
  locator.ReplaceCheckpoints(1, std::move(shifted));
  for (size_t workers : {size_t{1}, size_t{2}}) {
    const std::vector<VertexId> ids = {scanned_[0][2].id, shard[40].id,
                                       scanned_[2][2].id};
    std::vector<VertexId> visited;
    const Status s = locator.ReadRecords(
        manifest_path_, manifest_, ids, workers, nullptr,
        [&](uint32_t shard_index, const VertexRecordView& rec) {
          if (shard_index == 1) visited.push_back(rec.id);
        });
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_TRUE(visited.empty());
  }
}

TEST_F(ShardRecordLocatorTest, CutCoversEveryRecordOnceFromCheckpoints) {
  MakeStore(3);
  ShardRecordLocator locator;
  ASSERT_OK(locator.Build(manifest_path_, manifest_, nullptr));
  for (size_t max_ranges : {size_t{1}, size_t{4}, size_t{32}}) {
    for (uint32_t k = 0; k < manifest_.num_shards(); ++k) {
      SCOPED_TRACE("R = " + std::to_string(max_ranges) + ", shard " +
                   std::to_string(k));
      const std::vector<ScannedRecord>& recs = scanned_[k];
      ASSERT_GT(recs.size(), 4 * kLocatorCheckpointStride);
      const uint64_t begin = kAdjacencyShardHeaderBytes;
      const uint64_t end = ShardBytes(manifest_, k);
      const std::vector<ShardRecordRange> ranges =
          locator.CutRanges(k, manifest_.shards[k], max_ranges);
      ASSERT_FALSE(ranges.empty());
      EXPECT_LE(ranges.size(), max_ranges);
      if (max_ranges > 1) EXPECT_GT(ranges.size(), 1u);
      // Back to back from the shard's first record to its last byte.
      EXPECT_EQ(ranges.front().first_record, 0u);
      EXPECT_EQ(ranges.front().begin_offset, begin);
      EXPECT_EQ(ranges.back().end_record, recs.size());
      EXPECT_EQ(ranges.back().end_offset, end);
      for (size_t i = 0; i < ranges.size(); ++i) {
        const ShardRecordRange& r = ranges[i];
        EXPECT_LT(r.first_record, r.end_record) << "range " << i;
        // Every range starts on a checkpoint, at that record's offset.
        EXPECT_EQ(r.first_record % kLocatorCheckpointStride, 0u);
        EXPECT_EQ(r.begin_offset, recs[r.first_record].offset);
        if (i + 1 == ranges.size()) continue;
        EXPECT_EQ(r.end_record, ranges[i + 1].first_record);
        EXPECT_EQ(r.end_offset, ranges[i + 1].begin_offset);
        // The cut is the first checkpoint at or after an even byte
        // target: some target lies above the checkpoint before it.
        const uint64_t before =
            recs[r.end_record - kLocatorCheckpointStride].offset;
        bool first_after_a_target = false;
        for (uint64_t t = 1; t < max_ranges; ++t) {
          const uint64_t target = begin + (end - begin) * t / max_ranges;
          if (before < target && target <= r.end_offset) {
            first_after_a_target = true;
          }
        }
        EXPECT_TRUE(first_after_a_target) << "range " << i;
      }
    }
  }
}

TEST_F(ShardRecordLocatorTest, CutOfTinyAndEmptyShardsIsOneRange) {
  // Six vertices over eight shards: shards of one record, one
  // checkpoint each, and empty trailing shards.
  const Graph g = Graph::FromEdges(6, {{0, 1}, {2, 3}, {4, 5}, {1, 2}});
  const std::string mono = WriteGraphFile(&scratch_, g);
  manifest_path_ = NewPath("tiny");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest_path_, 8));
  ASSERT_OK(ReadShardedAdjacencyManifest(manifest_path_, &manifest_));
  ShardRecordLocator locator;
  ASSERT_OK(locator.Build(manifest_path_, manifest_, nullptr));
  uint32_t empty_shards = 0;
  for (uint32_t k = 0; k < manifest_.num_shards(); ++k) {
    SCOPED_TRACE("shard " + std::to_string(k));
    const uint64_t records = manifest_.shards[k].num_records;
    ASSERT_LE(records, kLocatorCheckpointStride);
    if (records == 0) empty_shards++;
    for (size_t max_ranges : {size_t{1}, size_t{4}, size_t{32}}) {
      const std::vector<ShardRecordRange> ranges =
          locator.CutRanges(k, manifest_.shards[k], max_ranges);
      ASSERT_EQ(ranges.size(), 1u);
      EXPECT_EQ(ranges[0].first_record, 0u);
      EXPECT_EQ(ranges[0].end_record, records);
      EXPECT_EQ(ranges[0].begin_offset, kAdjacencyShardHeaderBytes);
      EXPECT_EQ(ranges[0].end_offset, ShardBytes(manifest_, k));
      // The one range reads the shard, an empty one included.
      IoStats io;
      std::vector<ScannedRecord> got;
      uint64_t edges = 0;
      ASSERT_OK(ReadRange(k, ranges[0], &io, &got, &edges));
      EXPECT_EQ(got.size(), records);
      EXPECT_EQ(edges, manifest_.shards[k].num_directed_edges);
      EXPECT_EQ(io.bytes_read, ShardBytes(manifest_, k));
    }
  }
  EXPECT_GT(empty_shards, 0u);
}

TEST_F(ShardRecordLocatorTest, RangeReadsMatchTheScan) {
  MakeStore(3);
  ShardRecordLocator locator;
  ASSERT_OK(locator.Build(manifest_path_, manifest_, nullptr));
  for (size_t max_ranges : {size_t{1}, size_t{4}, size_t{32}}) {
    for (uint32_t k = 0; k < manifest_.num_shards(); ++k) {
      SCOPED_TRACE("R = " + std::to_string(max_ranges) + ", shard " +
                   std::to_string(k));
      // The scanner's counters for the same shard.
      IoStats scan_io;
      ASSERT_OK(ForEachShardRecord(manifest_path_, manifest_, k, &scan_io,
                                   [](const VertexRecordView&) {}));
      IoStats io;
      std::vector<ScannedRecord> got;
      uint64_t edges = 0;
      for (const ShardRecordRange& range :
           locator.CutRanges(k, manifest_.shards[k], max_ranges)) {
        ASSERT_OK(ReadRange(k, range, &io, &got, &edges));
      }
      ASSERT_EQ(got.size(), scanned_[k].size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, scanned_[k][i].id);
        EXPECT_EQ(got[i].neighbors, scanned_[k][i].neighbors);
        EXPECT_EQ(got[i].offset, scanned_[k][i].offset);
      }
      EXPECT_EQ(edges, manifest_.shards[k].num_directed_edges);
      // Skipped bytes are not charged: the ranges read what a scan reads.
      EXPECT_EQ(io.records_decoded, scan_io.records_decoded);
      EXPECT_EQ(io.bytes_read, scan_io.bytes_read);
      EXPECT_EQ(io.sequential_scans, 0u);
    }
  }
}

TEST_F(ShardRecordLocatorTest, RangeChecksAreCorruption) {
  // The scanner's end rule on a range: its records end exactly at its end
  // offset, none runs past it, and only the shard's last range is checked
  // for trailing bytes. Whether a range starts at the vertex the locator
  // ranks there is compaction's check (IncrementalStreamTest).
  MakeStore(3);
  ShardRecordLocator locator;
  ASSERT_OK(locator.Build(manifest_path_, manifest_, nullptr));
  const std::vector<ScannedRecord>& shard = scanned_[1];
  const std::string path = ShardFilePath(manifest_path_, 1);
  const auto read = [&](const ShardRecordRange& range) {
    IoStats io;
    std::vector<ScannedRecord> got;
    uint64_t edges = 0;
    return ReadRange(1, range, &io, &got, &edges);
  };
  const auto expect_corruption = [&](const Status& s, const char* check) {
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.ToString().find(check), std::string::npos) << s.ToString();
    EXPECT_NE(s.ToString().find(path), std::string::npos) << s.ToString();
  };
  const std::vector<ShardRecordRange> ranges =
      locator.CutRanges(1, manifest_.shards[1], 4);
  ASSERT_GE(ranges.size(), 3u);
  for (const ShardRecordRange& range : ranges) ASSERT_OK(read(range));

  // A range whose records end short of its end offset: the cut of a
  // locator whose checkpoints each name the record after, whose first
  // range ends one record late.
  {
    ShardRecordLocator shifted = locator;
    std::vector<uint64_t> offsets;
    for (size_t i = 0; i < shard.size(); i += kLocatorCheckpointStride) {
      offsets.push_back(shard[std::min(i + 1, shard.size() - 1)].offset);
    }
    shifted.ReplaceCheckpoints(1, std::move(offsets));
    const std::vector<ShardRecordRange> moved =
        shifted.CutRanges(1, manifest_.shards[1], 4);
    ASSERT_GE(moved.size(), 2u);
    expect_corruption(read(moved[0]), "end short");
  }
  // A range whose last record runs past its end offset.
  {
    ShardRecordRange short_range = ranges[1];
    short_range.end_offset -= sizeof(VertexId);
    expect_corruption(read(short_range), "runs past");
  }
  // A range outside the shard is the caller's error.
  {
    ShardRecordRange past = ranges.back();
    past.end_offset += sizeof(VertexId);
    EXPECT_TRUE(read(past).IsInvalidArgument());
    past = ranges.back();
    past.end_record++;
    EXPECT_TRUE(read(past).IsInvalidArgument());
  }
  // Bytes after the shard's last record fail its last range only.
  {
    SequentialFileWriter writer;
    ASSERT_OK(writer.OpenAppend(path));
    ASSERT_OK(writer.AppendU32(0));
    ASSERT_OK(writer.Close());
    for (size_t i = 0; i + 1 < ranges.size(); ++i) {
      ASSERT_OK(read(ranges[i]));
    }
    expect_corruption(read(ranges.back()), "trailing bytes");
  }
}

TEST_F(ShardRecordLocatorTest, ReadErrorAtTheEndCheckIsAnIoError) {
  // A scanner whose buffer holds exactly its stream's bytes, as each of
  // compaction's ranges has, learns that the file ends only from one
  // more read in the end check. A fault at that read is an I/O error,
  // not trailing bytes: for a whole shard and for its last range.
  MakeStore(3);
  ShardRecordLocator locator;
  ASSERT_OK(locator.Build(manifest_path_, manifest_, nullptr));
  const std::string path = ShardFilePath(manifest_path_, 1);
  const ShardRecordRange last =
      locator.CutRanges(1, manifest_.shards[1], 4).back();
  ASSERT_GT(last.first_record, 0u);
  for (const ShardRecordRange& range :
       {WholeShardRange(manifest_.shards[1]), last}) {
    SCOPED_TRACE("records " + std::to_string(range.first_record) + ".." +
                 std::to_string(range.end_record));
    const uint64_t start = range.first_record == 0 ? 0 : range.begin_offset;
    // Reads the range with `spec` armed on the shard; counts the records
    // handed out and the shard reads made.
    const auto read = [&](const std::string& spec_text, uint64_t* records,
                          uint64_t* reads) {
      FaultSpec spec;
      EXPECT_OK(FaultSpec::Parse(spec_text + "@" + path, &spec));
      FaultInjectionFileSystem fs(PosixFileSystem(), spec);
      ScopedFileSystem scoped(&fs);
      AdjacencyFileScanner scanner(nullptr, range.end_offset - start);
      Status s = scanner.OpenShard(manifest_path_, manifest_, 1, range);
      VertexRecordView rec;
      bool has_next = true;
      while (s.ok() && has_next) {
        s = scanner.Next(&rec, &has_next);
        if (s.ok() && has_next) ++*records;
      }
      const Status closed = scanner.Close();
      *reads = fs.ops_matched();
      return s.ok() ? closed : s;
    };
    uint64_t records = 0, reads = 0;
    ASSERT_OK(read("read:1000000000", &records, &reads));
    ASSERT_EQ(records, range.end_record - range.first_record);
    // The last read is the end check's: every record was handed out
    // before it.
    uint64_t faulted_records = 0, faulted_reads = 0;
    const Status s = read("read:" + std::to_string(reads), &faulted_records,
                          &faulted_reads);
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_EQ(faulted_records, records);
  }
}

}  // namespace
}  // namespace semis
