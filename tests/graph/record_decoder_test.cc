// The record decoder and stream checks of AdjacencyFileScanner, which
// reads SADJ files (Open) and SADS shard files (OpenShard) alike. A record
// the reader holds whole is decoded in place; one that crosses a buffer
// fill, or is longer than the buffer, falls back to ReadU32/ReadExact.
// Every case runs on both formats, and every corruption is hit on both
// paths. On both paths a view has the record's header words right in
// front of its neighbors, which is what lets compaction copy a record as
// one byte run. Every shard is also drained as a store scan
// (OpenStore), which must yield what the shard scan yields and fail where
// it fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "graph/adjacency_file.h"
#include "graph/sharded_adjacency_file.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::ScratchTest;
using testing_util::WriteGraphFile;

class RecordDecoderTest : public ScratchTest {};

// The readers' buffer: a record starting kFill - 4 bytes into the file
// has its header split across the first two fills.
constexpr uint64_t kFill = 1 << 20;
constexpr uint32_t kSadjMagic = 0x4A444153u;

enum class Format { kSadj, kSads };

std::string FormatName(Format f) {
  return f == Format::kSadj ? "SADJ" : "SADS";
}

uint64_t HeaderBytes(Format f) {
  return f == Format::kSadj ? 32 : kAdjacencyShardHeaderBytes;
}

// A record stream as u32 words (id, degree, neighbors...) plus the header
// it is declared under.
struct Stream {
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  uint32_t max_degree = 0;
  uint64_t num_records = 0;
  std::vector<uint32_t> words;

  // Appends a record; returns the word index of its header.
  size_t Add(VertexId id, const std::vector<VertexId>& neighbors) {
    const size_t at = words.size();
    words.push_back(id);
    words.push_back(static_cast<uint32_t>(neighbors.size()));
    words.insert(words.end(), neighbors.begin(), neighbors.end());
    num_records++;
    num_edges += neighbors.size();
    max_degree =
        std::max(max_degree, static_cast<uint32_t>(neighbors.size()));
    return at;
  }
};

// Records 0..K of `f` put record K + 1 at byte kFill - 4, so its header
// is split across the first two fills: record 0 has one neighbor (12 B),
// the rest none (8 B). The straddler has three neighbors, then two more
// records follow. Returns the straddler's word index.
size_t StraddleLayout(Format f, Stream* s) {
  const uint64_t k = (kFill - 4 - HeaderBytes(f) - 12) / 8;
  s->num_vertices = k + 4;
  s->Add(0, {1});
  for (uint64_t v = 1; v <= k; ++v) s->Add(static_cast<VertexId>(v), {});
  const size_t straddler =
      s->Add(static_cast<VertexId>(k + 1), {0, 2, static_cast<VertexId>(k)});
  s->Add(static_cast<VertexId>(k + 2), {1});
  s->Add(static_cast<VertexId>(k + 3), {});
  EXPECT_EQ(HeaderBytes(f) + straddler * sizeof(uint32_t), kFill - 4);
  return straddler;
}

// A four-record stream that sits whole in the first fill. Returns the
// word index of record 2.
size_t SmallLayout(Stream* s) {
  s->num_vertices = 4;
  s->Add(0, {1, 2});
  s->Add(1, {0});
  const size_t at = s->Add(2, {0, 3, 1});
  s->Add(3, {2});
  return at;
}

// Writes `s` as a file of format `f`; `extra` trailing bytes are
// appended and `cut` bytes dropped from the end. Returns the path to
// open: the SADJ file or the one-shard manifest.
std::string WriteStream(ScratchDir* scratch, Format f, const Stream& s,
                        size_t extra = 0, size_t cut = 0) {
  std::vector<char> bytes;
  auto put = [&bytes](const void* p, size_t n) {
    const char* c = static_cast<const char*>(p);
    bytes.insert(bytes.end(), c, c + n);
  };
  std::string path;
  if (f == Format::kSadj) {
    path = scratch->NewFilePath("raw.sadj");
    const uint32_t magic[2] = {kSadjMagic, 1};
    put(magic, sizeof(magic));
    put(&s.num_vertices, 8);
    put(&s.num_edges, 8);
    const uint32_t tail[2] = {0, s.max_degree};
    put(tail, sizeof(tail));
  } else {
    path = scratch->NewFilePath("raw.sadjs");
    ShardedAdjacencyManifest m;
    m.header.num_vertices = s.num_vertices;
    m.header.num_directed_edges = s.num_edges;
    m.header.max_degree = s.max_degree;
    m.shards.push_back({s.num_records, s.num_edges});
    EXPECT_OK(WriteShardedAdjacencyManifest(path, m));
    SequentialFileWriter header;
    const std::string probe = scratch->NewFilePath("header");
    EXPECT_OK(header.Open(probe));
    EXPECT_OK(WriteAdjacencyShardHeader(&header, 0, s.num_vertices));
    EXPECT_OK(header.Close());
    bytes = testing_util::ReadAllBytes(probe);
  }
  put(s.words.data(), s.words.size() * sizeof(uint32_t));
  bytes.insert(bytes.end(), extra, '\x07');
  bytes.resize(bytes.size() - cut);
  SequentialFileWriter w;
  EXPECT_OK(w.Open(f == Format::kSadj ? path : ShardFilePath(path, 0)));
  EXPECT_OK(w.Append(bytes.data(), bytes.size()));
  EXPECT_OK(w.Close());
  return path;
}

using Records = std::vector<std::vector<uint32_t>>;

// Appends every record `source` yields, as (id, neighbors) pairs, to
// `out`; returns the first error. Every view must carry the record's
// words, header words first.
Status DrainSource(AdjacencyFileScanner* source, Records* out) {
  VertexRecordView view;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(source->Next(&view, &has_next));
    if (!has_next) return Status::OK();
    EXPECT_EQ(view.neighbors[-2], view.id);
    EXPECT_EQ(view.neighbors[-1], view.degree);
    std::vector<uint32_t> rec{view.id};
    rec.insert(rec.end(), view.begin(), view.end());
    out->push_back(std::move(rec));
  }
}

// Every record of the file at `path` through the scanner, opened on the
// SADJ file or on the shard; the first error is returned. A shard is read
// once more, as a store scan, which must yield what the shard scan
// yielded and fail where it failed.
Status Drain(Format f, const std::string& path, Records* out) {
  out->clear();
  AdjacencyFileScanner scanner;
  if (f == Format::kSadj) {
    SEMIS_RETURN_IF_ERROR(scanner.Open(path));
    return DrainSource(&scanner, out);
  }
  ShardedAdjacencyManifest manifest;
  SEMIS_RETURN_IF_ERROR(ReadShardedAdjacencyManifest(path, &manifest));
  SEMIS_RETURN_IF_ERROR(scanner.OpenShard(path, manifest, 0));
  Status read = DrainSource(&scanner, out);
  if (read.ok()) read = scanner.Close();

  AdjacencyFileScanner store;
  SEMIS_RETURN_IF_ERROR(store.OpenStore(path));
  Records got;
  Status drained = DrainSource(&store, &got);
  Status closed = store.Close();
  if (drained.ok()) drained = closed;
  EXPECT_EQ(got, *out);
  EXPECT_EQ(drained.code(), read.code())
      << "store scan: " << drained.ToString()
      << ", shard scan: " << read.ToString();
  return read;
}

Records Expected(const Stream& s) {
  Records out;
  for (size_t i = 0; i < s.words.size();) {
    const uint32_t degree = s.words[i + 1];
    std::vector<uint32_t> rec{s.words[i]};
    rec.insert(rec.end(), s.words.begin() + i + 2,
               s.words.begin() + i + 2 + degree);
    out.push_back(std::move(rec));
    i += 2 + degree;
  }
  return out;
}

constexpr Format kFormats[] = {Format::kSadj, Format::kSads};

TEST_F(RecordDecoderTest, HeaderSplitAcrossTwoFills) {
  for (Format f : kFormats) {
    SCOPED_TRACE(FormatName(f));
    Stream s;
    StraddleLayout(f, &s);
    Records got;
    ASSERT_OK(Drain(f, WriteStream(&scratch_, f, s), &got));
    EXPECT_EQ(got, Expected(s));
  }
}

TEST_F(RecordDecoderTest, HubLongerThanTheBuffer) {
  // The hub's record is 1.2 MB: it never fits one fill.
  Graph star = GenerateStar(300001);
  const std::string mono = WriteGraphFile(&scratch_, star);
  const std::string manifest = NewPath("star.sadjs");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 1));
  for (Format f : kFormats) {
    SCOPED_TRACE(FormatName(f));
    Records got;
    ASSERT_OK(Drain(f, f == Format::kSadj ? mono : manifest, &got));
    ASSERT_EQ(got.size(), star.NumVertices());
    for (VertexId v = 0; v < star.NumVertices(); ++v) {
      auto nbrs = star.Neighbors(v);
      ASSERT_EQ(got[v][0], v);
      ASSERT_TRUE(std::equal(nbrs.begin(), nbrs.end(), got[v].begin() + 1,
                             got[v].end()))
          << "vertex " << v;
    }
  }
}

TEST_F(RecordDecoderTest, EveryCorruptionOnBothPaths) {
  struct Corruption {
    std::string name;
    // Damages the stream around the record at word `at`, which sits whole
    // in the first fill or (`fallback`) has its header split across two;
    // returns the (extra, cut) byte counts for WriteStream.
    std::function<std::pair<size_t, size_t>(Stream*, size_t at,
                                            bool fallback)>
        apply;
  };
  const std::vector<Corruption> corruptions = {
      {"id", [](Stream* s, size_t at, bool) {
         s->words[at] = static_cast<uint32_t>(s->num_vertices);
         return std::make_pair(size_t{0}, size_t{0});
       }},
      {"degree", [](Stream* s, size_t at, bool) {
         // Past max_degree; the neighbor words that follow stay put.
         s->words[at + 1] = s->max_degree + 1;
         return std::make_pair(size_t{0}, size_t{0});
       }},
      {"neighbor", [](Stream* s, size_t at, bool) {
         s->words[at + 3] = static_cast<uint32_t>(s->num_vertices);
         return std::make_pair(size_t{0}, size_t{0});
       }},
      {"short file", [](Stream* s, size_t at, bool fallback) {
         // The file ends two bytes into the record's header (split across
         // the fills), or two bytes into its second neighbor (header and
         // first neighbor buffered).
         const size_t keep = fallback ? at : at + 3;
         const size_t cut = (s->words.size() - keep) * sizeof(uint32_t) - 2;
         return std::make_pair(size_t{0}, cut);
       }},
      {"trailing bytes", [](Stream*, size_t, bool) {
         return std::make_pair(size_t{4}, size_t{0});
       }},
      {"edge total", [](Stream* s, size_t, bool) {
         // The header (SADJ) or the shard's manifest entry declares more
         // edges than the records hold: the stream ends short of them.
         s->num_edges += 1000;
         return std::make_pair(size_t{0}, size_t{0});
       }},
  };
  for (Format f : kFormats) {
    for (bool fallback : {false, true}) {
      for (const Corruption& c : corruptions) {
        SCOPED_TRACE(FormatName(f) + (fallback ? " fallback " : " buffered ") +
                     c.name);
        Stream s;
        size_t at = fallback ? StraddleLayout(f, &s) : SmallLayout(&s);
        if (fallback && c.name == "trailing bytes") {
          // The last record ends exactly at the fill boundary, so the
          // trailing bytes arrive with a fresh fill.
          s = Stream();
          const uint64_t k = (kFill - HeaderBytes(f)) / 8;
          s.num_vertices = k;
          for (uint64_t v = 0; v < k; ++v) s.Add(static_cast<VertexId>(v), {});
          at = 0;
        }
        const auto [extra, cut] = c.apply(&s, at, fallback);
        Records got;
        Status st = Drain(f, WriteStream(&scratch_, f, s, extra, cut), &got);
        EXPECT_TRUE(st.IsCorruption()) << st.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace semis
