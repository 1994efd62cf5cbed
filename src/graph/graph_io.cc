#include "graph/graph_io.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>

namespace semis {

Status WriteGraphToAdjacencyFile(const Graph& graph, const std::string& path,
                                 IoStats* stats) {
  AdjacencyFileWriter writer(stats);
  SEMIS_RETURN_IF_ERROR(writer.Open(path, graph.NumVertices(),
                                    graph.NumDirectedEdges(),
                                    graph.MaxDegree(), /*flags=*/0));
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    auto nbrs = graph.Neighbors(v);
    SEMIS_RETURN_IF_ERROR(
        writer.AppendVertex(v, nbrs.data(), static_cast<uint32_t>(nbrs.size())));
  }
  return writer.Finish();
}

Status WriteGraphToAdjacencyFileInOrder(const Graph& graph,
                                        const std::vector<VertexId>& order,
                                        uint32_t flags,
                                        const std::string& path,
                                        IoStats* stats) {
  if (order.size() != graph.NumVertices()) {
    return Status::InvalidArgument("order size != vertex count");
  }
  AdjacencyFileWriter writer(stats);
  SEMIS_RETURN_IF_ERROR(writer.Open(path, graph.NumVertices(),
                                    graph.NumDirectedEdges(),
                                    graph.MaxDegree(), flags));
  for (VertexId v : order) {
    if (v >= graph.NumVertices()) {
      return Status::InvalidArgument("order contains out-of-range id");
    }
    auto nbrs = graph.Neighbors(v);
    SEMIS_RETURN_IF_ERROR(
        writer.AppendVertex(v, nbrs.data(), static_cast<uint32_t>(nbrs.size())));
  }
  return writer.Finish();
}

Status ReadGraphFromAdjacencyFile(const std::string& path, Graph* graph,
                                  IoStats* stats) {
  AdjacencyFileScanner scanner(stats);
  SEMIS_RETURN_IF_ERROR(scanner.Open(path));
  const AdjacencyFileHeader& h = scanner.header();
  std::vector<Edge> edges;
  edges.reserve(h.num_directed_edges / 2);
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    for (uint32_t i = 0; i < rec.degree; ++i) {
      if (rec.id < rec.neighbors[i]) {
        edges.emplace_back(rec.id, rec.neighbors[i]);
      }
    }
  }
  *graph = Graph::FromEdges(static_cast<VertexId>(h.num_vertices),
                            std::move(edges));
  return Status::OK();
}

Status WriteEdgeListText(const Graph& graph, const std::string& path,
                         IoStats* stats) {
  SequentialFileWriter writer(stats);
  SEMIS_RETURN_IF_ERROR(writer.Open(path));
  char line[64];
  int n = std::snprintf(line, sizeof(line), "# semis edge list: %u vertices\n",
                        graph.NumVertices());
  SEMIS_RETURN_IF_ERROR(writer.Append(line, static_cast<size_t>(n)));
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    for (VertexId u : graph.Neighbors(v)) {
      if (v < u) {
        n = std::snprintf(line, sizeof(line), "%u\t%u\n", v, u);
        SEMIS_RETURN_IF_ERROR(writer.Append(line, static_cast<size_t>(n)));
      }
    }
  }
  return writer.Close();
}

namespace {

// Streaming tokenizer over a SequentialFileReader: yields unsigned integer
// pairs, skipping '#' comment lines and blank lines.
class EdgeListParser {
 public:
  explicit EdgeListParser(SequentialFileReader* reader) : reader_(reader) {}

  // Returns true and fills (u, v) if another edge was parsed; false at EOF.
  // Malformed content yields a Corruption status.
  Status NextEdge(VertexId* u, VertexId* v, bool* has_edge) {
    while (true) {
      SEMIS_RETURN_IF_ERROR(FillLine());
      if (line_.empty() && eof_) {
        *has_edge = false;
        return Status::OK();
      }
      // Trim and skip comments / blanks.
      size_t i = 0;
      while (i < line_.size() && std::isspace(static_cast<unsigned char>(
                                     line_[i]))) {
        ++i;
      }
      if (i == line_.size() || line_[i] == '#') continue;
      uint64_t a = 0, b = 0;
      if (std::sscanf(line_.c_str() + i, "%" SCNu64 " %" SCNu64, &a, &b) !=
          2) {
        return Status::Corruption("malformed edge list line: '" + line_ + "'");
      }
      if (a > 0xFFFFFFFEull || b > 0xFFFFFFFEull) {
        return Status::Corruption("vertex id exceeds 32-bit range");
      }
      *u = static_cast<VertexId>(a);
      *v = static_cast<VertexId>(b);
      *has_edge = true;
      return Status::OK();
    }
  }

 private:
  Status FillLine() {
    line_.clear();
    char c;
    size_t got = 0;
    while (true) {
      SEMIS_RETURN_IF_ERROR(reader_->Read(&c, 1, &got));
      if (got == 0) {
        eof_ = true;
        return Status::OK();
      }
      if (c == '\n') return Status::OK();
      line_.push_back(c);
    }
  }

  SequentialFileReader* reader_;
  std::string line_;
  bool eof_ = false;
};

}  // namespace

Status ReadEdgeListText(const std::string& path, Graph* graph,
                        IoStats* stats) {
  SequentialFileReader reader(stats);
  SEMIS_RETURN_IF_ERROR(reader.Open(path));
  EdgeListParser parser(&reader);
  std::vector<Edge> edges;
  VertexId max_id = 0;
  bool any = false;
  VertexId u = 0, v = 0;
  bool has_edge = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(parser.NextEdge(&u, &v, &has_edge));
    if (!has_edge) break;
    any = true;
    max_id = std::max({max_id, u, v});
    edges.emplace_back(u, v);
  }
  *graph = Graph::FromEdges(any ? max_id + 1 : 0, std::move(edges));
  return Status::OK();
}

Status ConvertEdgeListToAdjacencyFile(const std::string& edge_list_path,
                                      const std::string& adjacency_path,
                                      const EdgeListConvertOptions& options) {
  // Pass 1: count degrees (upper bound, before dedup) and find |V|.
  // Semi-external: one u32 per vertex.
  std::vector<uint32_t> degree;
  uint64_t directed = 0;
  {
    SequentialFileReader reader(options.stats);
    SEMIS_RETURN_IF_ERROR(reader.Open(edge_list_path));
    EdgeListParser parser(&reader);
    VertexId u = 0, v = 0;
    bool has_edge = false;
    while (true) {
      SEMIS_RETURN_IF_ERROR(parser.NextEdge(&u, &v, &has_edge));
      if (!has_edge) break;
      if (u == v) continue;
      VertexId m = std::max(u, v);
      if (m >= degree.size()) degree.resize(m + 1, 0);
      degree[u]++;
      degree[v]++;
      directed += 2;
    }
  }
  const uint64_t num_vertices = degree.size();

  // Pass 2: external sort directed edges by source id.
  ExternalSorterOptions sorter_opts;
  sorter_opts.memory_budget_bytes = options.memory_budget_bytes;
  sorter_opts.fan_in = options.fan_in;
  sorter_opts.stats = options.stats;
  ExternalSorter sorter(sorter_opts);
  {
    SequentialFileReader reader(options.stats);
    SEMIS_RETURN_IF_ERROR(reader.Open(edge_list_path));
    EdgeListParser parser(&reader);
    VertexId u = 0, v = 0;
    bool has_edge = false;
    while (true) {
      SEMIS_RETURN_IF_ERROR(parser.NextEdge(&u, &v, &has_edge));
      if (!has_edge) break;
      if (u == v) continue;
      uint32_t nb_u = v, nb_v = u;
      SEMIS_RETURN_IF_ERROR(sorter.Add(u, &nb_u, 1));
      SEMIS_RETURN_IF_ERROR(sorter.Add(v, &nb_v, 1));
    }
  }
  SEMIS_RETURN_IF_ERROR(sorter.Finish());

  // Pass 3: gather per-source neighbor lists from the sorted stream,
  // dedupe, and write records. To declare exact header totals we must know
  // the deduped counts first; stage the records to a temporary file, then
  // prepend the header. (Two sequential passes over the staged data.)
  ScratchDir scratch;
  SEMIS_RETURN_IF_ERROR(ScratchDir::Create("semis-conv", &scratch));
  std::string staged = scratch.NewFilePath("records");
  uint64_t dedup_directed = 0;
  uint32_t max_degree = 0;
  std::vector<uint32_t> dedup_degree(num_vertices, 0);
  {
    SequentialFileWriter writer(options.stats);
    SEMIS_RETURN_IF_ERROR(writer.Open(staged));
    uint64_t key = 0;
    std::vector<uint32_t> payload;
    std::vector<uint32_t> list;
    VertexId current = kInvalidVertex;
    auto flush_list = [&]() -> Status {
      if (current == kInvalidVertex) return Status::OK();
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
      SEMIS_RETURN_IF_ERROR(writer.AppendU32(current));
      SEMIS_RETURN_IF_ERROR(
          writer.AppendU32(static_cast<uint32_t>(list.size())));
      if (!list.empty()) {
        SEMIS_RETURN_IF_ERROR(
            writer.Append(list.data(), sizeof(uint32_t) * list.size()));
      }
      dedup_directed += list.size();
      dedup_degree[current] = static_cast<uint32_t>(list.size());
      max_degree = std::max(max_degree, static_cast<uint32_t>(list.size()));
      list.clear();
      return Status::OK();
    };
    while (sorter.Next(&key, &payload)) {
      VertexId src = static_cast<VertexId>(key);
      if (src != current) {
        SEMIS_RETURN_IF_ERROR(flush_list());
        current = src;
      }
      list.insert(list.end(), payload.begin(), payload.end());
    }
    SEMIS_RETURN_IF_ERROR(sorter.status());
    SEMIS_RETURN_IF_ERROR(flush_list());
    SEMIS_RETURN_IF_ERROR(writer.Close());
  }

  // Pass 4: emit the final adjacency file (degree-0 vertices get empty
  // records interleaved at their id position to keep record count = |V|).
  AdjacencyFileWriter writer(options.stats);
  SEMIS_RETURN_IF_ERROR(writer.Open(adjacency_path, num_vertices,
                                    dedup_directed, max_degree, /*flags=*/0));
  {
    SequentialFileReader reader(options.stats);
    SEMIS_RETURN_IF_ERROR(reader.Open(staged));
    std::vector<uint32_t> list;
    VertexId next_emit = 0;
    auto emit_empty_until = [&](VertexId stop) -> Status {
      for (; next_emit < stop; ++next_emit) {
        if (dedup_degree[next_emit] == 0) {
          SEMIS_RETURN_IF_ERROR(writer.AppendVertex(next_emit, nullptr, 0));
        }
      }
      return Status::OK();
    };
    while (!reader.AtEof()) {
      uint32_t src = 0, len = 0;
      SEMIS_RETURN_IF_ERROR(reader.ReadU32(&src));
      SEMIS_RETURN_IF_ERROR(reader.ReadU32(&len));
      list.resize(len);
      if (len > 0) {
        SEMIS_RETURN_IF_ERROR(
            reader.ReadExact(list.data(), sizeof(uint32_t) * len));
      }
      SEMIS_RETURN_IF_ERROR(emit_empty_until(src));
      SEMIS_RETURN_IF_ERROR(writer.AppendVertex(src, list.data(), len));
      next_emit = src + 1;
    }
    SEMIS_RETURN_IF_ERROR(
        emit_empty_until(static_cast<VertexId>(num_vertices)));
  }
  return writer.Finish();
}

}  // namespace semis
