#include "core/verify.h"

#include "graph/adjacency_file.h"

namespace semis {

namespace {

// One streaming verification pass over `scanner`, open on a SADJ file or
// a store: both yield the same record stream, so the check is shared.
Status VerifyScan(AdjacencyFileScanner* scanner, const BitVector& set,
                  VerifyResult* result) {
  if (scanner->header().num_vertices != set.size()) {
    return Status::InvalidArgument("set size != graph vertex count");
  }
  VerifyResult r;
  r.independent = true;
  r.maximal = true;
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner->Next(&rec, &has_next));
    if (!has_next) break;
    const bool in = set.Test(rec.id);
    bool has_set_neighbor = false;
    for (uint32_t i = 0; i < rec.degree; ++i) {
      if (set.Test(rec.neighbors[i])) {
        has_set_neighbor = true;
        if (in && r.independent) {
          r.independent = false;
          r.witness_u = rec.id;
          r.witness_v = rec.neighbors[i];
        }
      }
    }
    if (!in && !has_set_neighbor && r.maximal) {
      r.maximal = false;
      if (r.witness_u == kInvalidVertex) r.witness_u = rec.id;
    }
  }
  *result = r;
  return Status::OK();
}

}  // namespace

Status VerifyIndependentSetFile(const std::string& adjacency_path,
                                const BitVector& set, VerifyResult* result,
                                IoStats* stats) {
  AdjacencyFileScanner scanner(stats);
  SEMIS_RETURN_IF_ERROR(scanner.Open(adjacency_path));
  return VerifyScan(&scanner, set, result);
}

Status VerifyIndependentSetShardedFile(const std::string& manifest_path,
                                       const BitVector& set,
                                       VerifyResult* result, IoStats* stats) {
  AdjacencyFileScanner scanner(stats);
  SEMIS_RETURN_IF_ERROR(scanner.OpenStore(manifest_path));
  return VerifyScan(&scanner, set, result);
}

VerifyResult VerifyIndependentSet(const Graph& graph, const BitVector& set) {
  VerifyResult r;
  r.independent = true;
  r.maximal = true;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    const bool in = set.Test(v);
    bool has_set_neighbor = false;
    for (VertexId u : graph.Neighbors(v)) {
      if (set.Test(u)) {
        has_set_neighbor = true;
        if (in && r.independent) {
          r.independent = false;
          r.witness_u = v;
          r.witness_v = u;
        }
      }
    }
    if (!in && !has_set_neighbor && r.maximal) {
      r.maximal = false;
      if (r.witness_u == kInvalidVertex) r.witness_u = v;
    }
  }
  return r;
}

}  // namespace semis
