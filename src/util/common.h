// Copyright (c) the semis authors.
// Basic shared typedefs and constants for the semis library.
#ifndef SEMIS_UTIL_COMMON_H_
#define SEMIS_UTIL_COMMON_H_

#include <cstddef>
#include <cstdint>

namespace semis {

/// Vertex identifier. The semi-external model assumes O(|V|) words of main
/// memory, so a compact 32-bit id keeps the per-vertex arrays small (the
/// paper stores vertex ids in 4 bytes; 0.4 GB for 10^8 vertices).
using VertexId = uint32_t;

/// Sentinel for "no vertex" (used for unset ISN entries and the like).
inline constexpr VertexId kInvalidVertex = 0xFFFFFFFFu;

}  // namespace semis

#endif  // SEMIS_UTIL_COMMON_H_
