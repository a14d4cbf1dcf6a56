// The benchmark's graphs and its independent answer oracle. A Graph is a
// plain edge list; the engine receives it as a dsw::Database built edge
// by edge, so database edge ids equal list positions. The oracle answers
// "what is lambda and how many distinct shortest walks match" with its
// own breadth-first search and a walk-count dynamic program over
// (vertex, set of pattern positions) — a subset construction, so each
// walk counts once however many runs the automaton has on it.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/database.h"
#include "pattern.h"

namespace pb {

struct GEdge {
  uint32_t src;
  uint32_t label;
  uint32_t dst;
};

struct Graph {
  uint32_t num_vertices = 0;
  uint32_t num_labels = 0;
  std::vector<GEdge> edges;
};

/// A database holding labels "l0".."l{num_labels-1}" (interned in id
/// order) and the first \p num_edges edges of \p g, in order.
std::unique_ptr<dsw::Database> BuildDatabase(const Graph& g,
                                             size_t num_edges);

/// Forward and reverse adjacency over the first num_edges edges.
struct Csr {
  Csr(const Graph& g, size_t num_edges);
  const Graph* graph;
  std::vector<uint32_t> out_off, out_edges;
  std::vector<uint32_t> in_off, in_edges;
};

/// Counts saturate here; a page check only needs to know whether the
/// count exceeds the page.
inline constexpr uint64_t kCountCap = uint64_t{1} << 62;

/// Length of the shortest walk from \p s to \p t whose label word the
/// automaton accepts, or -1 when there is none. Product BFS.
int32_t OracleLambda(const Csr& csr, const OracleNfa& nfa, uint32_t s,
                     uint32_t t);

/// Number of distinct walks of length \p lambda from \p s to \p t whose
/// word is accepted (saturating at kCountCap); 0 when lambda < 0.
uint64_t OracleCount(const Csr& csr, const OracleNfa& nfa, uint32_t s,
                     uint32_t t, int32_t lambda);

/// Binomial coefficient, exact for the small arguments used here.
uint64_t Binomial(uint32_t n, uint32_t k);

}  // namespace pb

#endif  // PERFBENCH_ORACLE_H_
