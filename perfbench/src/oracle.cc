#include "oracle.h"

#include <algorithm>
#include <string>
#include <utility>

namespace pb {

std::unique_ptr<dsw::Database> BuildDatabase(const Graph& g,
                                             size_t num_edges) {
  auto db = std::make_unique<dsw::Database>();
  for (uint32_t l = 0; l < g.num_labels; ++l) {
    std::string name = "l";
    name += std::to_string(l);
    db->labels().Intern(name);
  }
  db->AddVertices(g.num_vertices);
  for (size_t e = 0; e < num_edges; ++e)
    db->AddEdge(g.edges[e].src, g.edges[e].label, g.edges[e].dst);
  return db;
}

Csr::Csr(const Graph& g, size_t num_edges) : graph(&g) {
  const uint32_t n = g.num_vertices;
  out_off.assign(n + 1, 0);
  in_off.assign(n + 1, 0);
  for (size_t e = 0; e < num_edges; ++e) {
    ++out_off[g.edges[e].src + 1];
    ++in_off[g.edges[e].dst + 1];
  }
  for (uint32_t v = 0; v < n; ++v) {
    out_off[v + 1] += out_off[v];
    in_off[v + 1] += in_off[v];
  }
  out_edges.resize(num_edges);
  in_edges.resize(num_edges);
  std::vector<uint32_t> oc(out_off.begin(), out_off.end() - 1);
  std::vector<uint32_t> ic(in_off.begin(), in_off.end() - 1);
  for (size_t e = 0; e < num_edges; ++e) {
    out_edges[oc[g.edges[e].src]++] = static_cast<uint32_t>(e);
    in_edges[ic[g.edges[e].dst]++] = static_cast<uint32_t>(e);
  }
}

namespace {

// One BFS level: vertices (sorted) with the states first reached there.
using Level = std::vector<std::pair<uint32_t, Mask>>;

// Level-synchronous product BFS from the pairs in \p start. Forward
// when \p backward is false (out-edges, Step), else over in-edges with
// StepBack. Stops after \p max_levels levels, or — when \p stop_vertex
// is set — at the first level whose mask at that vertex meets
// \p stop_mask. Returns every level explored.
std::vector<Level> ProductBfs(const Csr& csr, const OracleNfa& nfa,
                              Level start, bool backward,
                              int32_t max_levels, int64_t stop_vertex,
                              const Mask& stop_mask) {
  const Graph& g = *csr.graph;
  std::vector<Mask> seen(g.num_vertices);
  std::vector<Mask> acc(g.num_vertices);
  std::vector<uint32_t> touched;
  for (auto& [v, m] : start) seen[v] |= m;
  std::vector<Level> levels;
  levels.push_back(std::move(start));
  auto hits_stop = [&](const Level& lvl) {
    if (stop_vertex < 0) return false;
    for (const auto& [v, m] : lvl)
      if (v == stop_vertex && (m & stop_mask).Any()) return true;
    return false;
  };
  if (hits_stop(levels.back())) return levels;
  while (static_cast<int32_t>(levels.size()) <= max_levels) {
    touched.clear();
    for (const auto& [v, m] : levels.back()) {
      const auto& off = backward ? csr.in_off : csr.out_off;
      const auto& es = backward ? csr.in_edges : csr.out_edges;
      for (uint32_t i = off[v]; i < off[v + 1]; ++i) {
        const GEdge& e = g.edges[es[i]];
        const uint32_t w = backward ? e.src : e.dst;
        const Mask next = backward ? nfa.StepBack(m, e.label)
                                   : nfa.Step(m, e.label);
        const Mask fresh = next.AndNot(seen[w]);
        if (!fresh.Any()) continue;
        if (!acc[w].Any()) touched.push_back(w);
        acc[w] |= fresh;
        seen[w] |= fresh;
      }
    }
    if (touched.empty()) break;
    std::sort(touched.begin(), touched.end());
    Level next;
    next.reserve(touched.size());
    for (uint32_t w : touched) {
      next.emplace_back(w, acc[w]);
      acc[w] = Mask{};
    }
    levels.push_back(std::move(next));
    if (hits_stop(levels.back())) break;
  }
  return levels;
}

Mask Lookup(const Level& lvl, uint32_t v) {
  auto it = std::lower_bound(
      lvl.begin(), lvl.end(), v,
      [](const std::pair<uint32_t, Mask>& a, uint32_t b) { return a.first < b; });
  return it != lvl.end() && it->first == v ? it->second : Mask{};
}

Mask Initial() {
  Mask m;
  m.Set(0);
  return m;
}

}  // namespace

int32_t OracleLambda(const Csr& csr, const OracleNfa& nfa, uint32_t s,
                     uint32_t t) {
  std::vector<Level> levels =
      ProductBfs(csr, nfa, Level{{s, Initial()}}, false, INT32_MAX,
                 static_cast<int64_t>(t), nfa.final_states);
  const Level& last = levels.back();
  for (const auto& [v, m] : last)
    if (v == t && (m & nfa.final_states).Any())
      return static_cast<int32_t>(levels.size() - 1);
  return -1;
}

uint64_t OracleCount(const Csr& csr, const OracleNfa& nfa, uint32_t s,
                     uint32_t t, int32_t lambda) {
  if (lambda < 0) return 0;
  // Every run of an accepting shortest walk visits (v_i, q_i) at forward
  // distance exactly i and backward distance exactly lambda - i, so the
  // run sets can be masked to those "useful" states without losing a
  // single accepting run.
  const std::vector<Level> fwd = ProductBfs(
      csr, nfa, Level{{s, Initial()}}, false, lambda, -1, Mask{});
  const std::vector<Level> bwd = ProductBfs(
      csr, nfa, Level{{t, nfa.final_states}}, true, lambda, -1, Mask{});
  if (static_cast<int32_t>(fwd.size()) <= lambda ||
      static_cast<int32_t>(bwd.size()) <= lambda)
    return 0;
  auto useful = [&](int32_t i, uint32_t v) {
    return Lookup(fwd[i], v) & Lookup(bwd[lambda - i], v);
  };

  struct Entry {
    uint32_t v;
    Mask runs;
    uint64_t count;
  };
  std::vector<Entry> cur;
  const Mask r0 = Initial() & useful(0, s);
  if (r0.Any()) cur.push_back(Entry{s, r0, 1});
  const Graph& g = *csr.graph;
  for (int32_t i = 0; i < lambda && !cur.empty(); ++i) {
    std::vector<Entry> next;
    for (const Entry& en : cur) {
      for (uint32_t k = csr.out_off[en.v]; k < csr.out_off[en.v + 1]; ++k) {
        const GEdge& e = g.edges[csr.out_edges[k]];
        const Mask runs = nfa.Step(en.runs, e.label) & useful(i + 1, e.dst);
        if (runs.Any()) next.push_back(Entry{e.dst, runs, en.count});
      }
    }
    std::sort(next.begin(), next.end(), [](const Entry& a, const Entry& b) {
      return a.v != b.v ? a.v < b.v : a.runs < b.runs;
    });
    cur.clear();
    for (const Entry& en : next) {
      if (!cur.empty() && cur.back().v == en.v && cur.back().runs == en.runs)
        cur.back().count = std::min(kCountCap, cur.back().count + en.count);
      else
        cur.push_back(en);
    }
  }
  uint64_t total = 0;
  for (const Entry& en : cur)
    if (en.v == t && (en.runs & nfa.final_states).Any())
      total = std::min(kCountCap, total + en.count);
  return total;
}

uint64_t Binomial(uint32_t n, uint32_t k) {
  if (k > n) return 0;
  uint64_t r = 1;
  for (uint32_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

}  // namespace pb
