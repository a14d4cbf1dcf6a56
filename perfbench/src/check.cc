#include "check.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util.h"

namespace pb {

bool WordMatcher::Matches(const std::string& word) {
  auto it = memo_.find(word);
  if (it != memo_.end()) return it->second;
  const bool ok = std::regex_match(word, re_);
  memo_.emplace(word, ok);
  return ok;
}

std::string SessionCheck::Page(const std::vector<dsw::Walk>& walks,
                               int32_t lambda, size_t edge_limit) {
  for (const dsw::Walk& w : walks) {
    if (lambda < 0) return "an answer for a query that has none";
    if (w.edges.size() != static_cast<size_t>(lambda))
      return "walk of length " + std::to_string(w.edges.size()) +
             ", lambda is " + std::to_string(lambda);
    uint32_t at = source_;
    word_.clear();
    uint64_t a = 0x9e3779b97f4a7c15ull, b = 0xc2b2ae3d27d4eb4full;
    for (uint32_t e : w.edges) {
      if (e >= edge_limit) return "edge " + std::to_string(e) + " not in the snapshot";
      const GEdge& ge = g_.edges[e];
      if (ge.src != at) return "walk is not a chain of edges";
      at = ge.dst;
      word_ += static_cast<char>('a' + ge.label);
      a = (a ^ e) * 0x100000001b3ull;
      b = (b + e + 1) * 0xff51afd7ed558ccdull;
      b ^= b >> 29;
    }
    if (at != target_) return "walk does not end at the target";
    if (!matcher_->Matches(word_))
      return "label word '" + word_ + "' does not match the pattern";
    hashes_.push_back(H128{a, b});
  }
  return {};
}

std::string SessionCheck::Finish(uint64_t lo, uint64_t hi) {
  std::sort(hashes_.begin(), hashes_.end());
  if (std::adjacent_find(hashes_.begin(), hashes_.end()) != hashes_.end())
    return "an answer repeats";
  const uint64_t n = hashes_.size();
  if (n < lo || n > hi)
    return "session delivered " + std::to_string(n) + " answers, expected " +
           (lo == hi ? std::to_string(lo)
                     : "[" + std::to_string(lo) + ", " + std::to_string(hi) +
                           "]");
  return {};
}

bool SelfTest(std::string* report) {
  // A 3-bubble chain: each bubble's top branch is two l0 edges, its
  // bottom branch two l1 edges, and every top edge has a parallel l2
  // twin. The target has one more out-edge. Pattern (l0|l1)*: lambda 6,
  // 2^3 answers; walks through a twin are not answers.
  Graph g;
  g.num_labels = 3;
  const uint32_t k = 3;
  g.num_vertices = 3 * k + 2;
  uint32_t hub = 0;
  for (uint32_t i = 0; i < k; ++i) {
    const uint32_t top = 1 + 3 * i, bot = 2 + 3 * i, next = 3 + 3 * i;
    for (auto [a, b] : {std::pair{hub, top}, std::pair{top, next}}) {
      g.edges.push_back({a, 0, b});
      g.edges.push_back({a, 2, b});
    }
    g.edges.push_back({hub, 1, bot});
    g.edges.push_back({bot, 1, next});
    hub = next;
  }
  const uint32_t source = 0, target = hub;
  g.edges.push_back({target, 0, g.num_vertices - 1});
  const Pat pat = Star(AnyOf({0, 1}));

  const Csr csr(g, g.edges.size());
  const OracleNfa nfa = Glushkov(pat, g.num_labels);
  const int32_t lambda = OracleLambda(csr, nfa, source, target);
  const uint64_t count = OracleCount(csr, nfa, source, target, lambda);
  bool ok = true;
  auto note = [&](const std::string& line, bool pass) {
    *report += (pass ? "ok   " : "FAIL ") + line + "\n";
    ok = ok && pass;
  };
  note("oracle lambda 6 == " + std::to_string(lambda), lambda == 6);
  note("oracle count 2^3 == " + std::to_string(count), count == 8);

  // The known-good stream: brute force over all edge sequences.
  WordMatcher matcher(RegexText(pat));
  std::vector<dsw::Walk> clean;
  dsw::Walk cur;
  std::string word;
  std::function<void(uint32_t)> dfs = [&](uint32_t v) {
    if (cur.edges.size() == static_cast<size_t>(lambda)) {
      if (v == target && matcher.Matches(word)) clean.push_back(cur);
      return;
    }
    for (uint32_t e = 0; e < g.edges.size(); ++e) {
      if (g.edges[e].src != v) continue;
      cur.edges.push_back(e);
      word.push_back(static_cast<char>('a' + g.edges[e].label));
      dfs(g.edges[e].dst);
      cur.edges.pop_back();
      word.pop_back();
    }
  };
  dfs(source);
  note("brute force finds " + std::to_string(clean.size()) + " answers",
       clean.size() == count);
  if (clean.empty()) return false;

  auto rejected = [&](const std::vector<dsw::Walk>& stream) {
    SessionCheck check(g, source, target, &matcher);
    std::string why = check.Page(stream, lambda, g.edges.size());
    if (why.empty()) why = check.Finish(count, count);
    return why;
  };
  const std::string clean_why = rejected(clean);
  note("clean stream accepted" + (clean_why.empty() ? "" : ": " + clean_why),
       clean_why.empty());

  auto planted = [&](const char* fault, std::vector<dsw::Walk> stream) {
    const std::string why = rejected(stream);
    note(std::string(fault) + " reported" + (why.empty() ? "" : ": " + why),
         !why.empty());
  };
  {
    auto s = clean;
    s.pop_back();
    planted("dropped answer", s);
  }
  {
    auto s = clean;
    s.push_back(clean[0]);
    planted("duplicated answer", s);
  }
  {
    auto s = clean;
    s[1].edges.pop_back();
    planted("walk cut short", s);
  }
  {
    auto s = clean;
    for (dsw::Walk& w : s) {
      if (g.edges[w.edges[0]].label != 0) continue;
      w.edges[0] += 1;  // the l2 twin follows its l0 edge
      break;
    }
    planted("label swapped", s);
  }
  {
    auto s = clean;
    s[2].edges.push_back(static_cast<uint32_t>(g.edges.size() - 1));
    planted("walk one step too long", s);
  }
  Tally tally;
  tally.Attempt(2);
  const bool clean_run = tally.correct();
  tally.Fail("planted");
  note("a failed operation makes the run incorrect",
       clean_run && !tally.correct());
  return ok;
}

}  // namespace pb
