// Independent checks on every answer the engine returns:
//   1. the walk is a chain of existing edges from the source to the target;
//   2. its length equals lambda;
//   3. its label word matches the pattern under std::regex, with label i
//      printed as the letter 'a' + i;
//   4. no answer repeats within a session;
//   5. a session that reports exhaustion delivered exactly the oracle's
//      count (pattern-position subset construction, see oracle.h).
// SelfTest() plants faults in a known-good answer stream and requires
// every one of them to be reported, and a failed operation to make the
// run's verdict false.
#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <regex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/walk.h"
#include "oracle.h"

namespace pb {

/// std::regex membership of label words, memoized per distinct word.
/// Not thread-safe: one per (pattern, thread).
class WordMatcher {
 public:
  explicit WordMatcher(const std::string& regex_text)
      : re_(regex_text, std::regex::ECMAScript | std::regex::optimize) {}
  bool Matches(const std::string& word);

 private:
  std::regex re_;
  std::unordered_map<std::string, bool> memo_;
};

/// Checks one session's pages and, once it ends, its whole answer set.
class SessionCheck {
 public:
  SessionCheck(const Graph& g, uint32_t source, uint32_t target,
               WordMatcher* matcher)
      : g_(g), source_(source), target_(target), matcher_(matcher) {}

  /// Checks 1-3 on every walk of a page: edges must lie in the first
  /// \p edge_limit edges of the graph (the snapshot the page came from)
  /// and walks must have length \p lambda. Returns the first violation,
  /// or an empty string.
  std::string Page(const std::vector<dsw::Walk>& walks, int32_t lambda,
                   size_t edge_limit);
  /// Check 4, and check 5 against [lo, hi]: the session delivered
  /// between lo and hi answers in total (lo == hi for an exact count).
  std::string Finish(uint64_t lo, uint64_t hi);
  uint64_t count() const { return hashes_.size(); }

 private:
  struct H128 {
    uint64_t a, b;
    friend bool operator==(const H128&, const H128&) = default;
    friend bool operator<(const H128& x, const H128& y) {
      return x.a != y.a ? x.a < y.a : x.b < y.b;
    }
  };

  const Graph& g_;
  uint32_t source_;
  uint32_t target_;
  WordMatcher* matcher_;
  std::string word_;
  std::vector<H128> hashes_;
};

/// Runs the planted-fault self-test; false (with a report) when a fault
/// goes unreported, the clean stream is rejected, or a failed operation
/// leaves the run marked correct.
bool SelfTest(std::string* report);

}  // namespace pb

#endif  // PERFBENCH_CHECK_H_
