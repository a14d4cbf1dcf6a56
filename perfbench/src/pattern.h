// The benchmark's own pattern generator output: a regular-expression
// tree over label ids, printed twice — once in the engine's syntax
// (labels "l0", "l1", ... as words) and once for std::regex with each
// label mapped to one letter ('a' + id) — and compiled by the
// benchmark's own Glushkov construction into the automaton the answer
// oracle runs on. Nothing here uses the library's regex/ or automaton/
// code, so the checks stay independent of the code they check.
#ifndef PERFBENCH_PATTERN_H_
#define PERFBENCH_PATTERN_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct Pat {
  enum class Kind { kAtom, kConcat, kAlt, kStar, kPlus, kOpt };
  Kind kind = Kind::kAtom;
  uint32_t label = 0;  // kAtom only
  std::vector<Pat> kids;
};

Pat Atom(uint32_t label);
Pat Cat(std::vector<Pat> kids);
Pat Alt(std::vector<Pat> kids);
Pat Star(Pat kid);
Pat Plus(Pat kid);
Pat Opt(Pat kid);
/// Alternation of single labels ("(l0|l2)"); a lone label is its atom.
Pat AnyOf(const std::vector<uint32_t>& labels);

/// Engine syntax: "l0 (l1|l2)* l3".
std::string EngineText(const Pat& p);
/// std::regex (ECMAScript) syntax with label i printed as 'a' + i.
std::string RegexText(const Pat& p);

/// State set of the oracle automaton; up to 256 states.
struct Mask {
  std::array<uint64_t, 4> w{};
  bool Any() const { return (w[0] | w[1] | w[2] | w[3]) != 0; }
  void Set(uint32_t i) { w[i >> 6] |= uint64_t{1} << (i & 63); }
  bool Test(uint32_t i) const { return (w[i >> 6] >> (i & 63)) & 1; }
  Mask& operator|=(const Mask& o) {
    for (int i = 0; i < 4; ++i) w[i] |= o.w[i];
    return *this;
  }
  Mask operator&(const Mask& o) const {
    Mask r;
    for (int i = 0; i < 4; ++i) r.w[i] = w[i] & o.w[i];
    return r;
  }
  Mask AndNot(const Mask& o) const {
    Mask r;
    for (int i = 0; i < 4; ++i) r.w[i] = w[i] & ~o.w[i];
    return r;
  }
  friend bool operator==(const Mask&, const Mask&) = default;
  friend bool operator<(const Mask& a, const Mask& b) { return a.w < b.w; }
};

/// Glushkov position automaton: state 0 is initial, state p >= 1 is the
/// p-th atom of the pattern, and every transition into p reads p's label.
/// Epsilon-free, so a walk's run set is a plain subset construction.
struct OracleNfa {
  uint32_t num_states = 0;
  uint32_t num_labels = 0;
  Mask final_states;
  std::vector<Mask> delta;   // [label * num_states + q] -> successors
  std::vector<Mask> rdelta;  // [label * num_states + q] -> predecessors

  /// States reachable from any state of \p m by one \p label step.
  Mask Step(const Mask& m, uint32_t label) const;
  /// States with a \p label step into some state of \p m.
  Mask StepBack(const Mask& m, uint32_t label) const;
};

/// Builds the Glushkov automaton of \p p over labels [0, num_labels).
/// Patterns are limited to 255 atoms.
OracleNfa Glushkov(const Pat& p, uint32_t num_labels);

}  // namespace pb

#endif  // PERFBENCH_PATTERN_H_
