#include "pattern.h"

#include <bit>
#include <stdexcept>
#include <utility>

namespace pb {

Pat Atom(uint32_t label) {
  Pat p;
  p.kind = Pat::Kind::kAtom;
  p.label = label;
  return p;
}

static Pat Node(Pat::Kind kind, std::vector<Pat> kids) {
  Pat p;
  p.kind = kind;
  p.kids = std::move(kids);
  return p;
}

Pat Cat(std::vector<Pat> kids) {
  return kids.size() == 1 ? std::move(kids[0])
                          : Node(Pat::Kind::kConcat, std::move(kids));
}
Pat Alt(std::vector<Pat> kids) {
  return kids.size() == 1 ? std::move(kids[0])
                          : Node(Pat::Kind::kAlt, std::move(kids));
}
Pat Star(Pat kid) { return Node(Pat::Kind::kStar, {std::move(kid)}); }
Pat Plus(Pat kid) { return Node(Pat::Kind::kPlus, {std::move(kid)}); }
Pat Opt(Pat kid) { return Node(Pat::Kind::kOpt, {std::move(kid)}); }

Pat AnyOf(const std::vector<uint32_t>& labels) {
  std::vector<Pat> atoms;
  for (uint32_t l : labels) atoms.push_back(Atom(l));
  return Alt(std::move(atoms));
}

namespace {

std::string Render(const Pat& p, bool engine) {
  auto group = [engine](const std::string& s) {
    return (engine ? "(" : "(?:") + s + ")";
  };
  switch (p.kind) {
    case Pat::Kind::kAtom: {
      if (!engine) return std::string(1, static_cast<char>('a' + p.label));
      std::string atom = "l";
      atom += std::to_string(p.label);
      return atom;
    }
    case Pat::Kind::kConcat: {
      std::string out;
      for (const Pat& k : p.kids) {
        if (!out.empty() && engine) out += ' ';
        const std::string s = Render(k, engine);
        out += k.kind == Pat::Kind::kAlt ? group(s) : s;
      }
      return out;
    }
    case Pat::Kind::kAlt: {
      std::string out;
      for (const Pat& k : p.kids) {
        if (!out.empty()) out += '|';
        out += Render(k, engine);
      }
      return out;
    }
    case Pat::Kind::kStar:
    case Pat::Kind::kPlus:
    case Pat::Kind::kOpt: {
      const Pat& k = p.kids[0];
      const std::string s = Render(k, engine);
      const char* op = p.kind == Pat::Kind::kStar   ? "*"
                       : p.kind == Pat::Kind::kPlus ? "+"
                                                    : "?";
      return (k.kind == Pat::Kind::kAtom ? s : group(s)) + op;
    }
  }
  return {};
}

struct Info {
  bool nullable = false;
  Mask first;
  Mask last;
};

class GlushkovBuilder {
 public:
  Info Visit(const Pat& p) {
    switch (p.kind) {
      case Pat::Kind::kAtom: {
        const uint32_t pos = static_cast<uint32_t>(labels_.size());
        if (pos > 255) throw std::runtime_error("pattern has > 255 atoms");
        labels_.push_back(p.label);
        follow_.emplace_back();
        Info info;
        info.first.Set(pos);
        info.last.Set(pos);
        return info;
      }
      case Pat::Kind::kConcat: {
        Info acc = Visit(p.kids[0]);
        for (size_t i = 1; i < p.kids.size(); ++i) {
          Info next = Visit(p.kids[i]);
          Link(acc.last, next.first);
          if (acc.nullable) acc.first |= next.first;
          if (next.nullable)
            acc.last |= next.last;
          else
            acc.last = next.last;
          acc.nullable = acc.nullable && next.nullable;
        }
        return acc;
      }
      case Pat::Kind::kAlt: {
        Info acc;
        for (const Pat& k : p.kids) {
          Info next = Visit(k);
          acc.first |= next.first;
          acc.last |= next.last;
          acc.nullable = acc.nullable || next.nullable;
        }
        return acc;
      }
      case Pat::Kind::kStar:
      case Pat::Kind::kPlus: {
        Info info = Visit(p.kids[0]);
        Link(info.last, info.first);
        if (p.kind == Pat::Kind::kStar) info.nullable = true;
        return info;
      }
      case Pat::Kind::kOpt: {
        Info info = Visit(p.kids[0]);
        info.nullable = true;
        return info;
      }
    }
    return {};
  }

  // Position 0 is the initial state; atoms are numbered from 1.
  GlushkovBuilder() : labels_(1, 0), follow_(1) {}

  OracleNfa Finish(const Info& root, uint32_t num_labels) const {
    OracleNfa nfa;
    nfa.num_states = static_cast<uint32_t>(labels_.size());
    nfa.num_labels = num_labels;
    const size_t n = nfa.num_states;
    nfa.delta.assign(num_labels * n, Mask{});
    nfa.rdelta.assign(num_labels * n, Mask{});
    auto add = [&](uint32_t from, uint32_t to) {
      const uint32_t l = labels_[to];
      if (l >= num_labels) throw std::runtime_error("label out of range");
      nfa.delta[l * n + from].Set(to);
      nfa.rdelta[l * n + to].Set(from);
    };
    ForEach(root.first, [&](uint32_t p) { add(0, p); });
    for (uint32_t p = 1; p < n; ++p)
      ForEach(follow_[p], [&](uint32_t q) { add(p, q); });
    nfa.final_states = root.last;
    if (root.nullable) nfa.final_states.Set(0);
    return nfa;
  }

  template <typename F>
  static void ForEach(const Mask& m, F&& f) {
    for (uint32_t wi = 0; wi < 4; ++wi)
      for (uint64_t bits = m.w[wi]; bits; bits &= bits - 1)
        f(wi * 64 + static_cast<uint32_t>(std::countr_zero(bits)));
  }

 private:
  void Link(const Mask& from, const Mask& to) {
    ForEach(from, [&](uint32_t p) { follow_[p] |= to; });
  }

  std::vector<uint32_t> labels_;  // position -> label
  std::vector<Mask> follow_;      // position -> follow set
};

}  // namespace

std::string EngineText(const Pat& p) { return Render(p, true); }
std::string RegexText(const Pat& p) { return Render(p, false); }

Mask OracleNfa::Step(const Mask& m, uint32_t label) const {
  Mask out;
  if (label >= num_labels) return out;
  const Mask* row = delta.data() + static_cast<size_t>(label) * num_states;
  GlushkovBuilder::ForEach(m, [&](uint32_t q) { out |= row[q]; });
  return out;
}

Mask OracleNfa::StepBack(const Mask& m, uint32_t label) const {
  Mask out;
  if (label >= num_labels) return out;
  const Mask* row = rdelta.data() + static_cast<size_t>(label) * num_states;
  GlushkovBuilder::ForEach(m, [&](uint32_t q) { out |= row[q]; });
  return out;
}

OracleNfa Glushkov(const Pat& p, uint32_t num_labels) {
  GlushkovBuilder b;
  const Info root = b.Visit(p);
  return b.Finish(root, num_labels);
}

}  // namespace pb
