#include "core/resumable_index.h"

#include <algorithm>
#include <utility>

namespace dsw {

ResumableIndex::ResumableIndex(const Snapshot& snap, const Annotation& ann)
    : trimmed_(snap, ann), adj_(snap.shared_label_index()) {
  BuildQueues(ann);
}

ResumableIndex::ResumableIndex(const Snapshot& snap, const Annotation& ann,
                               TrimmedIndex trimmed)
    : trimmed_(std::move(trimmed)), adj_(snap.shared_label_index()) {
  BuildQueues(ann);
}

void ResumableIndex::BuildQueues(const Annotation& ann) {
  if (!ann.reachable() || trimmed_.empty()) return;
  const uint32_t lambda = static_cast<uint32_t>(ann.lambda);
  const LabelIndex& adj = *adj_;

  // Every useful vertex below level lambda owns one queue (the trimmed
  // sweep only records a vertex as useful when it has >= 1 candidate).
  // The vertex's out-edges sit contiguously in the target pool
  // (BuildLabelIndex emits them vertex by vertex); that span is the
  // domain of the queue's rank array.
  level_base_.assign(lambda + 1, 0);
  uint32_t n = 0;
  for (uint32_t i = 0; i < lambda; ++i) {
    level_base_[i] = n;
    n += static_cast<uint32_t>(trimmed_.UsefulLevel(i).size());
  }
  level_base_[lambda] = n;
  slots_.reserve(n);
  uint32_t ranks = 0;
  for (uint32_t i = 0; i < lambda; ++i) {
    for (uint32_t v : trimmed_.UsefulLevel(i).vertices()) {
      std::span<const LabelIndex::Group> groups = adj.GroupsOf(v);
      const uint32_t sb = groups.front().begin;
      const uint32_t len = groups.back().end - sb;
      slots_.push_back(Slot{i, sb, len, ranks});
      ranks += len;
    }
  }

  // rank[k] = #queue entries with (PositionOf - span_begin) < k: one
  // merge over the span, O(out-degree) per queue. The trimmed candidate
  // list of (i, v) is already ascending in target-pool rank: the sweep
  // walks groups in label order and targets in pool order.
  rank_pool_.resize(ranks);
  for (uint32_t s = 0; s < n; ++s) {
    const Slot& slot = slots_[s];
    std::span<const Candidate> queue = Queue(s);
    uint32_t c = 0;
    for (uint32_t k = 0; k < slot.span_len; ++k) {
      while (c < queue.size() &&
             adj.PositionOf(queue[c].edge) - slot.span_begin < k)
        ++c;
      rank_pool_[slot.rank_begin + k] = c;
    }
    assert(std::is_sorted(queue.begin(), queue.end(),
                          [&adj](const Candidate& a, const Candidate& b) {
                            return adj.PositionOf(a.edge) <
                                   adj.PositionOf(b.edge);
                          }) &&
           "candidate list not ascending in target-pool rank");
  }
}

}  // namespace dsw
