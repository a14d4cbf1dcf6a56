// The memoryless enumeration index (Section 4.2 / Theorem 18). The
// enumerator keeps a stack of per-level cursors between outputs, but it
// never *needs* them: given only the previous answer, the next one is
// recomputed in O(lambda x |A|) by a guided run that repositions every
// level's cursor from the answer's edges alone. That makes enumeration
// pageable and restartable: a server can ship an answer to a client,
// drop the query's enumeration state entirely, and resume from the
// answer echoed back later.
//
// ResumableIndex is the structure that makes the guided run cheap. It
// owns a TrimmedIndex and uses that index's per-(level, vertex)
// candidate ranges *as* its queues — no copy. A trimmed candidate list
// is already sorted by the global target-pool rank (LabelIndex::
// PositionOf — within one vertex, exactly the order the enumerator
// tries candidates in), so the only addition is a flat rank array per
// queue over the vertex's out-edge span:
//
//   rank[k] = #candidates of the queue whose (PositionOf - span_begin) < k
//
// so SeekGe(edge) — "cursor of the first candidate at or after this
// edge" — is one PositionOf load, one subtraction and one rank load,
// O(1), instead of the linear queue re-advance that costs an extra
// in-degree factor d (the E8 strawman). The edge ranks come from the
// snapshot's LabelIndex, held by shared_ptr (and not charged to
// ApproxBytes: every plan of one generation shares it), so the
// index's own bytes are O(useful queues + sum of their out-degrees) —
// sized by the answer DAG, not by the database.
//
// Cursors are plain positions in the trimmed candidate pool; the
// queue-walking API (RestartCursor / Peek / Advanced / Exhausted) is
// deliberately value-oriented so an enumerator holds no pointers into
// the index and the whole (index, previous answer) pair is trivially
// serializable — the memoryless property made concrete.

#ifndef DSW_CORE_RESUMABLE_INDEX_H_
#define DSW_CORE_RESUMABLE_INDEX_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/annotate.h"
#include "core/database.h"
#include "core/trimmed_index.h"
#include "util/state_set.h"

namespace dsw {

/// Sentinel of SlotAt: no queue for that (level, vertex).
inline constexpr uint32_t kNoSlot = UINT32_MAX;

class ResumableIndex {
 public:
  /// One queue entry: the trimmed candidate itself.
  using Candidate = TrimmedIndex::CandidateEdge;

  /// Builds the trimmed structure (one backward sweep) and the rank
  /// arrays on top; a pure read of the snapshot, safe to run
  /// concurrently with other readers. Release builds never consult the
  /// database after construction; debug builds keep a back-pointer for
  /// the stale-snapshot assertion (TrimmedIndex::AssertFresh), so there
  /// the database must outlive the index.
  ResumableIndex(const Snapshot& snap, const Annotation& ann);

  /// Same rank arrays on top of an already-built trimmed structure
  /// (taken by value; move it in). This is the delta-repair path:
  /// DeltaTrim patched the old TrimmedIndex against an insert-only
  /// delta and only the rank arrays remain to be rebuilt. \p trimmed
  /// must describe \p ann against \p snap.
  ResumableIndex(const Snapshot& snap, const Annotation& ann,
                 TrimmedIndex trimmed);

  /// The underlying trimmed structure (useful sets, lambda, etc.).
  const TrimmedIndex& trimmed() const { return trimmed_; }
  bool empty() const { return trimmed_.empty(); }

  /// Number of per-(level, vertex) queues.
  uint32_t num_queues() const { return static_cast<uint32_t>(slots_.size()); }

  // ------------------------------------------------------- slot lookup

  /// Queue of (level, vertex), or kNoSlot when v is not useful at a
  /// level below lambda. O(log |level|) binary search over the level's
  /// sorted vertices; all states useful at (level, v) share the queue.
  uint32_t SlotAt(uint32_t level, uint32_t v) const {
    if (level + 1 >= level_base_.size()) return kNoSlot;
    size_t pos = trimmed_.UsefulLevel(level).FindIndex(v);
    if (pos == LevelSets::npos) return kNoSlot;
    return level_base_[level] + static_cast<uint32_t>(pos);
  }

  /// Queue of the vertex at position \p pos of useful level \p level —
  /// the O(1) variant for positions recorded in Candidate::next_pos
  /// (slots are laid out level-major in useful-level order, so this is
  /// plain arithmetic; no binary search anywhere on the hot path).
  /// Precondition: level < lambda and pos < |useful level|.
  uint32_t SlotAtPos(uint32_t level, uint32_t pos) const {
    return level_base_[level] + pos;
  }

  uint32_t level_of(uint32_t slot) const { return slots_[slot].level; }
  uint32_t vertex_of(uint32_t slot) const {
    return trimmed_.UsefulLevel(level_of(slot)).vertex(PosOf(slot));
  }

  // ---------------------------------------------------- queue walking

  /// Cursor at the front of the queue.
  uint32_t RestartCursor(uint32_t slot) const { return Range(slot).first; }

  bool Exhausted(uint32_t slot, uint32_t cur) const {
    return cur >= Range(slot).second;
  }

  /// The entry under the cursor; only meaningful while !Exhausted.
  const Candidate& Peek([[maybe_unused]] uint32_t slot,
                        uint32_t cur) const {
    assert(!Exhausted(slot, cur) && "Peek past the end of the queue");
    return At(cur);
  }

  /// The cursor after \p cur; O(1).
  uint32_t Advanced(uint32_t slot, uint32_t cur) const {
    (void)slot;
    return cur + 1;
  }

  /// True iff \p edge is an out-edge of the slot's vertex — the
  /// precondition of SeekGe (any edge id is safe to pass here).
  bool SpanContains(uint32_t slot, uint32_t edge) const {
    return edge < adj_->num_edges() &&
           adj_->PositionOf(edge) - slots_[slot].span_begin <
               slots_[slot].span_len;
  }

  /// Cursor of the first queue entry at or after \p edge in target-pool
  /// rank (== the entry for \p edge itself when the edge is in the
  /// queue); the end of the queue when all entries precede it. O(1):
  /// one rank-array load. Precondition: SpanContains(slot, edge).
  uint32_t SeekGe(uint32_t slot, uint32_t edge) const {
    trimmed_.AssertFresh();
    assert(SpanContains(slot, edge) &&
           "SeekGe: edge is not an out-edge of the slot's vertex");
    const Slot& s = slots_[slot];
    uint32_t rel = adj_->PositionOf(edge) - s.span_begin;
    return RestartCursor(slot) + rank_pool_[s.rank_begin + rel];
  }

  /// Certificate (B-list) structure of the slot's queue. B-list
  /// positions are cursor offsets from RestartCursor(slot).
  TrimmedIndex::BList BListOf(uint32_t slot) const {
    return trimmed_.BListAt(level_of(slot), PosOf(slot));
  }

  /// The pool entry under a cursor — for callers that carry cursors
  /// themselves (the enumerator's frames) instead of re-supplying the
  /// slot on every read.
  const Candidate& At(uint32_t cur) const {
    return trimmed_.CandidateAtPool(cur);
  }

  /// The queue as a span — introspection for the structural-invariant
  /// tests and the benchmarks' candidate counts.
  std::span<const Candidate> Queue(uint32_t slot) const {
    return trimmed_.CandidatesAt(level_of(slot), PosOf(slot));
  }

  /// Heap footprint estimate (including the owned TrimmedIndex, not the
  /// shared LabelIndex), for the plan cache's byte budget.
  size_t ApproxBytes() const {
    return sizeof(ResumableIndex) - sizeof(TrimmedIndex) +
           trimmed_.ApproxBytes() +
           level_base_.capacity() * sizeof(uint32_t) +
           slots_.capacity() * sizeof(Slot) +
           rank_pool_.capacity() * sizeof(uint32_t);
  }

 private:
  // Per queue: its level and the seek key's domain — the vertex's
  // out-edge span in the target pool and its rank array in rank_pool_.
  struct Slot {
    uint32_t level;
    uint32_t span_begin;  // vertex's first target-pool position
    uint32_t span_len;    // vertex's out-degree
    uint32_t rank_begin;  // into rank_pool_
  };

  // Lays out the slots and rank arrays from trimmed_ (shared tail of
  // both constructors).
  void BuildQueues(const Annotation& ann);

  uint32_t PosOf(uint32_t slot) const {
    return slot - level_base_[level_of(slot)];
  }
  std::pair<uint32_t, uint32_t> Range(uint32_t slot) const {
    return trimmed_.CandidateRangeAt(level_of(slot), PosOf(slot));
  }

  TrimmedIndex trimmed_;
  std::shared_ptr<const LabelIndex> adj_;  // seek keys; shared, not owned

  // Queues are numbered level-major, in useful-level vertex order, so
  // slot id == level_base_[level] + position-in-level.
  std::vector<uint32_t> level_base_;  // level -> first slot; size lambda+1
  std::vector<Slot> slots_;
  std::vector<uint32_t> rank_pool_;  // per slot: span_len rank entries
};

}  // namespace dsw

// The memoryless subsystem is one unit: every consumer of the index
// also wants the enumerator that drives it. The include sits below the
// class so either header can be included first.
#include "core/resumable_enumerator.h"  // IWYU pragma: export

#endif  // DSW_CORE_RESUMABLE_INDEX_H_
