#include "core/resumable_enumerator.h"

#include <cassert>

namespace dsw {

ResumableEnumerator::ResumableEnumerator(const Annotation& ann,
                                         const ResumableIndex& index,
                                         uint32_t source, uint32_t target)
    : index_(&index),
      delta_(&ann.delta),
      lambda_(ann.lambda),
      wps_(ann.words_per_set()),
      single_word_(UseSingleWordKernel(ann.words_per_set())),
      source_(source) {
  // The endpoints are baked into the annotation; a mismatch is a caller
  // bug. The database is not consulted — the index denormalizes
  // everything.
  assert(source == ann.source && target == ann.target);
  (void)target;
  if (!ann.reachable() || index.empty()) return;
  StateSetView r0 = index.trimmed().Useful(0, ann.source);
  if (!r0 || r0.None()) return;
  r0_.Assign(r0);
  has_answers_ = true;

  stack_.resize(static_cast<size_t>(lambda_) + 1);
  for (Frame& f : stack_) f.states = StateSet(ann.num_states);
  Rewind();
}

void ResumableEnumerator::Rewind() {
  valid_ = false;
  walk_.edges.clear();
  if (!has_answers_) return;
  stack_[0].vertex = source_;
  stack_[0].states.Assign(r0_);
  depth_ = 0;
  if (lambda_ == 0) {
    valid_ = true;  // the single empty walk
    return;
  }
  const size_t pos0 = index_->trimmed().UsefulLevel(0).FindIndex(source_);
  assert(pos0 != LevelSets::npos && "answers exist but source has no queue");
  EnterQueue(&stack_[0], 0, static_cast<uint32_t>(pos0));
  FindNext();
}

void ResumableEnumerator::EnterQueue(Frame* f, uint32_t level,
                                     uint32_t pos) const {
  const TrimmedIndex& trimmed = index_->trimmed();
  f->base = trimmed.CandidateRangeAt(level, pos).first;
  f->cur = f->base;
  f->blist = trimmed.BListAt(level, pos);
}

void ResumableEnumerator::Next() {
  if (!valid_) return;
  valid_ = false;
  if (depth_ == 0) return;  // lambda == 0: the empty walk was the answer
  --depth_;                 // leave the complete answer
  walk_.edges.pop_back();
  FindNext();
}

uint32_t ResumableEnumerator::NextLive(const Frame& f) {
  const uint32_t from = f.cur - f.base;
  if (single_word_)
    return f.blist.NextLiveWith(SingleWordKernel(), f.states, from,
                                &stats_.probes);
  return f.blist.NextLiveWith(MultiWordKernel(wps_), f.states, from,
                              &stats_.probes);
}

bool ResumableEnumerator::Advance(const StateSet& from, uint32_t label,
                                  uint32_t level, uint32_t next_pos,
                                  StateSet* out) {
  StateSetView useful_next = index_->trimmed().UsefulStates(level, next_pos);
  if (single_word_)
    return enumerator_detail::AdvanceStatesWith(
        SingleWordKernel(), *delta_, from, label, useful_next, out,
        &stats_.row_ors);
  return enumerator_detail::AdvanceStatesWith(MultiWordKernel(wps_), *delta_,
                                              from, label, useful_next, out,
                                              &stats_.row_ors);
}

void ResumableEnumerator::FindNext() {
  // Depth-first over the queues. Frames hold (base, cur) cursors into
  // the shared candidate pool, so a frame rebuilt by SeekAfter is
  // indistinguishable from one the DFS left behind. The certificate
  // structure (B-lists) guarantees every candidate NextLive hands back
  // is live for the frame's reachable set, so Advance cannot fail and
  // the loop does at most lambda pops + lambda pushes between outputs
  // (Theorem 2).
  while (true) {
    Frame& f = stack_[depth_];
    const uint32_t c = NextLive(f);
    if (c < f.blist.num_cand) {
      const ResumableIndex::Candidate& ce = index_->At(f.base + c);
      f.cur = f.base + c + 1;
      ++stats_.cells;
      Frame& next = stack_[depth_ + 1];
      const bool alive =
          Advance(f.states, ce.label, depth_ + 1, ce.next_pos, &next.states);
      assert(alive && "certificate handed out a dead candidate");
      (void)alive;
      next.vertex = ce.dst;
      walk_.edges.push_back(ce.edge);
      ++depth_;
      if (static_cast<int32_t>(depth_) == lambda_) {
        valid_ = true;
        return;
      }
      // ce.dst is useful at depth_ (< lambda), so its queue exists;
      // next_pos locates it in O(1), no binary search.
      EnterQueue(&next, depth_, ce.next_pos);
      continue;
    }
    if (depth_ == 0) return;  // root exhausted: enumeration done
    --depth_;
    walk_.edges.pop_back();
  }
}

bool ResumableEnumerator::RejectSeek() {
  assert(false && "SeekAfter: the given walk is not an answer");
  valid_ = false;
  return false;
}

bool ResumableEnumerator::SeekAfter(const Walk& prev) {
  valid_ = false;
  if (!has_answers_) return RejectSeek();
  if (prev.edges.size() != static_cast<size_t>(lambda_))
    return RejectSeek();
  if (lambda_ == 0) {
    // The empty walk is the unique answer and has no successor.
    depth_ = 0;
    walk_.edges.clear();
    return true;
  }

  // Guided run (Theorem 18): re-derive the reachable-run sets R level
  // by level from prev's edges alone and point every level's cursor
  // just past prev's edge. O(lambda x |A|) total — the SeekGe calls are
  // O(1) each, so no in-degree factor anywhere; only level 0 needs a
  // vertex lookup, deeper slots follow from each candidate's next_pos.
  walk_.edges.assign(prev.edges.begin(), prev.edges.end());
  stack_[0].vertex = source_;
  stack_[0].states.Assign(r0_);
  uint32_t slot = index_->SlotAt(0, source_);
  for (uint32_t i = 0; i < static_cast<uint32_t>(lambda_); ++i) {
    Frame& f = stack_[i];
    if (slot == kNoSlot) return RejectSeek();  // unreachable by invariant
    uint32_t e = walk_.edges[i];
    ++stats_.seeks;
    if (!index_->SpanContains(slot, e)) return RejectSeek();
    uint32_t cur = index_->SeekGe(slot, e);
    if (index_->Exhausted(slot, cur) || index_->At(cur).edge != e)
      return RejectSeek();  // e survived no answer at this level
    const ResumableIndex::Candidate& ce = index_->At(cur);
    Frame& next = stack_[i + 1];
    if (!Advance(f.states, ce.label, i + 1, ce.next_pos, &next.states))
      return RejectSeek();  // no accepting run threads through prev
    next.vertex = ce.dst;
    f.cur = cur + 1;  // resume strictly after prev's choice
    f.base = index_->RestartCursor(slot);
    f.blist = index_->BListOf(slot);
    slot = i + 1 < static_cast<uint32_t>(lambda_)
               ? index_->SlotAtPos(i + 1, ce.next_pos)
               : kNoSlot;
  }

  // The stack is now exactly what the depth-first walk holds when emitting
  // prev; one ordinary Next() yields the successor (or the clean end).
  depth_ = static_cast<uint32_t>(lambda_);
  valid_ = true;
  Next();
  return true;
}

}  // namespace dsw
