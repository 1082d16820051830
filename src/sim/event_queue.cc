#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace sim {

EventId EventQueue::Schedule(TimePoint when, EventFn fn) {
  if (free_slots_.empty()) {
    const auto first = static_cast<uint32_t>(blocks_.size() * kSlotsPerBlock);
    blocks_.push_back(std::make_unique<Slot[]>(kSlotsPerBlock));
    for (uint32_t i = kSlotsPerBlock; i-- > 0;) {
      free_slots_.push_back(first + i);
    }
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  const uint64_t seq = next_seq_++;
  Slot& s = SlotAt(slot);
  s.seq = seq;
  s.fn = std::move(fn);
  // Sift up by hand: std::push_heap copies the key through a stack temporary
  // and measured ~25% slower on BM_EventQueueChurn. A new key usually fires
  // last, so this loop mostly stops after one comparison.
  size_t hole = heap_.size();
  heap_.emplace_back();
  const Key key{when, seq, slot};
  while (hole > 0) {
    const size_t parent = (hole - 1) / 2;
    if (!Later{}(heap_[parent], key)) {
      break;
    }
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
  ++live_;
  return EventId{seq, slot};
}

void EventQueue::FreeSlot(uint32_t slot) {
  SlotAt(slot).seq = 0;
  free_slots_.push_back(slot);
}

bool EventQueue::Cancel(EventId id) {
  // The slot's seq is authoritative: once the event fired or was cancelled
  // the slot reads 0 (or a newer seq after reuse), so a stale handle —
  // including an event cancelling itself from inside its own closure — is
  // always a no-op. Sequence numbers are never reused, so the check can't be
  // fooled.
  if (!id.valid() || id.slot >= blocks_.size() * kSlotsPerBlock) {
    return false;
  }
  Slot& s = SlotAt(id.slot);
  if (s.seq != id.seq) {
    return false;
  }
  s.fn = EventFn{};  // free the closure now, not when its key surfaces
  FreeSlot(id.slot);
  --live_;
  if (heap_.size() - live_ > std::max(kSweepMinDead, live_)) {
    std::erase_if(heap_, [this](const Key& key) { return Dead(key); });
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  }
  return true;
}

void EventQueue::SkipDead() {
  while (!heap_.empty() && Dead(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

TimePoint EventQueue::NextTime() {
  SkipDead();
  assert(!heap_.empty());
  return heap_.front().when;
}

EventQueue::Fired EventQueue::PopNext() {
  SkipDead();
  assert(!heap_.empty());
  const Key top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  Fired fired{top.when, std::move(SlotAt(top.slot).fn)};
  FreeSlot(top.slot);
  --live_;
  return fired;
}

}  // namespace sim
