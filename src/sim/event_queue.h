// Pending-event set for the discrete-event simulator.
//
// Events are closures keyed by (fire time, insertion sequence). The sequence
// tiebreak makes (when, seq) a strict total order, so execution order is
// fully deterministic when many events share a timestamp — and independent
// of the heap's internal shape.
//
// Two structures hold the pending set. A binary min-heap of small
// (when, seq, slot) keys orders the events; the closures themselves live in
// a side slab of fixed 256-slot blocks (a block never moves once allocated,
// so growing the slab neither relocates closures nor doubles its footprint).
// A slot remembers the seq of the event that owns it, and 0 once freed.
//
// Cancel is O(1): it frees the slot and its closure at once and leaves the
// key in the heap. A key whose slot no longer holds its seq is dead; dead
// keys are dropped when they reach the top, and swept in one linear pass
// once they outnumber max(128, live). The threshold scales with the live
// set (churn-heavy runs at N=10k cancel far more events than they fire, and
// a fixed threshold either thrashes small queues or lets huge ones bloat).

#ifndef REPRO_SRC_SIM_EVENT_QUEUE_H_
#define REPRO_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/inline_fn.h"
#include "src/sim/time.h"

namespace sim {

// Move-only, inline-storage closure: scheduling an event no longer
// heap-allocates for typical captures (see inline_fn.h).
using EventFn = InlineFn;

// Opaque handle for cancelling a scheduled event. The sequence number is the
// identity (never reused); the slot says where its closure sits. A handle
// whose slot has since been freed or reused simply fails to cancel, it can
// never cancel the wrong event.
struct EventId {
  uint64_t seq = 0;
  uint32_t slot = 0;

  bool valid() const { return seq != 0; }
};

class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules fn to run at `when`. Events scheduled for the same instant run
  // in schedule order.
  EventId Schedule(TimePoint when, EventFn fn);

  // Cancels a pending event. Returns false if it already ran or was already
  // cancelled — in particular, an event cancelling itself from inside its own
  // closure (a timeout that fires and then "cancels" its handle) is a no-op.
  bool Cancel(EventId id);

  // True if no live (non-cancelled) events remain.
  bool Empty() const { return live_ == 0; }

  size_t size() const { return live_; }
  // Keys physically in the heap, including lazily cancelled ones (exposed so
  // tests can observe the sweep).
  size_t heap_size() const { return heap_.size(); }

  // Fire time of the next live event. Must not be called when Empty().
  TimePoint NextTime();

  // Removes and returns the next live event. Must not be called when Empty().
  struct Fired {
    TimePoint when;
    EventFn fn;
  };
  Fired PopNext();

 private:
  struct Key {
    TimePoint when;
    uint64_t seq;
    uint32_t slot;
  };

  struct Slot {
    uint64_t seq = 0;  // owning event's seq; 0 while free
    EventFn fn;
  };

  // The std heap algorithms keep the greatest key on top, so ordering by
  // "fires later" keeps the earliest (when, seq) there. The order is total:
  // every valid heap shape pops the same sequence, so a sweep's rebuild
  // never perturbs replay.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  static constexpr size_t kSlotsPerBlock = 256;
  // Never sweep below this many dead keys: small queues shouldn't pay for
  // rebuild passes.
  static constexpr size_t kSweepMinDead = 128;

  Slot& SlotAt(uint32_t slot) { return blocks_[slot / kSlotsPerBlock][slot % kSlotsPerBlock]; }
  bool Dead(const Key& key) { return SlotAt(key.slot).seq != key.seq; }
  void FreeSlot(uint32_t slot);
  // Pops dead keys until the top is live (or the heap is empty).
  void SkipDead();

  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Slot[]>> blocks_;
  std::vector<uint32_t> free_slots_;
  size_t live_ = 0;
  uint64_t next_seq_ = 1;
};

}  // namespace sim

#endif  // REPRO_SRC_SIM_EVENT_QUEUE_H_
