// Shared vocabulary of the CATOCS protocol pipeline: the group configuration,
// the view, what a delivery looks like to the application, the handler
// signatures, and the cost counters every experiment reads. Split out of
// group_member.h so the individual ordering layers (src/catocs/*_layer.h) can
// speak these types without depending on the facade.

#ifndef REPRO_SRC_CATOCS_TYPES_H_
#define REPRO_SRC_CATOCS_TYPES_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/catocs/message.h"
#include "src/catocs/resource_budget.h"
#include "src/catocs/vector_clock.h"
#include "src/sim/time.h"

namespace obs {
class ProvenanceRecorder;
}  // namespace obs

namespace catocs {

enum class TotalOrderMode {
  kSequencer,  // fixed sequencer: lowest member id in the current view
  kToken,      // rotating token assigns sequence numbers
};

// Which retention-buffer strategy the causal/stability machinery uses (see
// causal_buffer.h). The full-vector tracker is the paper-faithful baseline;
// the hybrid buffer is the PAPERS.md-inspired alternative.
enum class CausalBufferKind {
  kFullVector,  // StabilityTracker: throttled matrix-walk pruning
  kHybrid,      // HybridBuffer: incremental floors + causal-evidence pruning
  // OverlayCausalStrategy + the spanning-overlay dissemination path
  // (DESIGN.md §11): O(1) control bytes per message, FIFO flooding over
  // src/net/overlay.h, tree-aggregated stability. Selecting it changes the
  // send path itself, not just retention — see GroupCore::overlay_mode().
  kOverlay,
};

// What a sender does when flow control refuses admission (DESIGN.md §10):
// either the send window is exhausted (a slow receiver holds the stability
// floor down) or the resource budget is at critical pressure.
enum class OverloadPolicy : uint8_t {
  // Refuse the send with kBackpressured and arm a deterministic retry timer;
  // the caller re-sends when credits reopen (SetSendReadyHandler).
  kThrottle = 0,
  // Admission control: drop the new message outright (kShed, counted in
  // sends_shed). Old traffic drains; new traffic pays the overload cost.
  kShedNew,
  // Throttle, but if the same slowest receiver pins the window shut for 20
  // consecutive 5 ms retry ticks (flow_control.cc), hand it to the
  // membership layer's suspicion path so the group sheds the laggard and
  // frees its retention.
  kEvictLaggard,
};

inline const char* ToString(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kThrottle:
      return "throttle";
    case OverloadPolicy::kShedNew:
      return "shed-new";
    case OverloadPolicy::kEvictLaggard:
      return "evict-laggard";
  }
  return "?";
}

// Outcome of one GroupMember::TrySend. Send() keeps its historical
// MessageId-only signature (id {0,0} on any refusal).
enum class SendStatus : uint8_t {
  kSent = 0,          // broadcast (or handed to the batcher); id is valid
  kQueuedBehindFlush, // accepted: queued while a view change flushes, re-sent
                      // on install (id assigned then)
  kBackpressured,     // refused: no send credits / budget critical (throttle)
  kShed,              // dropped by the shed-new admission policy
  kStopped,           // member not started or crashed
};

struct SendResult {
  SendStatus status = SendStatus::kSent;
  MessageId id{0, 0};

  // The message will (eventually) be broadcast.
  bool accepted() const {
    return status == SendStatus::kSent || status == SendStatus::kQueuedBehindFlush;
  }
};

struct GroupConfig {
  GroupId group_id = 1;

  // Stability: every data message piggybacks the sender's delivered-vector
  // (except on the overlay path); this also gossips it periodically (Zero
  // disables gossip).
  sim::Duration ack_gossip_interval = sim::Duration::Millis(50);

  // Footnote-4 causal variant: attach unstable causal predecessors to each
  // message instead of relying on receiver-side delay alone.
  bool piggyback_causal = false;

  TotalOrderMode total_order_mode = TotalOrderMode::kSequencer;

  // How often (in simulated time) a member recomputes stability and prunes
  // its retention buffer. Pruning walks the member matrix, so it is
  // throttled off the per-message path. (Only the full-vector strategy
  // needs the throttle; the hybrid buffer releases incrementally.)
  sim::Duration prune_interval = sim::Duration::Millis(25);

  // Retention-buffer strategy for atomic delivery.
  CausalBufferKind causal_buffer = CausalBufferKind::kFullVector;

  // --- Raw-speed layer (DESIGN.md "Raw-speed layer") ------------------------
  // Sender-side batching: coalesce up to this many consecutive ordered sends
  // into one GroupBatch frame. 1 (the default) bypasses the batcher entirely
  // — the send path is byte-identical to the unbatched stack. A partial
  // batch flushes after batch_flush_delay, and always before a membership
  // flush blocks the group (a batch never spans a view change).
  uint32_t batching = 1;
  sim::Duration batch_flush_delay = sim::Duration::Millis(1);

  // Pipeline observability: when set, each ordering layer reports
  // enter/exit + hold-reason into the member's PipelineStats and emits
  // per-message lifecycle spans into the simulator's SpanRecorder (if that
  // recorder is itself enabled). Off by default so the per-message fast path
  // and every bench's stdout stay byte-identical.
  bool observability = false;

  // Causal provenance recording (DESIGN.md §8): with observability on and a
  // recorder attached, every layer reports per-message gap provenance on
  // release (false-causality classification), the delivery path reports the
  // potential-causality frontier, and DeclareDependency feeds the semantic
  // graph. Record-only, shared across the group's members — nullptr (the
  // default) costs one pointer test on instrumented paths.
  obs::ProvenanceRecorder* provenance = nullptr;

  // Membership (off by default; most experiments use static groups).
  bool enable_membership = false;
  sim::Duration heartbeat_interval = sim::Duration::Millis(20);
  sim::Duration failure_timeout = sim::Duration::Millis(100);

  // --- Bounded resources & flow control (DESIGN.md §10) ---------------------
  // Per-group memory budget charged by the retention strategies, the sender
  // batcher, the total-order pending set, and the transport send queues.
  // Unbounded by default: nothing is charged and the pipeline stays
  // byte-identical.
  BudgetConfig budget;

  // Sender-side send window: at most this many of a member's own ordered
  // sends may sit above the group stability floor (credits = send_window −
  // (send_seq − stable floor for self)), so the slowest live receiver
  // throttles the sender instead of exploding its retention. 0 disables
  // window flow control.
  uint32_t send_window = 0;

  // What to do when admission is refused (window shut or budget critical).
  OverloadPolicy overload_policy = OverloadPolicy::kThrottle;
};

struct View {
  uint64_t id = 1;
  std::vector<MemberId> members;  // sorted
};

// What the application sees on delivery. The message itself is the single
// immutable GroupData shared by every destination (and by the stability
// buffer) — a delivery adds only the per-receiver facts, so handing a
// message to N applications never deep-copies its ordering metadata.
struct Delivery {
  GroupDataPtr data;
  uint64_t total_seq = 0;  // assigned group-wide sequence; 0 unless kTotal
  sim::TimePoint delivered_at;
  // Time the message spent waiting in this member's delay queue for causal
  // predecessors (the cost of potential/false causality).
  sim::Duration causal_delay;

  const MessageId& id() const { return data->id(); }
  OrderingMode mode() const { return data->mode(); }
  const net::PayloadPtr& payload() const { return data->app_payload(); }
  sim::TimePoint sent_at() const { return data->sent_at(); }
  const VectorClock& vt() const { return data->vt(); }
};

using DeliveryHandler = std::function<void(const Delivery&)>;
using ViewHandler = std::function<void(const View&)>;

// Application state transfer for crash-recovery rejoin (see group_member.h
// for the full contract).
using StateProvider = std::function<net::PayloadPtr()>;
using StateApplier = std::function<void(const net::PayloadPtr&)>;

struct GroupStats {
  uint64_t sent = 0;
  uint64_t sends_while_stopped = 0;  // dropped: member crashed or not started
  uint64_t causal_delivered = 0;  // passed the vector-clock condition
  uint64_t app_delivered = 0;     // handed to the application
  uint64_t delayed_deliveries = 0;
  sim::Duration total_causal_delay = sim::Duration::Zero();
  uint64_t order_msgs_sent = 0;
  uint64_t ack_msgs_sent = 0;
  uint64_t token_passes = 0;
  uint64_t ordering_header_bytes = 0;  // VT + ack headers on data we sent
  // Data-frame transmissions those header bytes rode on (N−1 per direct
  // multicast, one per overlay forward, fanout per batch frame) —
  // ordering_header_bytes / data_transmissions is the metadata bytes/msg
  // figure E21 and bench.sh report.
  uint64_t data_transmissions = 0;
  uint64_t piggyback_msgs_carried = 0;
  uint64_t piggyback_bytes = 0;
  uint64_t flushes_completed = 0;
  // Relayed suspicions rejected because we heard the suspect too recently
  // (the fresh-evidence veto in HandleSuspicion).
  uint64_t suspicions_vetoed = 0;
  // Flush rounds a coordinator refused to complete because its survivor set
  // was not a primary partition of the departing view (strict majority, or
  // exactly half holding the lowest member id). The minority side wedges
  // rather than installing a rival view.
  uint64_t flushes_blocked_no_quorum = 0;
  uint64_t flush_control_msgs = 0;
  uint64_t flush_payload_bytes = 0;
  sim::Duration blocked_time = sim::Duration::Zero();
  // Messages from a failed sender abandoned at a view change because no
  // survivor held a copy (atomic-but-not-durable delivery, §2).
  uint64_t messages_dropped_at_view_change = 0;

  // --- Raw-speed layer ------------------------------------------------------
  uint64_t batches_sent = 0;          // GroupBatch frames broadcast
  uint64_t batched_data_msgs = 0;     // constituents carried in those frames

  // --- Bounded resources & flow control ------------------------------------
  uint64_t sends_backpressured = 0;  // refused with kBackpressured
  uint64_t sends_shed = 0;           // dropped by the shed-new policy
  uint64_t flow_reopen_wakeups = 0;  // window reopenings (retry tick or ack progress)
  uint64_t laggards_reported = 0;    // evict-laggard hand-offs to membership

  // --- Overlay dissemination (DESIGN.md §11) --------------------------------
  uint64_t overlay_forwards = 0;      // data frames pushed onto tree links
  uint64_t overlay_prebuffered = 0;   // frames stashed until their view installed
  uint64_t overlay_stale_dropped = 0; // old-view frames dropped (provable dups)
  uint64_t overlay_floor_updates = 0; // release-floor announcements adopted
};

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_TYPES_H_
