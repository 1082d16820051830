// Causal delivery (cbcast): the Birman–Schiper–Stephenson vector-clock delay
// queue. Stage 1 of the delivery cascade — a message leaves this layer only
// when everything that happens-before it has been causally delivered here.

#ifndef REPRO_SRC_CATOCS_CAUSAL_LAYER_H_
#define REPRO_SRC_CATOCS_CAUSAL_LAYER_H_

#include <cstdint>
#include <deque>
#include <set>

#include "src/mem/pool.h"

#include "src/catocs/layer.h"
#include "src/catocs/vector_clock.h"

namespace catocs {

class CausalLayer : public OrderingLayer {
 public:
  explicit CausalLayer(GroupCore* core) : OrderingLayer(core) { core->causal = this; }

  const char* name() const override { return "causal"; }

  // Stamps the vector timestamp: the delivered-vector with our own entry
  // advanced to this send — one contiguous copy, no per-entry churn.
  void OnSend(GroupData& data) override;
  bool OnReceive(MemberId src, uint32_t port, const net::PayloadPtr& payload) override;
  void TryDeliver() override { TryDeliverPending(); }

  // Allocates the per-sender sequence number for an outgoing ordered send.
  uint64_t AllocateSendSeq() { return ++send_seq_; }
  // Highest sequence allocated so far (the flow controller's credit formula
  // reads send_seq − stable floor).
  uint64_t send_seq() const { return send_seq_; }

  // Entry point for a data message (local self-delivery, network arrival, or
  // view-change redistribution): observes piggybacked acks, dedups, queues,
  // and drives the cascade as far as it will go. `observe_acks=false` lets
  // the batch unpacker observe one ack vector per frame instead of one per
  // constituent (ack vectors are monotone along a sender's stream, so the
  // last one subsumes the rest).
  //
  // `from` matters only on the overlay path: the link the frame arrived on
  // (or self for an origin send), so forward-on-delivery floods to every
  // overlay neighbor *except* that link. 0 — the default, used by the
  // view-install redistribution path — means "local": no view gating and no
  // re-forwarding (everyone on the new view received the same redistribution
  // directly from the coordinator).
  void Ingest(const GroupDataPtr& data, bool observe_acks = true, MemberId from = 0);

  void TryDeliverPending();

  // Contiguous causally-delivered count per sender.
  const VectorClock& delivered() const { return vd_; }
  size_t delay_queue_length() const { return pending_.size(); }

  // Joiner: adopt the group's delivery cut as our floor (history we never
  // see, by design).
  void AdoptCut(const VectorClock& cut) { vd_.Merge(cut); }

  // Failed-sender cleanup at a view install: messages from a failed sender
  // *beyond* the flush cut are lost for good — no survivor holds a copy, and
  // nothing deliverable can depend on them (a dependent message would have
  // required its own sender to causally deliver the predecessor first, which
  // would have pulled it into the cut). Dropping them is the protocol
  // admitting non-durability.
  void DropFailedSenderBacklog(const ViewInstall& install);

  // View change: the overlay path re-ingests frames stashed for the new
  // view.
  void OnViewChange(const View& view) override;

 private:
  struct PendingMessage {
    GroupDataPtr data;
    sim::TimePoint arrived_at;
    MemberId from = 0;  // overlay arrival link; see Ingest
  };

  bool CausallyDeliverable(const GroupData& data) const;
  void CausalDeliver(const GroupDataPtr& data, sim::TimePoint arrived_at, MemberId from = 0);
  // Overlay forward-on-delivery: push the just-delivered frame onto every
  // tree link except the one it arrived on, in causal delivery order — the
  // per-link FIFO discipline the constant-metadata path's correctness rests
  // on (DESIGN.md §11).
  void ForwardOnOverlay(const GroupDataPtr& data, MemberId from);

  uint64_t send_seq_ = 0;
  VectorClock vd_;  // contiguous causally-delivered count per sender
  std::deque<PendingMessage> pending_;
  // Buffering-during-churn (overlay): frames tagged with a view id ahead of
  // ours, held until that view installs here — the install's redistribution
  // closes any causal gap before these re-enter Ingest.
  std::deque<PendingMessage> pre_view_;
  // Fast duplicate check for pending_. Pool-backed: entries come and go once
  // per out-of-order arrival, and tree nodes are exactly the churn the
  // size-class pool exists for.
  std::set<MessageId, std::less<MessageId>, mem::PoolAllocator<MessageId>> pending_ids_;
};

}  // namespace catocs

#endif  // REPRO_SRC_CATOCS_CAUSAL_LAYER_H_
