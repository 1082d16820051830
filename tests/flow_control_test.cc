// Bounded resources and sender-side flow control (DESIGN.md §10): the
// ResourceBudget's watermark/hysteresis/epoch machinery, the credit-window
// admission path, and the three overload-policy edge cases the design calls
// out — zero credits at a view-change flush boundary, shed-new refusing part
// of a batch, and a laggard eviction racing a partition heal. The end-to-end
// scenarios run twice from the same seed and must produce bit-identical
// observable traces: flow control is part of the deterministic pipeline, not
// a source of nondeterminism.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/catocs/group.h"
#include "src/catocs/resource_budget.h"
#include "src/net/payload.h"
#include "src/sim/simulator.h"

namespace catocs {
namespace {

net::PayloadPtr Blob(const std::string& tag, size_t size = 64) {
  return std::make_shared<net::BlobPayload>(tag, size);
}

std::string TagOf(const Delivery& d) {
  const auto* blob = net::PayloadCast<net::BlobPayload>(d.payload());
  return blob ? blob->tag() : "?";
}

char StatusChar(SendStatus status) {
  switch (status) {
    case SendStatus::kSent:
      return 'S';
    case SendStatus::kQueuedBehindFlush:
      return 'Q';
    case SendStatus::kBackpressured:
      return 'B';
    case SendStatus::kShed:
      return 'D';
    case SendStatus::kStopped:
      return 'X';
  }
  return '?';
}

// --- ResourceBudget unit tests ---------------------------------------------

TEST(ResourceBudgetTest, UnboundedByDefault) {
  ResourceBudget budget;
  EXPECT_FALSE(budget.bounded());
  EXPECT_EQ(budget.pressure(), MemoryPressure::kNone);
  EXPECT_EQ(budget.utilization(), 0.0);
  EXPECT_FALSE(budget.WouldExceed(1 << 30, 1 << 20));
}

TEST(ResourceBudgetTest, WatermarkEscalationHysteresisAndEpochs) {
  ResourceBudget budget;
  BudgetConfig cfg;
  cfg.max_bytes = 1000;
  budget.Configure(cfg);

  budget.Set(ResourceBudget::kRetention, 600, 3);
  EXPECT_EQ(budget.pressure(), MemoryPressure::kNone);
  budget.Set(ResourceBudget::kRetention, 750, 4);  // >= high (0.70)
  EXPECT_EQ(budget.pressure(), MemoryPressure::kHigh);
  budget.Set(ResourceBudget::kRetention, 950, 5);  // >= critical (0.90)
  EXPECT_EQ(budget.pressure(), MemoryPressure::kCritical);
  const uint64_t epoch = budget.pressure_epoch();

  // Hysteresis: draining below the escalation watermarks but above low keeps
  // both the level and the epoch — the level is monotone within an epoch.
  budget.Set(ResourceBudget::kRetention, 600, 3);
  EXPECT_EQ(budget.pressure(), MemoryPressure::kCritical);
  EXPECT_EQ(budget.pressure_epoch(), epoch);

  // Below low (0.50): pressure clears and a new epoch begins.
  budget.Set(ResourceBudget::kRetention, 400, 2);
  EXPECT_EQ(budget.pressure(), MemoryPressure::kNone);
  EXPECT_EQ(budget.pressure_epoch(), epoch + 1);
  EXPECT_EQ(budget.peak_bytes(), 950u);
  EXPECT_EQ(budget.peak_messages(), 5u);
}

TEST(ResourceBudgetTest, ComponentsReportAbsoluteOccupancy) {
  ResourceBudget budget;
  BudgetConfig cfg;
  cfg.max_bytes = 1000;
  cfg.max_messages = 10;
  budget.Configure(cfg);

  budget.Set(ResourceBudget::kRetention, 100, 1);
  budget.Set(ResourceBudget::kBatcher, 200, 2);
  EXPECT_EQ(budget.used_bytes(), 300u);
  EXPECT_EQ(budget.used_messages(), 3u);

  // Absolute reports, not deltas: re-reporting a component replaces its
  // contribution, so a component can never leak the totals out of sync.
  budget.Set(ResourceBudget::kRetention, 50, 1);
  EXPECT_EQ(budget.used_bytes(), 250u);
  EXPECT_EQ(budget.used_messages(), 3u);
  EXPECT_EQ(budget.component_bytes(ResourceBudget::kRetention), 50u);

  EXPECT_TRUE(budget.WouldExceed(800, 0));  // bytes axis
  EXPECT_TRUE(budget.WouldExceed(0, 8));    // messages axis
  EXPECT_FALSE(budget.WouldExceed(100, 1));
}

// --- GroupMember flow-control defaults -------------------------------------

TEST(FlowControlTest, DefaultConfigHasNoFlowControl) {
  sim::Simulator s(40);
  GroupFabric fabric(&s, {});
  fabric.StartAll();
  s.RunFor(sim::Duration::Millis(100));
  EXPECT_EQ(fabric.member(0).send_credits(), UINT64_MAX);
  EXPECT_FALSE(fabric.member(0).backpressured());
  EXPECT_FALSE(fabric.member(0).budget().bounded());
  const SendResult result = fabric.member(0).TrySend(OrderingMode::kCausal, Blob("free"));
  EXPECT_EQ(result.status, SendStatus::kSent);
  s.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(fabric.member(0).stats().sends_backpressured, 0u);
}

// --- Edge case 1: zero credits at a view-change flush boundary --------------
//
// A slow (here: partitioned) receiver pins the sender's window shut; the
// failure detector then evicts it, which starts a flush. A send issued while
// the flush runs AND credits are zero must be refused by admission
// (kBackpressured) — never silently accepted into the flush-blocked queue,
// which would grow without bound exactly when memory is scarcest. Once the
// new view installs, the stability floor is recomputed over the survivors,
// the window reopens, and throttled sends resume.
TEST(FlowControlTest, ZeroCreditsAtViewChangeFlushRefusesNotQueues) {
  auto run = [] {
    sim::Simulator s(41);
    FabricConfig cfg;
    cfg.num_members = 3;
    cfg.group.enable_membership = true;
    cfg.group.heartbeat_interval = sim::Duration::Millis(20);
    cfg.group.failure_timeout = sim::Duration::Millis(100);
    cfg.group.ack_gossip_interval = sim::Duration::Millis(10);
    cfg.group.send_window = 4;
    GroupFabric fabric(&s, cfg);

    std::ostringstream trace;
    std::vector<SendStatus> statuses;
    for (size_t i = 0; i < 2; ++i) {
      const MemberId id = GroupFabric::IdOf(i);
      fabric.member(i).SetDeliveryHandler(
          [&trace, id](const Delivery& d) { trace << id << ":" << TagOf(d) << " "; });
    }
    fabric.StartAll();

    int n = 0;
    std::function<void()> tick = [&] {
      if (s.now() >= sim::TimePoint::Zero() + sim::Duration::Millis(1500)) {
        return;
      }
      statuses.push_back(
          fabric.member(0).TrySend(OrderingMode::kCausal, Blob("m" + std::to_string(n++)))
              .status);
      s.ScheduleAfter(sim::Duration::Millis(20), tick);
    };
    s.ScheduleAfter(sim::Duration::Millis(100), tick);
    s.ScheduleAfter(sim::Duration::Millis(300),
                    [&] { fabric.network().Partition({{1, 2}, {3}}); });
    s.RunFor(sim::Duration::Seconds(3));

    size_t sent = 0;
    size_t backpressured = 0;
    for (SendStatus status : statuses) {
      trace << StatusChar(status);
      sent += status == SendStatus::kSent;
      backpressured += status == SendStatus::kBackpressured;
      // The heart of the edge case: with the window pinned shut for the whole
      // detection + flush episode, no send may slip into the flush queue.
      EXPECT_NE(status, SendStatus::kQueuedBehindFlush);
    }
    EXPECT_GT(sent, 0u);
    EXPECT_GT(backpressured, 0u);
    // The refusals were counted, the window reopened on the view change, and
    // the sender finished unblocked in the survivor view {1, 2}.
    EXPECT_EQ(fabric.member(0).stats().sends_backpressured, backpressured);
    EXPECT_GE(fabric.member(0).stats().flow_reopen_wakeups, 1u);
    EXPECT_EQ(statuses.back(), SendStatus::kSent);
    EXPECT_FALSE(fabric.member(0).backpressured());
    EXPECT_EQ(fabric.member(0).view().members, (std::vector<MemberId>{1, 2}));
    EXPECT_EQ(fabric.member(1).view().members, (std::vector<MemberId>{1, 2}));
    trace << "|view=" << fabric.member(0).view().id;
    return trace.str();
  };
  // Replay determinism: flow control must not perturb the simulation.
  EXPECT_EQ(run(), run());
}

// --- Edge case 2: shed-new refuses admission mid-batch ----------------------
//
// With batching on, an admitted send joins the batcher's partial batch; a
// shed send must never reach the batcher at all. The partial batch still
// flushes complete — shedding affects only the refused messages.
TEST(FlowControlTest, ShedNewDropsDuringPartialBatch) {
  auto run = [] {
    sim::Simulator s(42);
    FabricConfig cfg;
    cfg.num_members = 2;
    cfg.group.batching = 4;
    cfg.group.send_window = 3;
    cfg.group.overload_policy = OverloadPolicy::kShedNew;
    GroupFabric fabric(&s, cfg);

    std::ostringstream trace;
    fabric.member(1).SetDeliveryHandler(
        [&trace](const Delivery& d) { trace << "2:" << TagOf(d) << " "; });
    fabric.StartAll();

    std::vector<SendStatus> statuses;
    s.ScheduleAfter(sim::Duration::Millis(200),
                    [&] { fabric.network().Partition({{1}, {2}}); });
    // Five back-to-back sends against a window of 3: the first three join
    // the batcher (a partial batch — 3 of 4 slots), the last two are shed.
    s.ScheduleAfter(sim::Duration::Millis(210), [&] {
      for (int i = 1; i <= 5; ++i) {
        statuses.push_back(
            fabric.member(0).TrySend(OrderingMode::kCausal, Blob("m" + std::to_string(i)))
                .status);
      }
    });
    s.ScheduleAfter(sim::Duration::Millis(300), [&] { fabric.network().HealPartition(); });
    s.RunFor(sim::Duration::Seconds(2));

    EXPECT_EQ(statuses.size(), 5u);
    if (statuses.size() == 5u) {
      EXPECT_EQ(statuses[0], SendStatus::kSent);
      EXPECT_EQ(statuses[1], SendStatus::kSent);
      EXPECT_EQ(statuses[2], SendStatus::kSent);
      EXPECT_EQ(statuses[3], SendStatus::kShed);
      EXPECT_EQ(statuses[4], SendStatus::kShed);
    }
    EXPECT_EQ(fabric.member(0).stats().sends_shed, 2u);
    // The receiver got exactly the admitted prefix — the flushed partial
    // batch carries m1..m3 and nothing of the shed tail.
    const std::string delivered = trace.str();
    EXPECT_NE(delivered.find("2:m1"), std::string::npos);
    EXPECT_NE(delivered.find("2:m2"), std::string::npos);
    EXPECT_NE(delivered.find("2:m3"), std::string::npos);
    EXPECT_EQ(delivered.find("2:m4"), std::string::npos);
    EXPECT_EQ(delivered.find("2:m5"), std::string::npos);
    for (SendStatus status : statuses) {
      trace << StatusChar(status);
    }
    return trace.str();
  };
  EXPECT_EQ(run(), run());
}

// --- Edge case 3: laggard eviction racing a partition heal ------------------
//
// Under evict-laggard, a receiver that pins the window shut for 20
// consecutive retry ticks is handed to membership as a suspect. Here the
// partition heals while the resulting flush is still in flight: the eviction
// must win deterministically (the suspicion was already fed to membership),
// the survivors install {1, 2}, and the sender's window reopens against the
// survivor floor. The heartbeat detector is parked at 5s so only the laggard
// path can evict — this isolates the policy under test.
TEST(FlowControlTest, LaggardEvictionRacesHeal) {
  auto run = [] {
    sim::Simulator s(43);
    FabricConfig cfg;
    cfg.num_members = 3;
    cfg.group.enable_membership = true;
    cfg.group.heartbeat_interval = sim::Duration::Millis(20);
    cfg.group.failure_timeout = sim::Duration::Seconds(5);
    cfg.group.ack_gossip_interval = sim::Duration::Millis(10);
    cfg.group.send_window = 4;
    cfg.group.overload_policy = OverloadPolicy::kEvictLaggard;
    GroupFabric fabric(&s, cfg);

    std::ostringstream trace;
    for (size_t i = 0; i < 2; ++i) {
      const MemberId id = GroupFabric::IdOf(i);
      fabric.member(i).SetDeliveryHandler(
          [&trace, id](const Delivery& d) { trace << id << ":" << TagOf(d) << " "; });
    }
    fabric.StartAll();

    int n = 0;
    std::vector<SendStatus> statuses;
    std::function<void()> tick = [&] {
      if (s.now() >= sim::TimePoint::Zero() + sim::Duration::Millis(2000)) {
        return;
      }
      statuses.push_back(
          fabric.member(0).TrySend(OrderingMode::kCausal, Blob("m" + std::to_string(n++)))
              .status);
      s.ScheduleAfter(sim::Duration::Millis(25), tick);
    };
    s.ScheduleAfter(sim::Duration::Millis(100), tick);
    s.ScheduleAfter(sim::Duration::Millis(500),
                    [&] { fabric.network().Partition({{1, 2}, {3}}); });
    // ~20 credits-shut retry ticks land around 700ms; the heal arrives while
    // the eviction flush is settling.
    s.ScheduleAfter(sim::Duration::Millis(750), [&] { fabric.network().HealPartition(); });
    s.RunFor(sim::Duration::Seconds(3));

    EXPECT_EQ(fabric.member(0).stats().laggards_reported, 1u);
    EXPECT_GE(fabric.member(0).stats().sends_backpressured, 1u);
    EXPECT_GE(fabric.member(0).stats().flow_reopen_wakeups, 1u);
    // The eviction won the race: survivors agree on {1, 2} and the sender
    // finished unblocked (the evicted-but-alive member wedges under the
    // primary-partition rule, exactly like any false suspicion).
    EXPECT_EQ(fabric.member(0).view().members, (std::vector<MemberId>{1, 2}));
    EXPECT_EQ(fabric.member(1).view().members, (std::vector<MemberId>{1, 2}));
    EXPECT_EQ(statuses.back(), SendStatus::kSent);
    EXPECT_FALSE(fabric.member(0).backpressured());
    for (SendStatus status : statuses) {
      trace << StatusChar(status);
    }
    trace << "|view=" << fabric.member(0).view().id
          << "|laggards=" << fabric.member(0).stats().laggards_reported;
    return trace.str();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace catocs
