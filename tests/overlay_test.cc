// Tests for the constant-metadata overlay path (DESIGN.md §11): the
// deterministic spanning tree, the tree-shaped stability strategy, the
// linear causal checker, end-to-end dissemination with O(1) control bytes,
// and churn (crash + rejoin) under the invariant oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/catocs/group.h"
#include "src/catocs/overlay_buffer.h"
#include "src/fault/chaos_rig.h"
#include "src/fault/fault_plan.h"
#include "src/fault/injector.h"
#include "src/fault/oracle.h"
#include "src/net/overlay.h"
#include "src/sim/simulator.h"

namespace catocs {
namespace {

net::PayloadPtr Blob(const std::string& tag) {
  return std::make_shared<net::BlobPayload>(tag, 32);
}

// --- spanning tree shape -----------------------------------------------------

std::vector<net::NodeId> Ids(size_t n) {
  std::vector<net::NodeId> ids;
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(static_cast<net::NodeId>(i + 1));
  }
  return ids;
}

TEST(SpanningOverlayTest, RootHasNoParentAndFirstKChildren) {
  net::SpanningOverlay overlay;
  overlay.Rebuild(Ids(10), 1);
  EXPECT_TRUE(overlay.is_root());
  EXPECT_EQ(overlay.parent(), 0u);
  EXPECT_EQ(overlay.depth(), 0u);
  EXPECT_EQ(overlay.children(), (std::vector<net::NodeId>{2, 3, 4, 5}));
  EXPECT_EQ(overlay.neighbors(), (std::vector<net::NodeId>{2, 3, 4, 5}));
}

TEST(SpanningOverlayTest, InteriorNodeLinksMatchKAryFormula) {
  net::SpanningOverlay overlay;
  // index(id=3) = 2; parent index (2-1)/4 = 0 -> id 1.
  // children indices 2*4+1..2*4+4 = 9..12 -> ids 10, 11, 12 (13 absent: N=12).
  overlay.Rebuild(Ids(12), 3);
  EXPECT_FALSE(overlay.is_root());
  EXPECT_EQ(overlay.parent(), 1u);
  EXPECT_EQ(overlay.depth(), 1u);
  EXPECT_EQ(overlay.children(), (std::vector<net::NodeId>{10, 11, 12}));
  EXPECT_TRUE(overlay.IsNeighbor(1));
  EXPECT_TRUE(overlay.IsNeighbor(11));
  EXPECT_FALSE(overlay.IsNeighbor(2));
}

TEST(SpanningOverlayTest, SelfAbsentMeansNotInOverlay) {
  net::SpanningOverlay overlay;
  overlay.Rebuild(Ids(8), 42);
  EXPECT_FALSE(overlay.in_overlay());
  EXPECT_FALSE(overlay.is_root());
  EXPECT_TRUE(overlay.neighbors().empty());
}

TEST(SpanningOverlayTest, JoinAppendsLeafWithoutMovingInterior) {
  // A fresh joiner takes an id above every existing one, so the sorted index
  // of every current member is unchanged — only the joiner's parent gains a
  // link. That is the property that makes a join a cheap rewire.
  net::SpanningOverlay before;
  net::SpanningOverlay after;
  std::vector<net::NodeId> ids = Ids(9);
  before.Rebuild(ids, 3);
  ids.push_back(50);  // joiner: index 9, parent index (9-1)/4 = 2 -> id 3
  after.Rebuild(ids, 3);
  EXPECT_EQ(before.parent(), after.parent());
  EXPECT_EQ(after.children(), (std::vector<net::NodeId>{50}));
  net::SpanningOverlay joiner;
  joiner.Rebuild(ids, 50);
  EXPECT_EQ(joiner.parent(), 3u);
  EXPECT_TRUE(joiner.children().empty());
}

TEST(SpanningOverlayTest, DepthIsLogarithmic) {
  net::SpanningOverlay overlay;
  overlay.Rebuild(Ids(1024), 1024);
  EXPECT_LE(overlay.depth(), 5u);  // ceil(log4 1024) = 5
}

// --- overlay stability strategy ---------------------------------------------

GroupDataPtr Msg(MemberId sender, uint64_t seq) {
  VectorClock vt;
  vt.Set(sender, seq);
  auto data = std::make_shared<GroupData>(/*group=*/1, MessageId{sender, seq},
                                          OrderingMode::kCausal, std::move(vt), Blob("m"),
                                          sim::TimePoint::Zero());
  data->set_overlay_view(1);
  return data;
}

VectorClock Clock(std::vector<std::pair<MemberId, uint64_t>> entries) {
  VectorClock vc;
  for (const auto& [member, value] : entries) {
    vc.Set(member, value);
  }
  return vc;
}

TEST(OverlayBufferTest, SubtreeFloorEmptyUntilEveryReporterReports) {
  OverlayCausalStrategy strategy;
  strategy.SetMembers({1, 2, 3});
  strategy.SetReportSet(/*self=*/1, /*children=*/{2, 3});
  strategy.UpdateMemberVector(1, Clock({{1, 5}, {2, 4}}));
  strategy.UpdateMemberVector(2, Clock({{1, 3}, {2, 4}}));
  // Child 3 has not reported under this tree: nothing is provable yet.
  EXPECT_EQ(strategy.SubtreeFloor().entry_count(), 0u);
  strategy.UpdateMemberVector(3, Clock({{1, 4}, {2, 6}}));
  const VectorClock floor = strategy.SubtreeFloor();
  EXPECT_EQ(floor.Get(1), 3u);
  EXPECT_EQ(floor.Get(2), 4u);
}

TEST(OverlayBufferTest, AdoptFloorReleasesCoveredMessages) {
  OverlayCausalStrategy strategy;
  strategy.SetMembers({1, 2});
  strategy.SetReportSet(1, {});
  strategy.AddToBuffer(Msg(2, 1));
  strategy.AddToBuffer(Msg(2, 2));
  strategy.AddToBuffer(Msg(2, 3));
  EXPECT_EQ(strategy.buffered_count(), 3u);
  EXPECT_TRUE(strategy.AdoptFloor(Clock({{2, 2}})));
  EXPECT_EQ(strategy.buffered_count(), 1u);
  EXPECT_EQ(strategy.StableFloorFor(2), 2u);
  // A floor never retreats; re-announcing an older one is a no-op.
  EXPECT_FALSE(strategy.AdoptFloor(Clock({{2, 1}})));
  EXPECT_EQ(strategy.StableFloorFor(2), 2u);
}

TEST(OverlayBufferTest, RewireForgetsChildReportsButKeepsFloor) {
  OverlayCausalStrategy strategy;
  strategy.SetMembers({1, 2, 3});
  strategy.SetReportSet(1, {2});
  strategy.UpdateMemberVector(1, Clock({{3, 9}}));
  strategy.UpdateMemberVector(2, Clock({{3, 7}}));
  EXPECT_EQ(strategy.SubtreeFloor().Get(3), 7u);
  ASSERT_TRUE(strategy.AdoptFloor(Clock({{3, 5}})));
  // Rewire: same child set shape, but the old report must not survive — it
  // described the old tree's subtree, not the new one's.
  strategy.SetReportSet(1, {3});
  EXPECT_EQ(strategy.SubtreeFloor().entry_count(), 0u) << "child 3 has not reported yet";
  EXPECT_EQ(strategy.StableFloorFor(3), 5u) << "the adopted release floor survives rewires";
}

// --- linear causal checker ---------------------------------------------------

GroupFabric::Record Rec(MemberId at, MemberId sender, uint64_t seq, VectorClock vt) {
  Delivery d;
  d.data = std::make_shared<GroupData>(/*group=*/1, MessageId{sender, seq},
                                       OrderingMode::kCausal, std::move(vt), nullptr,
                                       sim::TimePoint::Zero());
  d.delivered_at = sim::TimePoint::Zero();
  return GroupFabric::Record{at, std::move(d)};
}

TEST(CausalOrderLinearTest, CleanTracePasses) {
  std::vector<GroupFabric::Record> records;
  records.push_back(Rec(1, 1, 1, Clock({{1, 1}})));
  records.push_back(Rec(1, 2, 1, Clock({{1, 1}, {2, 1}})));
  records.push_back(Rec(2, 1, 1, Clock({{1, 1}})));
  records.push_back(Rec(2, 2, 1, Clock({{1, 1}, {2, 1}})));
  EXPECT_EQ(CheckCausalOrderLinear(records), "");
  EXPECT_EQ(CheckCausalDeliveryInvariant(records), "");
}

TEST(CausalOrderLinearTest, FlagsInversionTheQuadraticCheckerFlags) {
  // Member 2 delivers (2,1) — which counts (1,1) in its past — before (1,1).
  std::vector<GroupFabric::Record> records;
  records.push_back(Rec(2, 2, 1, Clock({{1, 1}, {2, 1}})));
  records.push_back(Rec(2, 1, 1, Clock({{1, 1}})));
  EXPECT_NE(CheckCausalOrderLinear(records), "");
  EXPECT_NE(CheckCausalDeliveryInvariant(records), "");
}

TEST(CausalOrderLinearTest, FlagsDuplicateDelivery) {
  std::vector<GroupFabric::Record> records;
  records.push_back(Rec(1, 1, 1, Clock({{1, 1}})));
  records.push_back(Rec(1, 1, 1, Clock({{1, 1}})));
  EXPECT_NE(CheckCausalOrderLinear(records), "");
}

// --- end-to-end overlay dissemination ---------------------------------------

FabricConfig OverlayConfig(uint32_t n) {
  FabricConfig cfg;
  cfg.num_members = n;
  cfg.group.causal_buffer = CausalBufferKind::kOverlay;
  return cfg;
}

TEST(OverlayFabricTest, EveryMemberDeliversEverythingInCausalOrder) {
  sim::Simulator s(7);
  GroupFabric fabric(&s, OverlayConfig(16));
  fabric.RecordDeliveries();
  fabric.StartAll();
  for (int k = 0; k < 20; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(5 * k + 3),
                    [&fabric, k] { fabric.member(k % 16).CausalSend(Blob("m")); });
  }
  s.RunFor(sim::Duration::Seconds(3));
  EXPECT_EQ(fabric.records().size(), 20u * 16u) << "tree flooding must reach every member";
  EXPECT_EQ(CheckCausalOrderLinear(fabric.records()), "");
  EXPECT_EQ(CheckCausalDeliveryInvariant(fabric.records()), "");
  EXPECT_EQ(CheckFifoInvariant(fabric.records()), "");
}

TEST(OverlayFabricTest, ControlBytesPerTransmissionAreConstantInN) {
  auto metadata_per_transmission = [](uint32_t n) {
    sim::Simulator s(9);
    GroupFabric fabric(&s, OverlayConfig(n));
    fabric.RecordDeliveries();
    fabric.StartAll();
    for (int k = 0; k < 10; ++k) {
      s.ScheduleAfter(sim::Duration::Millis(7 * k + 3),
                      [&fabric, k, n] { fabric.member(k % n).CausalSend(Blob("m")); });
    }
    s.RunFor(sim::Duration::Seconds(3));
    uint64_t header_bytes = 0;
    uint64_t transmissions = 0;
    for (size_t i = 0; i < fabric.size(); ++i) {
      header_bytes += fabric.member(i).stats().ordering_header_bytes;
      transmissions += fabric.member(i).stats().data_transmissions;
    }
    EXPECT_GT(transmissions, 0u);
    return static_cast<double>(header_bytes) / static_cast<double>(transmissions);
  };
  const double at_8 = metadata_per_transmission(8);
  const double at_32 = metadata_per_transmission(32);
  EXPECT_DOUBLE_EQ(at_8, at_32) << "overlay control bytes must not grow with N";
  EXPECT_LE(at_8, 32.0) << "17-byte envelope + 9-byte overlay section, no piggyback";
}

TEST(OverlayFabricTest, TreeStabilityDrainsRetentionBuffers) {
  sim::Simulator s(11);
  GroupFabric fabric(&s, OverlayConfig(16));
  fabric.StartAll();
  for (int k = 0; k < 12; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(5 * k + 3),
                    [&fabric, k] { fabric.member(k % 16).CausalSend(Blob("m")); });
  }
  // Floor lag is ~2·depth gossip rounds; give it a comfortable multiple.
  s.RunFor(sim::Duration::Seconds(5));
  for (size_t i = 0; i < fabric.size(); ++i) {
    EXPECT_EQ(fabric.member(i).buffered_messages(), 0u)
        << "member " << i << " still retains copies: the up-report/announce "
        << "cycle failed to prove group-wide stability";
  }
}

// --- churn under the oracle --------------------------------------------------

TEST(OverlayChurnTest, SeededCrashRejoinPlansKeepAllInvariants) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    sim::Simulator s(seed);
    fault::ChaosRigConfig cfg;
    cfg.group.heartbeat_interval = sim::Duration::Millis(20);
    cfg.group.failure_timeout = sim::Duration::Millis(100);
    cfg.group.causal_buffer = CausalBufferKind::kOverlay;
    fault::ChaosRig rig(&s, cfg);
    fault::FaultInjector injector(&s, &rig);
    fault::GeneratorConfig gen_cfg;
    gen_cfg.horizon = sim::Duration::Seconds(2);
    gen_cfg.failure_timeout = cfg.group.failure_timeout;
    sim::Rng plan_rng(seed ^ 0x9e3779b97f4a7c15ull);
    const fault::FaultPlan plan = fault::FaultScheduleGenerator(gen_cfg).Generate(plan_rng);
    injector.Install(plan);
    rig.Start();
    s.ScheduleAfter(sim::Duration::Seconds(2), [&rig] { rig.StopWorkload(); });
    s.RunFor(sim::Duration::Seconds(4));
    const fault::OracleReport report = fault::InvariantOracle().Audit(rig);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.Summary();
    EXPECT_GT(report.deliveries_audited, 0u) << "seed " << seed;
  }
}

TEST(OverlayChurnTest, ExplicitJoinMidTrafficRewiresAndKeepsOrder) {
  sim::Simulator s(21);
  FabricConfig cfg = OverlayConfig(8);
  cfg.group.enable_membership = true;
  cfg.group.heartbeat_interval = sim::Duration::Millis(20);
  cfg.group.failure_timeout = sim::Duration::Millis(120);
  GroupFabric fabric(&s, cfg);
  net::Transport joiner_transport(&s, &fabric.network(), 30);
  GroupMember joiner(&s, &joiner_transport, cfg.group, 30, {30});
  std::vector<GroupFabric::Record> records;
  for (size_t i = 0; i < 8; ++i) {
    fabric.member(i).SetDeliveryHandler([&records, i](const Delivery& d) {
      records.push_back({GroupFabric::IdOf(i), d});
    });
  }
  joiner.SetDeliveryHandler([&records](const Delivery& d) { records.push_back({30, d}); });
  fabric.StartAll();
  joiner.Start();
  for (int k = 0; k < 40; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(20 * k + 5),
                    [&fabric, k] { fabric.member(k % 8).CausalSend(Blob("m")); });
  }
  s.ScheduleAfter(sim::Duration::Millis(300), [&joiner] { joiner.JoinGroup(1); });
  s.RunFor(sim::Duration::Seconds(4));
  EXPECT_EQ(joiner.view().members.size(), 9u);
  // The joiner appends as a leaf of member 3 (index 8 -> parent index 1... no:
  // (8-1)/4 = 1 -> id 2); what matters here is only that it is wired in.
  EXPECT_EQ(CheckCausalOrderLinear(records), "");
  EXPECT_EQ(CheckFifoInvariant(records), "");
  // Everyone (joiner included) keeps delivering post-join traffic.
  size_t at_joiner = 0;
  for (const auto& record : records) {
    if (record.at == 30 && record.delivery.id().sender <= 8) {
      ++at_joiner;
    }
  }
  EXPECT_GT(at_joiner, 0u) << "post-join traffic must reach the new leaf";
}

TEST(OverlayChurnTest, MemberFailureRewiresSubtreeOntoSurvivors) {
  sim::Simulator s(22);
  FabricConfig cfg = OverlayConfig(13);  // member 2 (index 1) has children 6..9
  cfg.group.enable_membership = true;
  cfg.group.heartbeat_interval = sim::Duration::Millis(20);
  cfg.group.failure_timeout = sim::Duration::Millis(120);
  GroupFabric fabric(&s, cfg);
  fabric.RecordDeliveries();
  fabric.StartAll();
  for (int k = 0; k < 40; ++k) {
    s.ScheduleAfter(sim::Duration::Millis(25 * k + 5), [&fabric, k] {
      const size_t sender = static_cast<size_t>(k) % 13;
      if (sender != 1) {  // a stopped member's sends would just count as drops
        fabric.member(sender).CausalSend(Blob("m"));
      }
    });
  }
  s.ScheduleAfter(sim::Duration::Millis(400), [&fabric] { fabric.CrashMember(1); });
  s.RunFor(sim::Duration::Seconds(5));
  // The survivors converge on a 12-member view and traffic keeps flowing
  // through the rewired tree (members 6..9 re-parent when index shifts).
  for (size_t i : {size_t{0}, size_t{5}, size_t{12}}) {
    EXPECT_EQ(fabric.member(i).view().members.size(), 12u) << "member " << i;
  }
  EXPECT_EQ(CheckCausalOrderLinear(fabric.records()), "");
  EXPECT_EQ(CheckFifoInvariant(fabric.records()), "");
  // Post-view-change sends still reach every survivor.
  std::vector<MessageId> at_last = fabric.DeliveryOrderAt(12);
  EXPECT_FALSE(at_last.empty());
}

}  // namespace
}  // namespace catocs
