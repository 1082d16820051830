// Wire-size accounting tests: E12's overhead claims rest on this arithmetic,
// so it is locked down here. Also covers payload plumbing (piggyback
// stripping, describe strings, flush message sizing).

#include <gtest/gtest.h>

#include <memory>

#include "src/catocs/message.h"

namespace catocs {
namespace {

net::PayloadPtr Blob(size_t size) { return std::make_shared<net::BlobPayload>("b", size); }

GroupDataPtr MakeData(MemberId sender, uint64_t seq, size_t vt_entries, size_t ack_entries,
                      size_t payload_bytes) {
  VectorClock vt;
  for (MemberId m = 1; m <= vt_entries; ++m) {
    vt.Set(m, m);
  }
  auto data = std::make_shared<GroupData>(1, MessageId{sender, seq}, OrderingMode::kCausal, vt,
                                          Blob(payload_bytes), sim::TimePoint::Zero());
  VectorClock acks;
  for (MemberId m = 1; m <= ack_entries; ++m) {
    acks.Set(m, m);
  }
  data->set_acks(std::move(acks));
  return data;
}

TEST(MessageSizeTest, GroupDataHeaderGrowsLinearlyWithGroupSize) {
  const auto small = MakeData(1, 1, 4, 4, 100);
  const auto large = MakeData(1, 1, 64, 64, 100);
  EXPECT_EQ(small->HeaderBytes(), 17 + 4 * VectorClock::kEntryBytes + 4 * VectorClock::kEntryBytes);
  EXPECT_EQ(large->HeaderBytes(),
            17 + 64 * VectorClock::kEntryBytes + 64 * VectorClock::kEntryBytes);
  // Payload is unaffected by group size.
  EXPECT_EQ(small->SizeBytes(), large->SizeBytes());
}

TEST(MessageSizeTest, PiggybackCountsTowardSizeNotHeader) {
  auto main_msg = MakeData(1, 2, 2, 0, 100);
  auto predecessor = MakeData(2, 1, 2, 0, 50);
  auto carrying = std::make_shared<GroupData>(*main_msg);
  carrying->set_piggyback({predecessor});
  EXPECT_EQ(carrying->SizeBytes(),
            100 + 50 + predecessor->HeaderBytes());
  EXPECT_EQ(carrying->HeaderBytes(), main_msg->HeaderBytes());
}

TEST(MessageSizeTest, StripPiggybackPreservesEverythingElse) {
  auto main_msg = MakeData(1, 2, 3, 2, 100);
  auto predecessor = MakeData(2, 1, 1, 0, 50);
  auto carrying = std::make_shared<GroupData>(*main_msg);
  carrying->set_piggyback({predecessor});
  GroupDataPtr stripped = StripPiggyback(carrying);
  EXPECT_TRUE(stripped->piggyback().empty());
  EXPECT_EQ(stripped->id(), main_msg->id());
  EXPECT_EQ(stripped->SizeBytes(), 100u);
  EXPECT_EQ(stripped->HeaderBytes(), main_msg->HeaderBytes());
  EXPECT_EQ(stripped->acks().entry_count(), 2u);
  // No piggyback -> same object comes back (no needless copies).
  GroupDataPtr plain = StripPiggyback(stripped);
  EXPECT_EQ(plain.get(), stripped.get());
}

TEST(MessageSizeTest, FlushStateChargesUnstableMessagesInFull) {
  std::vector<GroupDataPtr> unstable{MakeData(1, 1, 2, 0, 100), MakeData(2, 1, 2, 0, 200)};
  const size_t msg_cost = (100 + unstable[0]->HeaderBytes()) + (200 + unstable[1]->HeaderBytes());
  FlushState state(1, 2, {{1, 1}, {2, 1}}, unstable, {{MessageId{1, 1}, 1}}, 1);
  EXPECT_EQ(state.SizeBytes(), 2 * VectorClock::kEntryBytes + 1 * 20 + 8 + msg_cost);
}

TEST(MessageSizeTest, ViewInstallChargesMissingAndAssignments) {
  std::vector<GroupDataPtr> missing{MakeData(1, 1, 1, 0, 64)};
  ViewInstall install(1, 2, {1, 2, 3}, missing, {{MessageId{1, 1}, 1}, {MessageId{2, 1}, 2}}, 3,
                      {{1, 1}});
  EXPECT_EQ(install.SizeBytes(),
            20 + 3 * 4 + 2 * 20 + (64 + missing[0]->HeaderBytes()));
}

TEST(MessageSizeTest, OrderTokenGrowsWithCarriedAssignments) {
  OrderToken empty(1, 5, {});
  EXPECT_EQ(empty.SizeBytes(), 12u);
  std::vector<std::pair<MessageId, uint64_t>> assignments;
  for (uint64_t i = 1; i <= 10; ++i) {
    assignments.emplace_back(MessageId{1, i}, i);
  }
  OrderToken loaded(1, 11, std::move(assignments));
  EXPECT_EQ(loaded.SizeBytes(), 12u + 10 * 20);
  EXPECT_EQ(loaded.assignments().size(), 10u);
  EXPECT_EQ(loaded.assignments().front().first, (MessageId{1, 1}));
}

// --- GroupBatch wire accounting -------------------------------------------

// A constituent the way the batcher produces it: same sender, contiguous
// seqs, an explicit clock, optionally acks.
std::shared_ptr<GroupData> BatchEntry(uint64_t seq,
                                      std::vector<std::pair<MemberId, uint64_t>> vt_entries,
                                      size_t payload_bytes,
                                      std::vector<std::pair<MemberId, uint64_t>> ack_entries = {}) {
  VectorClock vt;
  for (const auto& [m, v] : vt_entries) {
    vt.Set(m, v);
  }
  auto data = std::make_shared<GroupData>(1, MessageId{1, seq}, OrderingMode::kCausal,
                                          std::move(vt), Blob(payload_bytes),
                                          sim::TimePoint::Zero());
  VectorClock acks;
  for (const auto& [m, v] : ack_entries) {
    acks.Set(m, v);
  }
  data->set_acks(std::move(acks));
  return data;
}

TEST(MessageSizeTest, GroupBatchHeaderBytesPinnedHandComputed) {
  // Three constituents; the third delivered something from member 2 between
  // sends, so its vt delta has two changed entries.
  GroupBatch batch(1, {BatchEntry(1, {{1, 1}}, 100),
                       BatchEntry(2, {{1, 2}}, 50),
                       BatchEntry(3, {{1, 3}, {2, 5}}, 25)});
  // Base frame: group(4) + sender(4) + first_seq(8) + count(2) = 18.
  // e1: 5 + (1 + 1*12) vt-full + (1 + 0) acks-empty             = 19
  // e2: 5 + (1 + 1*12) one changed vt entry + (1 + 0)           = 19
  // e3: 5 + (1 + 2*12) two changed vt entries + (1 + 0)         = 31
  EXPECT_EQ(batch.HeaderBytes(), 18u + 19u + 19u + 31u);
  EXPECT_EQ(GroupBatch::kBaseFrameBytes, 18u);
  EXPECT_EQ(batch.sender(), 1u);
  EXPECT_EQ(batch.first_seq(), 1u);
}

TEST(MessageSizeTest, GroupBatchAckDeltasChargeOnlyChanges) {
  // Acks appear on e2 and are unchanged on e3: one 2-entry delta, then none.
  GroupBatch batch(1, {BatchEntry(1, {{1, 1}}, 10),
                       BatchEntry(2, {{1, 2}}, 10, {{1, 1}, {2, 1}}),
                       BatchEntry(3, {{1, 3}}, 10, {{1, 1}, {2, 1}})});
  GroupBatch no_acks(1, {BatchEntry(1, {{1, 1}}, 10),
                         BatchEntry(2, {{1, 2}}, 10),
                         BatchEntry(3, {{1, 3}}, 10)});
  EXPECT_EQ(batch.HeaderBytes(), no_acks.HeaderBytes() + 2 * VectorClock::kEntryBytes);
}

TEST(MessageSizeTest, GroupBatchSizeBytesIsPayloadSum) {
  GroupBatch batch(1, {BatchEntry(1, {{1, 1}}, 100),
                       BatchEntry(2, {{1, 2}}, 50),
                       BatchEntry(3, {{1, 3}}, 25)});
  EXPECT_EQ(batch.SizeBytes(), 175u);
  // Header sections split base frame from per-entry metadata.
  const auto sections = batch.HeaderSections();
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].bytes + sections[1].bytes, batch.HeaderBytes());
}

TEST(MessageSizeTest, StripPiggybackOnBatchConstituents) {
  auto entry = BatchEntry(2, {{1, 2}}, 40);
  auto predecessor = BatchEntry(1, {{1, 1}}, 30);
  auto carrying = std::make_shared<GroupData>(*entry);
  carrying->set_piggyback({predecessor});
  GroupBatch batch(1, {carrying});
  // The constituent's piggyback rides in the batch's payload accounting...
  EXPECT_EQ(batch.SizeBytes(), 40u + 30u + predecessor->HeaderBytes());
  // ...and stripping it for retention keeps identity and header intact.
  GroupDataPtr stripped = StripPiggyback(batch.entries().front());
  EXPECT_TRUE(stripped->piggyback().empty());
  EXPECT_EQ(stripped->id(), entry->id());
  EXPECT_EQ(stripped->SizeBytes(), 40u);
  EXPECT_EQ(stripped->HeaderBytes(), entry->HeaderBytes());
}

TEST(MessageDescribeTest, HumanReadableForms) {
  EXPECT_EQ((MessageId{3, 7}).ToString(), "3#7");
  auto data = MakeData(3, 7, 1, 0, 10);
  EXPECT_NE(data->Describe().find("causal"), std::string::npos);
  EXPECT_NE(data->Describe().find("3#7"), std::string::npos);
  EXPECT_STREQ(ToString(OrderingMode::kTotal), "total");
  EXPECT_STREQ(ToString(OrderingMode::kUnordered), "unordered");
}

}  // namespace
}  // namespace catocs
