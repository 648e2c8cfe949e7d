#include "event/dedup.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cluster_helpers.hpp"

namespace pmc {
namespace {

TEST(EventDedup, EmptyTableFindsNothing) {
  const EventDedup dedup;
  EXPECT_EQ(dedup.size(), 0u);
  EXPECT_FALSE(dedup.received(EventId{0, 0}));
  EXPECT_FALSE(dedup.delivered(EventId{0, 0}));
  EXPECT_FALSE(dedup.received(EventId{7, 123}));
}

TEST(EventDedup, InsertAndFindAcrossGrowths) {
  // 150k ids take the table from empty through many doublings; every id
  // must stay findable, and a second insert is always a duplicate.
  constexpr std::uint64_t kIds = 150000;
  EventDedup dedup;
  for (std::uint64_t i = 0; i < kIds; ++i) {
    ASSERT_NE(dedup.insert(EventId{i % 97, i}), nullptr) << i;
    ASSERT_EQ(dedup.size(), i + 1);
  }
  for (std::uint64_t i = 0; i < kIds; ++i) {
    ASSERT_TRUE(dedup.received(EventId{i % 97, i})) << i;
    ASSERT_EQ(dedup.insert(EventId{i % 97, i}), nullptr) << i;
  }
  EXPECT_EQ(dedup.size(), kIds);
  // Same sequences under other publishers were never inserted.
  for (std::uint64_t i = 0; i < 1000; ++i)
    EXPECT_FALSE(dedup.received(EventId{i % 97 + 1, i})) << i;
}

TEST(EventDedup, IdsCollidingInLowHashBits) {
  // Ids whose hashes agree in the low 12 bits share a home slot at every
  // capacity up to 4096, so they resolve purely by probing.
  constexpr std::size_t kMask = (std::size_t{1} << 12) - 1;
  const std::size_t home = EventIdHash{}(EventId{3, 0}) & kMask;
  std::vector<EventId> colliding;
  for (std::uint64_t seq = 0; colliding.size() < 300; ++seq) {
    const EventId id{3, seq};
    if ((EventIdHash{}(id) & kMask) == home) colliding.push_back(id);
  }
  EventDedup dedup;
  for (std::size_t k = 0; k < colliding.size(); ++k) {
    EventDedup::Slot* slot = dedup.insert(colliding[k]);
    ASSERT_NE(slot, nullptr) << k;
    if (k % 3 == 0) slot->delivered = true;
  }
  EXPECT_EQ(dedup.size(), colliding.size());
  for (std::size_t k = 0; k < colliding.size(); ++k) {
    EXPECT_TRUE(dedup.received(colliding[k])) << k;
    EXPECT_EQ(dedup.delivered(colliding[k]), k % 3 == 0) << k;
    EXPECT_EQ(dedup.insert(colliding[k]), nullptr) << k;
  }
  EXPECT_FALSE(dedup.received(EventId{4, 0}));
}

TEST(EventDedup, DeliveredBit) {
  EventDedup dedup;
  EventDedup::Slot* a = dedup.insert(EventId{1, 1});
  ASSERT_NE(a, nullptr);
  EXPECT_FALSE(dedup.delivered(EventId{1, 1}));
  a->delivered = true;
  ASSERT_NE(dedup.insert(EventId{1, 2}), nullptr);  // received only
  EXPECT_TRUE(dedup.delivered(EventId{1, 1}));
  EXPECT_TRUE(dedup.received(EventId{1, 2}));
  EXPECT_FALSE(dedup.delivered(EventId{1, 2}));
  EXPECT_FALSE(dedup.delivered(EventId{1, 3}));  // unknown

  // A duplicate receipt leaves the bit alone, and growth carries it.
  EXPECT_EQ(dedup.insert(EventId{1, 1}), nullptr);
  for (std::uint64_t s = 10; s < 1000; ++s) dedup.insert(EventId{2, s});
  EXPECT_TRUE(dedup.delivered(EventId{1, 1}));
  EXPECT_FALSE(dedup.delivered(EventId{1, 2}));
}

TEST(EventDedup, PmcastUninterestedReceiverUnderDuplication) {
  // The duplication injector re-delivers gossips; every copy after the
  // first lands in dup_suppressed. A receiver that relays an event without
  // wanting it is recorded as received but never as delivered.
  auto c = testing::make_cluster(4, 2, 2, /*pd=*/0.6,
                                 testing::default_config(), /*loss=*/0.0,
                                 /*seed=*/5);
  c.runtime->network().set_duplication(0.6);
  Rng rng(9);
  std::vector<Event> events;
  for (std::uint64_t k = 0; k < 5; ++k) {
    events.push_back(make_event_at(0, k, rng.next_double()));
    c.nodes[(k * 3) % c.nodes.size()]->pmcast(events.back());
  }
  c.runtime->run_until_idle();
  ASSERT_GT(c.runtime->network().counters().duplicated, 0u);

  std::size_t relays = 0;
  std::uint64_t suppressed = 0;
  for (const auto& node : c.nodes) {
    suppressed += node->stats().dup_suppressed;
    for (const Event& e : events) {
      EXPECT_EQ(node->has_delivered(e.id()),
                node->has_received(e.id()) && node->interested_in(e));
      if (node->has_received(e.id()) && !node->interested_in(e)) {
        ++relays;
        EXPECT_FALSE(node->has_delivered(e.id()));
      }
    }
  }
  // Both counts are pinned to what the node-based seen/delivered sets
  // this table replaced gave on the same run.
  EXPECT_EQ(relays, 19u);
  EXPECT_EQ(suppressed, 461u);
}

}  // namespace
}  // namespace pmc
