#include "membership/view.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "filter/subscription.hpp"
#include "view_rows.hpp"

namespace pmc {
namespace {

ViewRow row(AddrComponent infix, std::uint64_t version,
            std::uint64_t count = 1, bool alive = true) {
  ViewRow r;
  r.infix = infix;
  r.version = version;
  r.process_count = count;
  r.alive = alive;
  r.delegates = {Address::parse(std::to_string(infix) + ".0.0")};
  r.interests = InterestSummary::from(Subscription());
  return r;
}

/// A DepthView needs intern state to store rows; the fixture owns one.
struct BoundView {
  Interns interns;
  DepthView v;
  BoundView() { v.bind(interns); }
};

TEST(DepthView, UpsertInsertsSorted) {
  BoundView b;
  EXPECT_TRUE(upsert_row(b.v, row(5, 1)));
  EXPECT_TRUE(upsert_row(b.v, row(1, 1)));
  EXPECT_TRUE(upsert_row(b.v, row(3, 1)));
  ASSERT_EQ(b.v.size(), 3u);
  EXPECT_EQ(b.v.infix(0), 1);
  EXPECT_EQ(b.v.infix(1), 3);
  EXPECT_EQ(b.v.infix(2), 5);
}

TEST(DepthView, NewerVersionWins) {
  BoundView b;
  upsert_row(b.v, row(1, 1, 10));
  EXPECT_TRUE(upsert_row(b.v, row(1, 2, 20)));
  EXPECT_EQ(b.v.process_count(b.v.find_index(1)), 20u);
  EXPECT_EQ(b.v.size(), 1u);
}

TEST(DepthView, OlderOrEqualVersionIgnored) {
  BoundView b;
  upsert_row(b.v, row(1, 5, 10));
  EXPECT_FALSE(upsert_row(b.v, row(1, 5, 99)));
  EXPECT_FALSE(upsert_row(b.v, row(1, 3, 99)));
  EXPECT_EQ(b.v.process_count(b.v.find_index(1)), 10u);
}

TEST(DepthView, FindMissingReturnsNpos) {
  BoundView b;
  upsert_row(b.v, row(2, 1));
  EXPECT_EQ(b.v.find_index(3), DepthView::npos);
  EXPECT_NE(b.v.find_index(2), DepthView::npos);
}

TEST(DepthView, Erase) {
  BoundView b;
  upsert_row(b.v, row(1, 1));
  upsert_row(b.v, row(2, 1));
  EXPECT_TRUE(b.v.erase(1));
  EXPECT_FALSE(b.v.erase(1));
  EXPECT_EQ(b.v.size(), 1u);
  EXPECT_EQ(b.v.find_index(1), DepthView::npos);
}

TEST(DepthView, AssignmentAdvancesMutations) {
  // A view's address and mutations() together name its contents, so a
  // table assigned over a live one (GroupTree::rebuild_leaf) must not
  // land back on a count the old contents already had.
  BoundView live;
  upsert_row(live.v, row(1, 1));
  upsert_row(live.v, row(2, 1));
  const std::uint64_t before = live.v.mutations();
  BoundView fresh;
  upsert_row(fresh.v, row(1, 1));
  upsert_row(fresh.v, row(3, 1));
  ASSERT_EQ(fresh.v.mutations(), before);
  live.v = std::move(fresh.v);
  EXPECT_GT(live.v.mutations(), before);
  EXPECT_NE(live.v.find_index(3), DepthView::npos);
}

TEST(DepthView, LiveCountSkipsTombstones) {
  BoundView b;
  upsert_row(b.v, row(1, 1, 1, true));
  upsert_row(b.v, row(2, 1, 1, false));
  upsert_row(b.v, row(3, 1, 1, true));
  EXPECT_EQ(b.v.size(), 3u);
  EXPECT_EQ(b.v.live_count(), 2u);
}

TEST(DepthView, TotalProcessesSumsLiveRows) {
  BoundView b;
  upsert_row(b.v, row(1, 1, 10, true));
  upsert_row(b.v, row(2, 1, 20, false));  // tombstoned, not counted
  upsert_row(b.v, row(3, 1, 5, true));
  EXPECT_EQ(b.v.total_processes(), 15u);
}

TEST(DepthView, HandlesReproduceTheRow) {
  BoundView b;
  ViewRow r = row(4, 7, 12);
  r.delegates = {Address::parse("4.0.1"), Address::parse("4.0.0")};
  upsert_row(b.v, r);
  const std::size_t i = b.v.find_index(4);
  ASSERT_NE(i, DepthView::npos);
  const ViewRow back = materialize_row(b.v, i);
  EXPECT_EQ(back.infix, r.infix);
  EXPECT_EQ(back.version, r.version);
  EXPECT_EQ(back.process_count, r.process_count);
  EXPECT_EQ(back.alive, r.alive);
  // Delegate order is preserved exactly as published (no id reordering).
  EXPECT_EQ(back.delegates, r.delegates);
  EXPECT_EQ(back.interests, r.interests);
}

TEST(DepthView, DelegatesAreInternedIds) {
  BoundView b;
  ViewRow r = row(2, 1);
  r.delegates = {Address::parse("2.1.1"), Address::parse("2.1.2")};
  upsert_row(b.v, r);
  const std::size_t i = b.v.find_index(2);
  const auto ids = b.v.delegates(i);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(b.interns.addrs.resolve(ids[0]), r.delegates[0]);
  EXPECT_EQ(b.interns.addrs.resolve(ids[1]), r.delegates[1]);
  EXPECT_EQ(b.v.first_delegate(i), ids[0]);
}

TEST(DepthView, PooledSummariesAreShared) {
  // Structurally identical summaries collapse onto one pooled instance.
  BoundView b;
  upsert_row(b.v, row(1, 1));
  upsert_row(b.v, row(2, 1));
  EXPECT_EQ(b.v.interests_ptr(0).get(), b.v.interests_ptr(1).get());
  EXPECT_EQ(b.interns.summaries.size(), 1u);
}

TEST(RowBatch, HoldsHandlesAndCopiesDeeply) {
  BoundView b;
  ViewRow r = row(4, 7, 12);
  r.delegates = {Address::parse("4.0.1"), Address::parse("4.0.0")};
  upsert_row(b.v, r);
  upsert_row(b.v, row(6, 2));

  RowBatch batch(b.interns);
  EXPECT_TRUE(batch.empty());
  batch.push(3, b.v, 0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.depth(0), 3u);
  EXPECT_EQ(batch.version(0), 7u);
  // By handle: the same ids and the same pooled summary as the view.
  EXPECT_TRUE(std::ranges::equal(batch.delegates(0), b.v.delegates(0)));
  EXPECT_EQ(batch.interests_ptr(0).get(), b.v.interests_ptr(0).get());
  EXPECT_TRUE(std::ranges::equal(batch.address(batch.delegates(0)[0]),
                                 r.delegates[0].components()));

  RowBatch copy = batch;
  copy.push(3, b.v, 1);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.interns(), &b.interns);

  // A batch bound to no Interns resolves ids through its own list.
  RowBatch own;
  const AddrId id = own.add_address(r.delegates[1].components());
  own.push(1, 4, {&id, 1}, b.v.interests_ptr(0), 1, 1, true);
  EXPECT_EQ(own.interns(), nullptr);
  EXPECT_TRUE(std::ranges::equal(own.address(own.delegates(0)[0]),
                                 r.delegates[1].components()));
}

TEST(MembershipView, DepthIndexingOneBased) {
  const auto self = Address::parse("1.2.3");
  TreeConfig cfg;
  cfg.depth = 3;
  cfg.redundancy = 2;
  Interns interns;
  MembershipView mv(self, cfg, interns);
  upsert_row(mv.view(1), row(0, 1));
  upsert_row(mv.view(3), row(7, 1));
  EXPECT_EQ(mv.view(1).size(), 1u);
  EXPECT_EQ(mv.view(2).size(), 0u);
  EXPECT_EQ(mv.view(3).size(), 1u);
  EXPECT_THROW(mv.view(0), std::logic_error);
  EXPECT_THROW(mv.view(4), std::logic_error);
}

TEST(MembershipView, SelfDepthMustMatchConfig) {
  TreeConfig cfg;
  cfg.depth = 3;
  Interns interns;
  EXPECT_THROW(MembershipView(Address::parse("1.2"), cfg, interns),
               std::logic_error);
}

TEST(MembershipView, KnownProcessesCountsDelegatesPerAppearance) {
  const auto self = Address::parse("1.2.3");
  TreeConfig cfg;
  cfg.depth = 3;
  Interns interns;
  MembershipView mv(self, cfg, interns);
  ViewRow r1 = row(0, 1);
  r1.delegates = {Address::parse("0.0.0"), Address::parse("0.0.1")};
  upsert_row(mv.view(1), r1);
  ViewRow r2 = row(4, 1);
  r2.delegates = {Address::parse("1.4.0")};
  upsert_row(mv.view(2), r2);
  ViewRow dead = row(9, 1, 1, false);
  upsert_row(mv.view(2), dead);
  EXPECT_EQ(mv.known_processes(), 3u);  // 2 + 1, tombstone excluded
}

TEST(MembershipView, SelfIdIsInterned) {
  TreeConfig cfg;
  cfg.depth = 2;
  Interns interns;
  MembershipView mv(Address::parse("3.1"), cfg, interns);
  EXPECT_EQ(interns.addrs.resolve(mv.self_id()), mv.self());
}

TEST(MembershipView, ToStringMentionsSelf) {
  TreeConfig cfg;
  cfg.depth = 2;
  Interns interns;
  MembershipView mv(Address::parse("3.1"), cfg, interns);
  EXPECT_NE(mv.to_string().find("3.1"), std::string::npos);
}

}  // namespace
}  // namespace pmc
