// Odds and ends: textual rendering used by operators/debuggers, parser
// round-trips through to_string, and small cross-module seams not covered
// by the focused suites.
#include <gtest/gtest.h>

#include <sstream>

#include "filter/parser.hpp"
#include "harness/workload.hpp"
#include "membership/tree.hpp"
#include "sim/time.hpp"
#include "view_rows.hpp"

namespace pmc {
namespace {

TEST(Rendering, IntervalToString) {
  EXPECT_EQ(Interval::closed(1.0, 2.0).to_string(), "[1, 2]");
  EXPECT_EQ(Interval::open(1.0, 2.0).to_string(), "(1, 2)");
  EXPECT_EQ(Interval::half_open(0.0, 1.0).to_string(), "[0, 1)");
}

TEST(Rendering, IntervalSetToString) {
  IntervalSet s;
  s.insert(Interval::closed(0.0, 1.0));
  s.insert(Interval::closed(3.0, 4.0));
  const auto text = s.to_string();
  EXPECT_NE(text.find("[0, 1]"), std::string::npos);
  EXPECT_NE(text.find("[3, 4]"), std::string::npos);
}

TEST(Rendering, SummaryToString) {
  auto s = InterestSummary::from(Subscription::parse("b > 3"));
  EXPECT_NE(s.to_string().find("b in"), std::string::npos);
  EXPECT_EQ(InterestSummary::from(Subscription()).to_string(), "*");
  EXPECT_EQ(InterestSummary{}.to_string(), "false");
}

TEST(Rendering, ClauseToString) {
  Clause c;
  EXPECT_EQ(c.to_string(), "true");
  c.constrain_numeric("b", Interval::point(2.0));
  c.constrain_string("e", {"Bob"});
  const auto text = c.to_string();
  EXPECT_NE(text.find("b in"), std::string::npos);
  EXPECT_NE(text.find("\"Bob\""), std::string::npos);
}

TEST(Rendering, DepthViewToStringShowsTombstones) {
  Interns interns;
  DepthView v;
  v.bind(interns);
  ViewRow row;
  row.infix = 7;
  row.delegates = {Address::parse("7.0")};
  row.interests = InterestSummary::from(Subscription());
  row.alive = false;
  upsert_row(v, row);
  EXPECT_NE(v.to_string().find("(gone)"), std::string::npos);
}

TEST(ParserRoundTrip, ToStringParsesBackEquivalently) {
  const char* texts[] = {
      "b == 2",
      "b > 1 && c < 30.0",
      "e == \"Bob\" || e == \"Tom\"",
      "(a == 1 || b == 2) && c >= 0.5",
      "!(b == 2 && c > 1.0)",
  };
  Rng rng(3);
  for (const auto* text : texts) {
    const auto original = Subscription::parse(text);
    const auto reparsed = Subscription::parse(original.to_string());
    for (int trial = 0; trial < 300; ++trial) {
      Event e;
      e.with("a", static_cast<std::int64_t>(rng.next_below(4)))
          .with("b", static_cast<std::int64_t>(rng.next_below(4)))
          .with("c", rng.next_double() * 40.0)
          .with("e", rng.bernoulli(0.5) ? "Bob" : "Tom");
      EXPECT_EQ(reparsed.match(e), original.match(e)) << text;
    }
  }
}

TEST(TreeSeams, ViewForAgreesWithViewAt) {
  Rng rng(5);
  const auto members = uniform_interest_members(
      AddressSpace::regular(3, 3), 0.5, rng);
  TreeConfig tc;
  tc.depth = 3;
  tc.redundancy = 2;
  Interns interns;
  const GroupTree tree(tc, members, interns);
  const auto self = Address::parse("1.2.0");
  for (std::size_t depth = 1; depth <= 3; ++depth) {
    EXPECT_EQ(&tree.view_for(self, depth),
              &tree.view_at(self.prefix(depth - 1)));
  }
  EXPECT_THROW(tree.view_for(self, 0), std::logic_error);
  EXPECT_THROW(tree.view_for(self, 4), std::logic_error);
}

TEST(TreeSeams, SummaryOfUnknownPrefixThrows) {
  Rng rng(6);
  const auto members = uniform_interest_members(
      AddressSpace::regular(2, 2), 1.0, rng);
  TreeConfig tc;
  tc.depth = 2;
  tc.redundancy = 1;
  Interns interns;
  const GroupTree tree(tc, members, interns);
  EXPECT_THROW(tree.summary(Address::parse("9.9").prefix(1)),
               std::logic_error);
  EXPECT_THROW(tree.delegates(Address::parse("9.9").prefix(1)),
               std::logic_error);
}

TEST(TreeSeams, SubscriptionLookupOfMissingMemberThrows) {
  Rng rng(7);
  auto members = uniform_interest_members(
      AddressSpace::regular(2, 2), 1.0, rng);
  members.pop_back();  // 1.1 missing
  TreeConfig tc;
  tc.depth = 2;
  tc.redundancy = 1;
  Interns interns;
  const GroupTree tree(tc, members, interns);
  EXPECT_THROW(tree.subscription(Address::parse("1.1")), std::logic_error);
}

TEST(Contracts, ViolationMessagesAreInformative) {
  try {
    PMC_EXPECTS(1 == 2);
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
  try {
    PMC_ENSURES(false);
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("postcondition"),
              std::string::npos);
  }
}

TEST(SimTimeHelpers, UnitsCompose) {
  EXPECT_EQ(sim_ms(1), sim_us(1000));
  EXPECT_EQ(sim_sec(1), sim_ms(1000));
  EXPECT_EQ(sim_sec(2) + sim_ms(500), sim_us(2'500'000));
}

}  // namespace
}  // namespace pmc
