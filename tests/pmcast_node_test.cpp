#include "pmcast/node.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster_helpers.hpp"

namespace pmc {
namespace {

using testing::Cluster;
using testing::default_config;
using testing::make_cluster;

TEST(PmcastNode, EveryoneInterestedEveryoneDelivers) {
  auto c = make_cluster(3, 2, 2, /*pd=*/1.0, default_config());
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[4]->pmcast(e);
  c.runtime->run_until_idle();
  for (const auto& node : c.nodes)
    EXPECT_TRUE(node->has_delivered(e.id())) << node->address().to_string();
}

TEST(PmcastNode, PublisherDeliversLocallyWhenInterested) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config());
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[0]->pmcast(e);
  EXPECT_TRUE(c.nodes[0]->has_delivered(e.id()));
  EXPECT_EQ(c.nodes[0]->stats().published, 1u);
}

TEST(PmcastNode, UninterestedNonDelegatesNeverReceive) {
  // With exact interval regrouping, an event is only ever sent to processes
  // whose row matches: uninterested leaf processes (non-delegates) must not
  // be touched — pmcast's defining property versus broadcast (Fig. 5).
  auto c = make_cluster(4, 3, 2, /*pd=*/0.4, default_config(), 0.0, 3);
  const Event e = make_event_at(1, 0, 0.3);
  c.nodes[7]->pmcast(e);
  c.runtime->run_until_idle();
  for (const auto& node : c.nodes) {
    if (node->interested_in(e)) continue;
    if (node->id() == 7) continue;  // the publisher buffers its own event
    bool delegate = false;
    for (std::size_t depth = 1; depth < 3; ++depth)
      delegate = delegate || c.tree->is_delegate_at(node->address(), depth);
    if (!delegate) {
      EXPECT_FALSE(node->has_received(e.id()))
          << node->address().to_string();
    }
  }
}

TEST(PmcastNode, CrossSubtreeDelivery) {
  auto c = make_cluster(3, 3, 2, 1.0, default_config(), 0.0, 5);
  // Publish from 0.0.0; check delivery in the farthest subtree 2.x.x.
  const Event e = make_event_at(0, 0, 0.2);
  c.nodes[0]->pmcast(e);
  c.runtime->run_until_idle();
  std::size_t far_delivered = 0, far_total = 0;
  for (const auto& node : c.nodes) {
    if (node->address().component(0) != 2) continue;
    ++far_total;
    if (node->has_delivered(e.id())) ++far_delivered;
  }
  EXPECT_EQ(far_total, 9u);
  EXPECT_GE(far_delivered, 8u);  // allow one probabilistic miss
}

TEST(PmcastNode, DeliverHandlerInvokedExactlyOnce) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config());
  std::vector<int> calls(c.nodes.size(), 0);
  for (std::size_t i = 0; i < c.nodes.size(); ++i)
    c.nodes[i]->set_deliver_handler(
        [&calls, i](const Event&) { ++calls[i]; });
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[2]->pmcast(e);
  c.runtime->run_until_idle();
  for (const auto count : calls) EXPECT_LE(count, 1);
  EXPECT_GE(calls[2], 1);
}

TEST(PmcastNode, QuiescesAfterBoundedRounds) {
  // Passive garbage collection: the run must drain on its own.
  auto c = make_cluster(3, 3, 2, 0.8, default_config(), 0.0, 9);
  c.nodes[3]->pmcast(make_event_at(3, 0, 0.1));
  c.runtime->run_until_idle();
  EXPECT_TRUE(c.runtime->scheduler().empty());
  // Sanity: time advanced but is bounded (no runaway regossiping).
  EXPECT_LT(c.runtime->now(), sim_ms(100) * 200);
}

TEST(PmcastNode, NoSelfSends) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config());
  c.runtime->network().set_link_filter([](ProcessId from, ProcessId to) {
    EXPECT_NE(from, to) << "node gossiped to itself";
    return true;
  });
  c.nodes[1]->pmcast(make_event_at(1, 0, 0.5));
  c.runtime->run_until_idle();
}

TEST(PmcastNode, SecondPublishOfSameEventIgnoredByReceivers) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config());
  const Event e = make_event_at(0, 7, 0.5);
  c.nodes[0]->pmcast(e);
  c.runtime->run_until_idle();
  const auto received_before = c.nodes[5]->stats().received;
  c.nodes[1]->pmcast(e);  // same EventId republished elsewhere
  c.runtime->run_until_idle();
  EXPECT_EQ(c.nodes[5]->stats().received, received_before);
}

TEST(PmcastNode, MultipleConcurrentEvents) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config());
  const Event e1 = make_event_at(0, 0, 0.3);
  const Event e2 = make_event_at(1, 0, 0.7);
  c.nodes[0]->pmcast(e1);
  c.nodes[1]->pmcast(e2);
  c.runtime->run_until_idle();
  std::size_t d1 = 0, d2 = 0;
  for (const auto& node : c.nodes) {
    if (node->has_delivered(e1.id())) ++d1;
    if (node->has_delivered(e2.id())) ++d2;
  }
  EXPECT_GE(d1, 8u);
  EXPECT_GE(d2, 8u);
}

TEST(PmcastNode, CrashedPublisherRejected) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config());
  c.nodes[0]->crash();
  EXPECT_THROW(c.nodes[0]->pmcast(make_event_at(0, 0, 0.5)),
               std::logic_error);
}

TEST(PmcastNode, SurvivesCrashedDelegatesWithRedundancy) {
  // R=3: killing one delegate per leaf subgroup must not break delivery.
  auto c = make_cluster(4, 2, 3, 1.0, default_config(), 0.0, 11);
  // Crash the smallest-address member of each leaf subgroup except the
  // publisher's.
  for (AddrComponent g = 1; g < 4; ++g) {
    const AddrId id =
        c.interns->addrs.find(Address(std::vector<AddrComponent>{g, 0}));
    ASSERT_NE(id, kNoAddr);
    c.nodes[c.pid_by_id[id]]->crash();
  }
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[0]->pmcast(e);
  c.runtime->run_until_idle();
  std::size_t delivered = 0, alive_count = 0;
  for (const auto& node : c.nodes) {
    if (!node->alive()) continue;
    ++alive_count;
    if (node->has_delivered(e.id())) ++delivered;
  }
  EXPECT_EQ(alive_count, 13u);
  EXPECT_GE(delivered, 12u);
}

TEST(PmcastNode, LocalInterestShortcutSkipsRootGossip) {
  // Build members by hand: only the publisher's own leaf subgroup is
  // interested, so the event should skip straight to the leaf depth.
  const auto run = [](bool shortcut) {
    std::vector<Member> members;
    const auto space = AddressSpace::regular(3, 2);
    for (const auto& addr : space.enumerate()) {
      const bool own_group = addr.component(0) == 0;
      members.push_back(Member{
          addr, own_group ? Subscription::parse("u < 1.0")
                          : Subscription::parse("u > 2.0")});
    }
    TreeConfig tc;
    tc.depth = 2;
    tc.redundancy = 2;
    Interns interns;
    GroupTree tree(tc, members, interns);
    TreeViewProvider views(tree);
    Runtime rt(NetworkConfig{}, 17);
    std::vector<ProcessId> dir;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const AddrId id = interns.addrs.intern(members[i].address);
      if (dir.size() <= id) dir.resize(id + 1, kNoProcess);
      dir[id] = static_cast<ProcessId>(i);
    }
    PmcastConfig config = testing::default_config();
    config.tree = tc;
    config.local_interest_shortcut = shortcut;
    std::vector<std::unique_ptr<PmcastNode>> nodes;
    for (std::size_t i = 0; i < members.size(); ++i)
      nodes.push_back(std::make_unique<PmcastNode>(
          rt, static_cast<ProcessId>(i), config, members[i].address,
          members[i].subscription, views, [&dir](AddrId id) {
            return id < dir.size() ? dir[id] : kNoProcess;
          }));
    nodes[0]->pmcast(make_event_at(0, 0, 0.5));
    rt.run_until_idle();
    std::size_t delivered = 0;
    for (const auto& n : nodes)
      if (n->has_delivered(EventId{0, 0})) ++delivered;
    return std::pair{rt.network().counters().sent, delivered};
  };
  const auto [msgs_with, delivered_with] = run(true);
  const auto [msgs_without, delivered_without] = run(false);
  EXPECT_EQ(delivered_with, 3u);  // the whole leaf subgroup
  EXPECT_EQ(delivered_without, 3u);
  EXPECT_LE(msgs_with, msgs_without);
}

TEST(PmcastNode, TuningIncreasesUninterestedReceptions) {
  // Sec. 5.3's compromise: the tuned variant reaches more uninterested
  // processes. Compare total receptions at a small matching rate.
  const auto receptions = [](std::size_t h) {
    PmcastConfig config = testing::default_config();
    config.tuning_threshold = h;
    auto c = make_cluster(5, 2, 2, /*pd=*/0.1, config, 0.0, 23);
    c.nodes[0]->pmcast(make_event_at(0, 0, 0.5));
    c.runtime->run_until_idle();
    std::size_t count = 0;
    for (const auto& node : c.nodes)
      if (!node->interested_in(make_event_at(0, 0, 0.5)) &&
          node->has_received(EventId{0, 0}))
        ++count;
    return count;
  };
  EXPECT_GE(receptions(6), receptions(0));
}

TEST(PmcastNode, WorksWithLocalViewProvider) {
  // Deployment configuration: every node owns a materialized view.
  const auto space = AddressSpace::regular(3, 2);
  Rng rng(31);
  const auto members = uniform_interest_members(space, 1.0, rng);
  TreeConfig tc;
  tc.depth = 2;
  tc.redundancy = 2;
  Interns interns;
  const GroupTree tree(tc, members, interns);

  Runtime rt(NetworkConfig{}, 31);
  std::vector<ProcessId> dir;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const AddrId id = interns.addrs.intern(members[i].address);
    if (dir.size() <= id) dir.resize(id + 1, kNoProcess);
    dir[id] = static_cast<ProcessId>(i);
  }

  std::vector<MembershipView> views;
  views.reserve(members.size());
  for (const auto& m : members) views.push_back(tree.materialize_view(m.address));
  std::vector<std::unique_ptr<LocalViewProvider>> providers;
  std::vector<std::unique_ptr<PmcastNode>> nodes;
  PmcastConfig config = testing::default_config();
  config.tree = tc;
  for (std::size_t i = 0; i < members.size(); ++i) {
    providers.push_back(std::make_unique<LocalViewProvider>(views[i]));
    nodes.push_back(std::make_unique<PmcastNode>(
        rt, static_cast<ProcessId>(i), config, members[i].address,
        members[i].subscription, *providers[i], [&dir](AddrId id) {
          return id < dir.size() ? dir[id] : kNoProcess;
        }));
  }
  nodes[4]->pmcast(make_event_at(4, 0, 0.5));
  rt.run_until_idle();
  std::size_t delivered = 0;
  for (const auto& n : nodes)
    if (n->has_delivered(EventId{4, 0})) ++delivered;
  EXPECT_GE(delivered, 8u);
}

/// Records every gossip delivered to it, for tests that check exactly whom
/// a node addressed in which round.
class GossipRecorder final : public Process {
 public:
  using Process::Process;

  struct Receipt {
    std::uint32_t depth = 0;
    std::uint32_t round = 0;
    double rate = 0.0;
  };
  std::vector<Receipt> receipts;

  bool got(std::uint32_t depth, std::uint32_t round) const {
    return std::any_of(receipts.begin(), receipts.end(),
                       [&](const Receipt& r) {
                         return r.depth == depth && r.round == round;
                       });
  }

 protected:
  void on_message(ProcessId, const MessagePtr& msg) override {
    if (msg->kind != MsgKind::Gossip) return;
    const auto& g = static_cast<const GossipMsg&>(*msg);
    receipts.push_back({g.depth, g.round, g.rate});
  }
};

/// One publisher over its own LocalViewProvider; every other process only
/// records what it receives. The fanout exceeds every view, so each round
/// addresses exactly the interested members: the round's targets are a
/// function of the view alone.
struct MemoRig {
  std::vector<Member> members;
  Interns interns;
  std::unique_ptr<GroupTree> tree;
  std::unique_ptr<MembershipView> view;
  std::unique_ptr<LocalViewProvider> provider;
  Runtime rt{NetworkConfig{}, 17};
  std::vector<ProcessId> dir;
  std::unique_ptr<PmcastNode> publisher;
  std::vector<std::unique_ptr<GossipRecorder>> recorders;  // index = pid - 1
  Event event = make_event_at(0, 0, 0.5);

  MemoRig() {
    Rng rng(5);
    members = uniform_interest_members(AddressSpace::regular(4, 2), 1.0, rng);
    TreeConfig tc;
    tc.depth = 2;
    tc.redundancy = 2;
    tree = std::make_unique<GroupTree>(tc, members, interns);
    view = std::make_unique<MembershipView>(
        tree->materialize_view(members[0].address));
    provider = std::make_unique<LocalViewProvider>(*view);
    for (std::size_t i = 0; i < members.size(); ++i) {
      const AddrId id = interns.addrs.intern(members[i].address);
      if (dir.size() <= id) dir.resize(id + 1, kNoProcess);
      dir[id] = static_cast<ProcessId>(i);
    }
    PmcastConfig config = testing::default_config();
    config.tree = tc;
    config.fanout = 64;
    config.pittel_c = 10.0;  // many rounds per depth
    config.local_interest_shortcut = false;
    publisher = std::make_unique<PmcastNode>(
        rt, 0, config, members[0].address, members[0].subscription,
        *provider, [this](AddrId id) {
          return id < dir.size() ? dir[id] : kNoProcess;
        });
    for (std::size_t i = 1; i < members.size(); ++i)
      recorders.push_back(
          std::make_unique<GossipRecorder>(rt, static_cast<ProcessId>(i)));
  }

  /// Runs until the publisher has executed `rounds` rounds in total and
  /// their gossips have landed.
  void run_to_round(std::uint64_t rounds) {
    while (publisher->stats().rounds_run < rounds) rt.run_for(sim_ms(1));
    rt.run_for(sim_ms(2));
  }

  /// Fresh enumeration: the pids of `depth`'s interested members.
  std::vector<ProcessId> expected_targets(std::size_t depth) const {
    const DepthView& dv = view->view(depth);
    std::vector<ProcessId> out;
    for (std::size_t i = 0; i < dv.size(); ++i) {
      if (!dv.alive(i) || !dv.interests(i).match(event)) continue;
      for (const AddrId id : dv.delegates(i))
        if (id != publisher->address_id()) out.push_back(dir[id]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Fresh enumeration: GETRATE at `depth`.
  double expected_rate(std::size_t depth) const {
    const DepthView& dv = view->view(depth);
    double candidates = 0, interested = 0;
    for (std::size_t i = 0; i < dv.size(); ++i) {
      if (!dv.alive(i)) continue;
      const bool match = dv.interests(i).match(event);
      for (const AddrId id : dv.delegates(i)) {
        if (id == publisher->address_id()) continue;
        ++candidates;
        if (match) ++interested;
      }
    }
    return interested / candidates;
  }

  std::vector<ProcessId> targets(std::uint32_t depth,
                                 std::uint32_t round) const {
    std::vector<ProcessId> out;
    for (const auto& r : recorders)
      if (r->got(depth, round)) out.push_back(r->id());
    return out;
  }

  /// Re-stores row `i` of `depth` at a newer version: with interests that
  /// do not match the event, or as a tombstone.
  void change_row(std::size_t depth, std::size_t i, bool tombstone) {
    DepthView& dv = view->view(depth);
    const std::vector<AddrId> delegates(dv.delegates(i).begin(),
                                        dv.delegates(i).end());
    auto interests =
        tombstone ? dv.interests_ptr(i)
                  : interns.summaries.intern(InterestSummary::from(
                        interval_subscription(0.9, 0.05)));
    ASSERT_TRUE(dv.upsert_pooled(dv.infix(i), delegates, interests,
                                 dv.process_count(i), dv.version(i) + 1,
                                 /*alive=*/!tombstone));
  }

  /// A row of `depth` whose delegates do not include the publisher.
  std::size_t foreign_row(std::size_t depth) const {
    const DepthView& dv = view->view(depth);
    for (std::size_t i = 0; i < dv.size(); ++i) {
      const auto ids = dv.delegates(i);
      if (dv.alive(i) && std::find(ids.begin(), ids.end(),
                                   publisher->address_id()) == ids.end())
        return i;
    }
    return DepthView::npos;
  }
};

TEST(PmcastNode, RowMatchMemoFollowsViewChanges) {
  for (const bool tombstone : {false, true}) {
    SCOPED_TRACE(tombstone ? "tombstone" : "interests flipped");
    MemoRig rig;
    rig.publisher->pmcast(rig.event);
    rig.run_to_round(1);
    ASSERT_EQ(rig.targets(1, 1), rig.expected_targets(1));

    // Between two periods, change one depth-1 row the first round
    // addressed, and one leaf row the entry will meet after promotion.
    const std::size_t row = rig.foreign_row(1);
    ASSERT_NE(row, DepthView::npos);
    const ProcessId dropped =
        rig.dir[rig.view->view(1).first_delegate(row)];
    const std::size_t leaf_row = rig.foreign_row(2);
    ASSERT_NE(leaf_row, DepthView::npos);
    rig.change_row(1, row, tombstone);
    rig.change_row(2, leaf_row, tombstone);

    rig.run_to_round(2);
    const auto round2 = rig.targets(1, 2);
    EXPECT_EQ(round2, rig.expected_targets(1));
    EXPECT_FALSE(std::binary_search(round2.begin(), round2.end(), dropped));
    EXPECT_TRUE(rig.recorders[dropped - 1]->got(1, 1));

    // Run the entry to its leaf depth: GETRATE there, carried in every
    // leaf gossip, and the leaf targets see the changed leaf row too.
    rig.rt.run_until_idle();
    EXPECT_EQ(rig.targets(2, 1), rig.expected_targets(2));
    std::size_t leaf_gossips = 0;
    for (const auto& r : rig.recorders)
      for (const auto& receipt : r->receipts) {
        if (receipt.depth != 2) continue;
        ++leaf_gossips;
        EXPECT_DOUBLE_EQ(receipt.rate, rig.expected_rate(2));
      }
    EXPECT_GT(leaf_gossips, 0u);
  }
}

TEST(PmcastNode, StatsAreConsistent) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config());
  c.nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  c.runtime->run_until_idle();
  std::uint64_t total_sent = 0;
  for (const auto& node : c.nodes) {
    const auto& s = node->stats();
    // Each executed round sends at most F gossips.
    EXPECT_LE(s.gossips_sent, s.rounds_run * 3);
    total_sent += s.gossips_sent;
  }
  EXPECT_EQ(total_sent, c.runtime->network().counters().sent);
}

TEST(PmcastNode, DepthOneTree) {
  auto c = make_cluster(6, 1, 2, 1.0, default_config(), 0.0, 41);
  const Event e = make_event_at(0, 0, 0.5);
  c.nodes[0]->pmcast(e);
  c.runtime->run_until_idle();
  std::size_t delivered = 0;
  for (const auto& n : c.nodes)
    if (n->has_delivered(e.id())) ++delivered;
  EXPECT_GE(delivered, 5u);
}

TEST(PmcastNode, IgnoresForeignMessages) {
  auto c = make_cluster(3, 2, 2, 1.0, default_config());
  struct Alien final : MessageBase {};
  c.runtime->network().send(99, 0, std::make_shared<Alien>());
  c.runtime->run_until_idle();
  EXPECT_EQ(c.nodes[0]->stats().received, 0u);
}

}  // namespace
}  // namespace pmc
