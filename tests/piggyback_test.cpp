// Membership piggybacking on event gossip (paper Sec. 2.3): membership
// rows ride on GossipMsg via the PmcastNode piggyback hooks wired into
// SyncNode, so view updates spread even when dedicated membership gossip
// is scarce.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "harness/workload.hpp"
#include "membership/sync.hpp"
#include "pmcast/node.hpp"
#include "wire/messages.hpp"

namespace pmc {
namespace {

struct Stack {
  std::vector<Member> members;
  std::unique_ptr<Interns> interns = std::make_unique<Interns>();
  std::unique_ptr<GroupTree> tree;
  std::unique_ptr<Runtime> runtime;
  std::vector<ProcessId> sync_dir;  ///< dense AddrId -> sync pid
  std::vector<ProcessId> pm_dir;    ///< dense AddrId -> pmcast pid
  std::vector<std::unique_ptr<SyncNode>> sync_nodes;
  std::vector<std::unique_ptr<LocalViewProvider>> providers;
  std::vector<std::unique_ptr<PmcastNode>> pm_nodes;
};

/// Builds combined SyncNode+PmcastNode processes with piggybacking wired,
/// with the dedicated membership gossip slowed to once per `sync_period`.
Stack make_stack(SimTime sync_period, bool piggyback,
                 std::uint64_t seed = 5) {
  Stack s;
  Rng rng(seed);
  const auto space = AddressSpace::regular(3, 2);
  s.members = uniform_interest_members(space, 1.0, rng);
  TreeConfig tc;
  tc.depth = 2;
  tc.redundancy = 2;
  s.tree = std::make_unique<GroupTree>(tc, s.members, *s.interns);
  s.runtime = std::make_unique<Runtime>(NetworkConfig{}, seed ^ 0x42);

  for (std::size_t i = 0; i < s.members.size(); ++i) {
    const AddrId id = s.interns->addrs.intern(s.members[i].address);
    if (s.sync_dir.size() <= id) {
      s.sync_dir.resize(id + 1, kNoProcess);
      s.pm_dir.resize(id + 1, kNoProcess);
    }
    s.sync_dir[id] = static_cast<ProcessId>(i);
    s.pm_dir[id] = static_cast<ProcessId>(i + 100);
  }
  SyncConfig sc;
  sc.tree = tc;
  sc.gossip_period = sync_period;
  sc.suspicion_timeout = sync_period * 100;  // irrelevant here
  for (std::size_t i = 0; i < s.members.size(); ++i) {
    s.sync_nodes.push_back(std::make_unique<SyncNode>(
        *s.runtime, static_cast<ProcessId>(i), sc,
        s.tree->materialize_view(s.members[i].address),
        s.members[i].subscription));
    s.sync_nodes.back()->set_directory([&dir = s.sync_dir](AddrId id) {
      return id < dir.size() ? dir[id] : kNoProcess;
    });
  }
  PmcastConfig pc;
  pc.tree = tc;
  pc.fanout = 3;
  for (std::size_t i = 0; i < s.members.size(); ++i) {
    s.providers.push_back(
        std::make_unique<LocalViewProvider>(s.sync_nodes[i]->view()));
    s.pm_nodes.push_back(std::make_unique<PmcastNode>(
        *s.runtime, static_cast<ProcessId>(i + 100), pc,
        s.members[i].address, s.members[i].subscription, *s.providers[i],
        [&dir = s.pm_dir](AddrId id) {
          return id < dir.size() ? dir[id] : kNoProcess;
        }));
    if (piggyback) {
      SyncNode* sync = s.sync_nodes[i].get();
      s.pm_nodes.back()->set_piggyback(
          [sync](AddrId target) {
            return std::make_shared<const RowBatch>(
                sync->rows_to_share(target));
          },
          [sync](const SenderRef& sender, const RowBatch& rows) {
            sync->absorb_rows(sender, rows);
          });
    }
  }
  return s;
}

TEST(Piggyback, GossipCarriesRows) {
  auto s = make_stack(sim_sec(100), /*piggyback=*/true);
  // Intercept a gossip message and verify rows ride along.
  bool saw_piggyback = false;
  s.runtime->network().set_transcoder([&](const MessagePtr& msg) {
    if (const auto* gossip = dynamic_cast<const GossipMsg*>(msg.get())) {
      if (gossip->piggyback != nullptr) saw_piggyback = true;
    }
    return msg;
  });
  s.pm_nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  s.runtime->run_for(sim_sec(5));
  EXPECT_TRUE(saw_piggyback);
}

TEST(Piggyback, SpreadsMembershipWithoutDedicatedGossip) {
  // Dedicated membership gossip effectively disabled (100 s period); a
  // local row bump at one process must still reach its neighbors by
  // riding on event gossip.
  auto s = make_stack(sim_sec(100), /*piggyback=*/true);

  // Simulate a local membership change: node 0 (address 0.0) tombstones
  // its neighbor 0.2 in its own view.
  {
    auto& view =
        const_cast<MembershipView&>(s.sync_nodes[0]->view());
    auto& leaf = view.view(2);
    const std::size_t i = leaf.find_index(2);
    ASSERT_NE(i, DepthView::npos);
    leaf.upsert_pooled(leaf.infix(i), leaf.delegates(i),
                       leaf.interests_ptr(i), leaf.process_count(i),
                       leaf.version(i) + 1000, false);
  }

  // A few events published by node 0 spread the row to subgroup peers.
  for (std::uint64_t i = 0; i < 5; ++i) {
    s.pm_nodes[0]->pmcast(make_event_at(0, i, 0.5));
    s.runtime->run_for(sim_sec(3));
  }

  const auto& leaf = s.sync_nodes[1]->view().view(2);
  const std::size_t i = leaf.find_index(2);
  ASSERT_NE(i, DepthView::npos);
  EXPECT_FALSE(leaf.alive(i)) << "piggybacked tombstone did not arrive";
}

TEST(Piggyback, NoHooksNoRows) {
  auto s = make_stack(sim_sec(100), /*piggyback=*/false);
  bool saw_piggyback = false;
  s.runtime->network().set_transcoder([&](const MessagePtr& msg) {
    if (const auto* gossip = dynamic_cast<const GossipMsg*>(msg.get())) {
      if (gossip->piggyback != nullptr) saw_piggyback = true;
    }
    return msg;
  });
  s.pm_nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  s.runtime->run_for(sim_sec(5));
  EXPECT_FALSE(saw_piggyback);
}

TEST(Piggyback, SurvivesWireRoundTrip) {
  auto s = make_stack(sim_sec(100), /*piggyback=*/true);
  s.runtime->network().set_transcoder([](const MessagePtr& msg) {
    return wire::decode_message(wire::encode_message(*msg));
  });
  s.pm_nodes[0]->pmcast(make_event_at(0, 0, 0.5));
  s.runtime->run_for(sim_sec(5));
  std::size_t delivered = 0;
  for (const auto& n : s.pm_nodes)
    if (n->has_delivered(EventId{0, 0})) ++delivered;
  EXPECT_EQ(delivered, s.pm_nodes.size());
}

/// Stands in for a member's pmcast process and logs every gossip it
/// receives. The log holds the messages, so their addresses stay distinct
/// while it is kept.
struct Delivery {
  ProcessId to = kNoProcess;
  MessagePtr msg;
};

class Recorder final : public Process {
 public:
  Recorder(Runtime& rt, ProcessId pid, std::vector<Delivery>& log)
      : Process(rt, pid), log_(&log) {}

 protected:
  void on_message(ProcessId, const MessagePtr& msg) override {
    if (msg->kind == MsgKind::Gossip) log_->push_back({id(), msg});
  }

 private:
  std::vector<Delivery>* log_;
};

TEST(Piggyback, OneSnapshotPerPeriodAndLevelSentAsOneFanOut) {
  // A node whose targets are recorders. Per gossip period it must take one
  // row snapshot per prefix level, attach that same batch to every gossip
  // for a target of that level, send each run of consecutive same-level
  // targets as one shared message, and keep no snapshot once the period
  // is over. Fails if snapshots are built per target or kept across
  // periods, or if same-snapshot targets get separate messages.
  auto s = make_stack(sim_sec(100), /*piggyback=*/false);
  const AddrInternTable& addrs = s.interns->addrs;
  const AddrId self = addrs.find(s.members[0].address);
  constexpr ProcessId kNode = 300;
  constexpr ProcessId kRecorderBase = 200;

  std::vector<Delivery> received;
  std::vector<std::unique_ptr<Recorder>> recorders;
  std::vector<ProcessId> directory(s.pm_dir.size(), kNoProcess);
  std::map<ProcessId, std::size_t> level_of;  // recorder pid -> level
  for (std::size_t i = 1; i < s.members.size(); ++i) {
    const auto pid = static_cast<ProcessId>(kRecorderBase + i);
    const AddrId id = addrs.find(s.members[i].address);
    recorders.push_back(std::make_unique<Recorder>(*s.runtime, pid, received));
    directory[id] = pid;
    level_of[pid] = addrs.common_prefix_length(self, id);
  }

  PmcastConfig pc;
  pc.tree.depth = 2;
  pc.tree.redundancy = 2;
  pc.fanout = 16;  // every candidate is a target
  PmcastNode node(*s.runtime, kNode, pc, s.members[0].address,
                  s.members[0].subscription, *s.providers[0],
                  [&directory](AddrId id) {
                    return id < directory.size() ? directory[id] : kNoProcess;
                  });
  SyncNode* sync = s.sync_nodes[0].get();
  std::size_t calls = 0;
  std::vector<std::weak_ptr<const RowBatch>> built;
  node.set_piggyback(
      [&](AddrId target) {
        ++calls;
        auto rows =
            std::make_shared<const RowBatch>(sync->rows_to_share(target));
        built.push_back(rows);
        return rows;
      },
      [](const SenderRef&, const RowBatch&) {});
  // The link filter sees every destination, in send order.
  std::vector<ProcessId> sent_to;
  s.runtime->network().set_link_filter([&](ProcessId from, ProcessId to) {
    if (from == kNode) sent_to.push_back(to);
    return true;
  });

  // Runs the node through one period tick (ticks fall on multiples of the
  // period, deliveries take at most 0.9 ms) and checks what it sent. With
  // `one_entry` the period gossips a single buffered event, so its sends
  // are one round and the runs of same-level targets can be counted.
  const auto run_period = [&](bool one_entry) {
    calls = 0;
    sent_to.clear();
    received.clear();
    s.runtime->run_for(pc.period);
    ASSERT_FALSE(sent_to.empty());
    ASSERT_EQ(received.size(), sent_to.size());

    std::set<std::size_t> levels;
    std::size_t runs = 0;
    for (std::size_t k = 0; k < sent_to.size(); ++k) {
      levels.insert(level_of.at(sent_to[k]));
      if (k == 0 || level_of.at(sent_to[k]) != level_of.at(sent_to[k - 1]))
        ++runs;
    }
    EXPECT_EQ(calls, levels.size()) << "one snapshot per level and period";

    std::map<std::size_t, const RowBatch*> batch_of_level;
    std::map<const MessageBase*, std::size_t> level_of_message;
    for (const Delivery& d : received) {
      const auto& gossip = static_cast<const GossipMsg&>(*d.msg);
      ASSERT_NE(gossip.piggyback, nullptr);
      EXPECT_EQ(gossip.sender.interns(), s.interns.get());
      EXPECT_EQ(gossip.sender.id(), self);
      const auto it = batch_of_level
                          .emplace(level_of.at(d.to), gossip.piggyback.get())
                          .first;
      EXPECT_EQ(it->second, gossip.piggyback.get())
          << "level " << it->first << " got two batches";
      const auto msg =
          level_of_message.emplace(d.msg.get(), level_of.at(d.to)).first;
      EXPECT_EQ(msg->second, level_of.at(d.to)) << "a fan-out mixed levels";
    }
    EXPECT_EQ(batch_of_level.size(), levels.size());
    if (one_entry) {
      EXPECT_LT(runs, sent_to.size()) << "fixture: no same-level run";
      EXPECT_EQ(level_of_message.size(), runs)
          << "one message per run of same-level targets";
    }

    // Once the messages are gone, nothing keeps a snapshot alive: the
    // node dropped its references when the period ended.
    received.clear();
    for (const auto& rows : built) EXPECT_TRUE(rows.expired());
    built.clear();
  };

  s.runtime->run_for(pc.period / 2);  // between ticks
  node.pmcast(make_event_at(0, 0, 0.5));
  run_period(/*one_entry=*/true);
  // A second event keeps the node gossiping: the next period must ask the
  // source afresh, and share each level's batch across both events.
  node.pmcast(make_event_at(0, 1, 0.5));
  run_period(/*one_entry=*/false);
}

}  // namespace
}  // namespace pmc
