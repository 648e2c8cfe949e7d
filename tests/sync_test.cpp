#include "membership/sync.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness/workload.hpp"
#include "view_rows.hpp"
#include "wire/messages.hpp"

namespace pmc {
namespace {

struct SyncCluster {
  std::vector<Member> members;
  std::unique_ptr<Interns> interns = std::make_unique<Interns>();
  std::unique_ptr<GroupTree> tree;
  std::unique_ptr<Runtime> runtime;
  std::vector<ProcessId> pid_by_id;  ///< dense AddrId -> pid directory
  std::vector<std::unique_ptr<SyncNode>> nodes;
  SyncConfig config;

  void register_pid(const Address& a, ProcessId pid) {
    const AddrId id = interns->addrs.intern(a);
    if (pid_by_id.size() <= id) pid_by_id.resize(id + 1, kNoProcess);
    pid_by_id[id] = pid;
  }

  SyncNode::Directory directory_fn() const {
    return [this](AddrId id) {
      return id < pid_by_id.size() ? pid_by_id[id] : kNoProcess;
    };
  }

  /// The depth-`depth` row of `node`'s view with infix `c`; npos if absent.
  static std::size_t row_of(const SyncNode& node, std::size_t depth,
                            AddrComponent c) {
    return node.view().view(depth).find_index(c);
  }
};

SyncCluster make_sync_cluster(std::size_t a, std::size_t d, std::size_t r,
                              std::uint64_t seed = 1) {
  SyncCluster c;
  Rng rng(seed);
  const auto space =
      AddressSpace::regular(static_cast<AddrComponent>(a), d);
  c.members = uniform_interest_members(space, 0.5, rng);
  c.config.tree.depth = d;
  c.config.tree.redundancy = r;
  c.config.gossip_period = sim_ms(50);
  c.config.gossip_fanout = 3;
  c.config.suspicion_timeout = sim_ms(600);
  c.tree = std::make_unique<GroupTree>(c.config.tree, c.members, *c.interns);
  c.runtime = std::make_unique<Runtime>(NetworkConfig{}, seed ^ 0x1234);
  for (std::size_t i = 0; i < c.members.size(); ++i)
    c.register_pid(c.members[i].address, static_cast<ProcessId>(i));
  for (std::size_t i = 0; i < c.members.size(); ++i) {
    c.nodes.push_back(std::make_unique<SyncNode>(
        *c.runtime, static_cast<ProcessId>(i), c.config,
        c.tree->materialize_view(c.members[i].address),
        c.members[i].subscription));
    c.nodes.back()->set_directory(c.directory_fn());
  }
  return c;
}

TEST(SyncNode, FoundersStartJoined) {
  auto c = make_sync_cluster(3, 2, 2);
  for (const auto& n : c.nodes) EXPECT_TRUE(n->joined());
}

TEST(SyncNode, StableGroupViewsStayConsistent) {
  auto c = make_sync_cluster(3, 2, 2);
  c.runtime->run_for(sim_ms(500));
  // No churn: every node still knows all 3 subtrees and its 3 neighbors.
  for (const auto& n : c.nodes) {
    EXPECT_EQ(n->view().view(1).live_count(), 3u);
    EXPECT_EQ(n->view().view(2).live_count(), 3u);
  }
}

TEST(SyncNode, JoinerIsAdoptedByNeighbors) {
  auto c = make_sync_cluster(3, 2, 2);
  // 2.2 exists; make a cluster without it, then join it back.
  const Address newbie = Address::parse("2.2");
  const ProcessId newbie_pid = static_cast<ProcessId>(c.nodes.size());
  // Remove from the founding views by rebuilding a smaller cluster:
  SyncCluster small;
  small.config = c.config;
  Rng rng(3);
  const auto space = AddressSpace::regular(3, 2);
  for (const auto& m : uniform_interest_members(space, 0.5, rng)) {
    if (m.address == newbie) continue;
    small.members.push_back(m);
  }
  small.tree = std::make_unique<GroupTree>(small.config.tree, small.members,
                                           *small.interns);
  small.runtime = std::make_unique<Runtime>(NetworkConfig{}, 77);
  for (std::size_t i = 0; i < small.members.size(); ++i)
    small.register_pid(small.members[i].address,
                       static_cast<ProcessId>(i));
  small.register_pid(newbie, newbie_pid);
  for (std::size_t i = 0; i < small.members.size(); ++i) {
    small.nodes.push_back(std::make_unique<SyncNode>(
        *small.runtime, static_cast<ProcessId>(i), small.config,
        small.tree->materialize_view(small.members[i].address),
        small.members[i].subscription));
    small.nodes.back()->set_directory(small.directory_fn());
  }

  // Join via a *distant* contact (0.0) so the request must be routed.
  SyncNode joiner(*small.runtime, newbie_pid, small.config, newbie,
                  Subscription::parse("u < 0.3"), /*contact=*/0,
                  *small.interns);
  joiner.set_directory(small.directory_fn());

  small.runtime->run_for(sim_ms(1500));

  EXPECT_TRUE(joiner.joined());
  // The joiner knows its neighborhood...
  EXPECT_GE(joiner.view().view(2).live_count(), 2u);
  EXPECT_GE(joiner.view().view(1).live_count(), 3u);
  // ...and its immediate neighbors know the joiner.
  std::size_t aware = 0;
  for (const auto& n : small.nodes) {
    if (n->address().component(0) != 2) continue;
    const auto& leaf = n->view().view(2);
    const std::size_t i = SyncCluster::row_of(*n, 2, 2);
    if (i != DepthView::npos && leaf.alive(i)) ++aware;
  }
  EXPECT_GE(aware, 2u);
}

TEST(SyncNode, LeaveTombstonesPropagate) {
  auto c = make_sync_cluster(3, 2, 2, /*seed=*/5);
  c.runtime->run_for(sim_ms(200));
  const Address leaver = c.nodes[4]->address();  // 1.1
  c.nodes[4]->leave();
  c.runtime->run_for(sim_ms(1500));
  std::size_t tombstoned = 0;
  for (const auto& n : c.nodes) {
    if (!n->alive()) continue;
    if (n->address().component(0) != leaver.component(0)) continue;
    const auto& leaf = n->view().view(2);
    const std::size_t i = SyncCluster::row_of(*n, 2, leaver.component(1));
    if (i != DepthView::npos && !leaf.alive(i)) ++tombstoned;
  }
  EXPECT_GE(tombstoned, 2u);  // both surviving neighbors of 1.x
}

TEST(SyncNode, CrashedNeighborSuspectedAfterTimeout) {
  auto c = make_sync_cluster(3, 2, 2, /*seed=*/9);
  c.runtime->run_for(sim_ms(200));
  const Address victim = c.nodes[1]->address();  // 0.1
  c.nodes[1]->crash();
  c.runtime->run_for(sim_ms(3000));
  std::size_t suspected = 0;
  for (const auto& n : c.nodes) {
    if (!n->alive()) continue;
    if (n->address().component(0) != victim.component(0)) continue;
    const auto& leaf = n->view().view(2);
    const std::size_t i = SyncCluster::row_of(*n, 2, victim.component(1));
    if (i != DepthView::npos && !leaf.alive(i)) ++suspected;
  }
  EXPECT_GE(suspected, 2u);
}

TEST(SyncNode, DelegateRecompactionRefreshesCounts) {
  // After a member of subgroup 0 crashes and is suspected, the delegates of
  // subgroup 0 republish their depth-1 row with a reduced process count,
  // and anti-entropy carries it to other subtrees.
  auto c = make_sync_cluster(3, 2, 2, /*seed=*/13);
  c.runtime->run_for(sim_ms(200));
  c.nodes[2]->crash();  // 0.2 — not a delegate (R=2 keeps 0.0 and 0.1)
  c.runtime->run_for(sim_ms(4000));
  std::size_t updated = 0;
  for (const auto& n : c.nodes) {
    if (!n->alive()) continue;
    if (n->address().component(0) == 0) continue;  // other subtrees only
    const auto& root = n->view().view(1);
    const std::size_t i = SyncCluster::row_of(*n, 1, 0);
    if (i != DepthView::npos && root.alive(i) && root.process_count(i) == 2)
      ++updated;
  }
  EXPECT_GE(updated, 3u);
}

TEST(SyncNode, MessagesCarryNoUpdatesWhenConverged) {
  auto c = make_sync_cluster(3, 2, 2, /*seed=*/21);
  c.runtime->run_for(sim_ms(400));
  const auto before = c.runtime->network().counters().sent;
  c.runtime->run_for(sim_ms(400));
  const auto after = c.runtime->network().counters().sent;
  // Converged steady state: only digests flow, roughly fanout per node per
  // period; replies should be rare. Allow 2x headroom.
  const double periods = 400.0 / 50.0;
  const double per_period = static_cast<double>(after - before) / periods;
  EXPECT_LE(per_period, static_cast<double>(c.nodes.size()) * 3 * 2);
}

// ---------------------------------------------------------------------------
// Join retry backoff (SyncConfig::join_backoff)
// ---------------------------------------------------------------------------

/// Times (sim µs) at which a lone joiner (re)sends its JoinRequest when
/// the contact never answers (pid 0 is registered nowhere, so every send
/// lands on dead_target). Sends are observed through the network's sent
/// counter, sampled on a 5 ms grid — fine enough to see the 50 ms period
/// ticks exactly.
std::vector<SimTime> join_send_times(bool backoff, SimTime horizon) {
  Interns interns;
  SyncConfig config;
  config.tree.depth = 2;
  config.tree.redundancy = 2;
  config.gossip_period = sim_ms(50);
  config.max_join_retries = 0;  // unbounded: observe the raw schedule
  config.join_backoff = backoff;
  Runtime rt(NetworkConfig{}, /*seed=*/901);
  SyncNode joiner(rt, /*pid=*/1, config, Address::parse("0.0"),
                  Subscription::parse("u < 0.5"), /*contact=*/0, interns);
  std::vector<SimTime> times;
  std::uint64_t seen = 0;
  for (SimTime t = 0; t <= horizon; t += sim_ms(5)) {
    rt.run_until(t);
    const auto sent = rt.network().counters().sent;
    if (sent > seen) {
      times.push_back(t);
      seen = sent;
    }
  }
  return times;
}

TEST(SyncNode, LegacyJoinRetryCadenceIsEveryPeriod) {
  const auto times = join_send_times(false, sim_ms(500));
  ASSERT_GE(times.size(), 5u);
  for (std::size_t i = 1; i < times.size(); ++i)
    EXPECT_EQ(times[i] - times[i - 1], sim_ms(50)) << i;
}

TEST(SyncNode, JoinBackoffScheduleIsPinned) {
  // The backed-off schedule is a deterministic function of (base seed,
  // pid, period): doubling waits capped at 8 periods, plus jitter from the
  // joiner's labeled stream, quantized up to the next period tick. Pinned
  // so a refactor that silently moves the jitter draws (or re-seeds the
  // stream) shows up here rather than in a flaky soak.
  const auto times = join_send_times(true, sim_ms(4000));
  const std::vector<SimTime> pinned = {0,       100000,  250000,  550000,
                                       1000000, 1550000, 2050000, 2600000,
                                       3100000, 3600000};
  EXPECT_EQ(times, pinned);

  // Structure, independent of the jitter values: the k-th wait is at
  // least period * min(2^k, 8) and at most 1.5x that plus one period of
  // tick quantization — and the whole schedule replays bit for bit.
  ASSERT_GE(times.size(), 4u);
  for (std::size_t k = 1; k < times.size(); ++k) {
    const SimTime gap = times[k] - times[k - 1];
    const SimTime base =
        sim_ms(50) * static_cast<SimTime>(
                         std::min<std::uint64_t>(std::uint64_t{1} << (k - 1),
                                                 8));
    EXPECT_GE(gap, base) << k;
    EXPECT_LE(gap, base + base / 2 + sim_ms(50)) << k;
  }
  EXPECT_EQ(join_send_times(true, sim_ms(4000)), times);
}

// --- Version first: a stale row costs a lookup, never an intern ------------

/// The mutation counter of every depth of `node`'s view.
std::vector<std::uint64_t> mutations_of(const SyncNode& node) {
  std::vector<std::uint64_t> out;
  for (std::size_t depth = 1; depth <= node.view().config().depth; ++depth)
    out.push_back(node.view().view(depth).mutations());
  return out;
}

/// `rows` as they arrive off the wire: a MembershipUpdate round trip, so
/// the batch is bound to its own address list, not to any Interns.
RowBatch through_wire(const RowBatch& rows) {
  MembershipUpdateMsg update;
  update.sender = Address::parse("0.1");
  update.rows = rows;
  const auto decoded = wire::decode_message(wire::encode_message(update));
  const RowBatch out = static_cast<const MembershipUpdateMsg&>(*decoded).rows;
  EXPECT_EQ(out.interns(), nullptr);
  return out;
}

/// A row at (depth, infix) whose delegate and summary no cluster process
/// has: absorbing it may only intern them if the row is actually stored.
ViewRow foreign_row(AddrComponent infix, std::uint64_t version, bool alive) {
  ViewRow row;
  row.infix = infix;
  row.delegates = {Address::parse("7.7")};
  row.interests = InterestSummary::from(interval_subscription(0.123, 0.01));
  row.process_count = 5;
  row.version = version;
  row.alive = alive;
  return row;
}

TEST(SyncNodeVersionFirst, StaleRowsTouchNoInternsAndNoTables) {
  auto c = make_sync_cluster(3, 2, 2);
  SyncNode& node = *c.nodes[0];  // 0.0; its leaf neighbor 0.1 sends
  const Address sender = c.members[1].address;
  const auto mutations = mutations_of(node);

  // In-sim: the neighbor's own rows, all at versions node already holds.
  node.absorb_rows(sender, c.nodes[1]->rows_to_share(node.address_id()));
  EXPECT_EQ(mutations_of(node), mutations);

  // Off the wire: every row is older than ours at its infix, and carries a
  // delegate and a summary the runtime has never seen.
  Interns theirs;
  RowBatch stale(theirs);
  for (std::uint32_t depth = 1; depth <= 2; ++depth)
    for (std::size_t i = 0; i < node.view().view(depth).size(); ++i)
      push_row(stale, depth,
               foreign_row(node.view().view(depth).infix(i), 0, i % 2 == 0),
               theirs);
  ASSERT_EQ(stale.size(), 6u);
  const std::size_t addrs = c.interns->addrs.size();
  const std::size_t summaries = c.interns->summaries.size();
  node.absorb_rows(sender, through_wire(stale));
  node.absorb_rows(sender, stale);  // bound to a foreign Interns
  EXPECT_EQ(c.interns->addrs.size(), addrs);
  EXPECT_EQ(c.interns->summaries.size(), summaries);
  EXPECT_EQ(mutations_of(node), mutations);
  EXPECT_EQ(node.stats().rebuttals, 0u);
  EXPECT_EQ(node.stats().deaths_observed, 0u);
}

TEST(SyncNodeVersionFirst, NewerRowAppliesExactlyOnce) {
  auto c = make_sync_cluster(3, 2, 2);
  SyncNode& node = *c.nodes[0];
  const Address sender = c.members[1].address;
  const DepthView& leaf = node.view().view(2);
  const std::size_t i = leaf.find_index(2);  // neighbor 0.2
  ASSERT_NE(i, DepthView::npos);
  const std::uint64_t version = leaf.version(i) + 1000;

  Interns theirs;
  RowBatch newer(theirs);
  push_row(newer, 2, foreign_row(2, version, false), theirs);
  const RowBatch wire_rows = through_wire(newer);
  const auto before = mutations_of(node);
  node.absorb_rows(sender, wire_rows);
  node.absorb_rows(sender, wire_rows);
  const auto after = mutations_of(node);
  EXPECT_EQ(after[0], before[0]);
  EXPECT_EQ(after[1], before[1] + 1);
  EXPECT_EQ(leaf.version(leaf.find_index(2)), version);
  EXPECT_FALSE(leaf.alive(leaf.find_index(2)));
  EXPECT_EQ(c.interns->addrs.resolve(leaf.first_delegate(leaf.find_index(2))),
            Address::parse("7.7"));
  EXPECT_EQ(node.stats().deaths_observed, 1u);
}

TEST(SyncNodeVersionFirst, TombstoneOfSelfStillRebuts) {
  auto c = make_sync_cluster(3, 2, 2);
  SyncNode& node = *c.nodes[0];
  const Address sender = c.members[1].address;
  const DepthView& leaf = node.view().view(2);
  const AddrComponent self_infix = node.address().component(1);

  // A stale tombstone of ourselves: version 0, older than our row. It is
  // rebutted anyway — once per sighting, from either table.
  ViewRow tomb = materialize_row(leaf, leaf.find_index(self_infix));
  tomb.alive = false;
  tomb.version = 0;
  Interns theirs;
  RowBatch batch(theirs);
  push_row(batch, 2, tomb, theirs);

  std::uint64_t last = leaf.version(leaf.find_index(self_infix));
  RowBatch in_sim(*c.interns);
  push_row(in_sim, 2, tomb, *c.interns);
  for (const RowBatch* rows : {&batch, &in_sim}) {
    node.absorb_rows(sender, through_wire(*rows));
    const std::size_t i = leaf.find_index(self_infix);
    EXPECT_TRUE(leaf.alive(i));
    EXPECT_GT(leaf.version(i), last);
    last = leaf.version(i);
    node.absorb_rows(sender, *rows);
    EXPECT_TRUE(leaf.alive(leaf.find_index(self_infix)));
    EXPECT_GT(leaf.version(leaf.find_index(self_infix)), last);
    last = leaf.version(leaf.find_index(self_infix));
  }
  EXPECT_EQ(node.stats().rebuttals, 4u);
  EXPECT_EQ(node.stats().deaths_observed, 0u);
}

}  // namespace
}  // namespace pmc
