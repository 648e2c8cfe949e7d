// Full deployment-style stack: every process runs the membership protocol
// (SyncNode) *and* the dissemination protocol (PmcastNode) with
//   * pmcast views served live from the anti-entropy membership,
//   * membership rows piggybacked on event gossip (paper Sec. 2.3),
//   * every message serialized through the wire codec, as a socket
//     deployment would do.
// A process then crashes; failure detection tombstones it, the tombstone
// spreads (partly by riding on events), and dissemination keeps working.
#include <iostream>

#include "harness/workload.hpp"
#include "pmcast/pmcast.hpp"
#include "wire/messages.hpp"

int main() {
  using namespace pmc;

  const auto space = AddressSpace::regular(4, 2);
  Rng rng(11);
  const auto members = uniform_interest_members(space, 0.7, rng);
  TreeConfig tree_config;
  tree_config.depth = 2;
  tree_config.redundancy = 2;
  Interns interns;
  const GroupTree tree(tree_config, members, interns);

  Runtime runtime(NetworkConfig{.loss_probability = 0.02,
                                .latency_min = sim_us(100),
                                .latency_max = sim_us(900)},
                  2026);
  // Deployment realism: every message crosses the wire codec, and rows
  // that come off the wire land in this deployment's intern tables.
  runtime.network().set_transcoder([&interns](const MessagePtr& msg) {
    return wire::decode_message(wire::encode_message(*msg), interns);
  });

  // Directories: sync processes at pid i, pmcast processes at pid i+100,
  // both as dense AddrId-indexed vectors.
  std::vector<ProcessId> sync_dir, pm_dir;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const AddrId id = interns.addrs.intern(members[i].address);
    if (sync_dir.size() <= id) {
      sync_dir.resize(id + 1, kNoProcess);
      pm_dir.resize(id + 1, kNoProcess);
    }
    sync_dir[id] = static_cast<ProcessId>(i);
    pm_dir[id] = static_cast<ProcessId>(i + 100);
  }

  SyncConfig sync_config;
  sync_config.tree = tree_config;
  sync_config.gossip_period = sim_ms(100);
  sync_config.suspicion_timeout = sim_ms(800);
  sync_config.confirm_suspicion = true;  // agreement before exclusion

  std::vector<std::unique_ptr<SyncNode>> sync_nodes;
  for (std::size_t i = 0; i < members.size(); ++i) {
    sync_nodes.push_back(std::make_unique<SyncNode>(
        runtime, static_cast<ProcessId>(i), sync_config,
        tree.materialize_view(members[i].address),
        members[i].subscription));
    sync_nodes.back()->set_directory([&sync_dir](AddrId id) {
      return id < sync_dir.size() ? sync_dir[id] : kNoProcess;
    });
  }

  PmcastConfig pm_config;
  pm_config.tree = tree_config;
  pm_config.fanout = 3;
  pm_config.recovery_rounds = 3;  // digest recovery on

  std::size_t delivered = 0;
  std::vector<std::unique_ptr<LocalViewProvider>> providers;
  std::vector<std::unique_ptr<PmcastNode>> pm_nodes;
  for (std::size_t i = 0; i < members.size(); ++i) {
    providers.push_back(
        std::make_unique<LocalViewProvider>(sync_nodes[i]->view()));
    pm_nodes.push_back(std::make_unique<PmcastNode>(
        runtime, static_cast<ProcessId>(i + 100), pm_config,
        members[i].address, members[i].subscription, *providers[i],
        [&pm_dir](AddrId id) {
          return id < pm_dir.size() ? pm_dir[id] : kNoProcess;
        }));
    pm_nodes.back()->set_deliver_handler(
        [&delivered](const Event&) { ++delivered; });
    SyncNode* sync = sync_nodes[i].get();
    pm_nodes.back()->set_piggyback(
        [sync](AddrId target) {
          return std::make_shared<const RowBatch>(sync->rows_to_share(target));
        },
        [sync](const SenderRef& sender, const RowBatch& rows) {
          sync->absorb_rows(sender, rows);
        });
  }

  std::cout << members.size() << " processes, wire codec + piggybacking +"
            << " digest recovery active\n\n";

  runtime.run_for(sim_ms(500));  // membership settles

  std::cout << "Publishing 10 events...\n";
  for (std::uint64_t s = 0; s < 10; ++s) {
    Rng ev_rng(100 + s);
    pm_nodes[s % pm_nodes.size()]->pmcast(
        make_uniform_event(s % pm_nodes.size(), s, ev_rng));
    runtime.run_for(sim_ms(300));
  }
  runtime.run_for(sim_ms(3000));
  std::cout << "  deliveries so far: " << delivered << "\n";

  std::cout << "\nCrashing 2.1; failure detection (with confirmation) "
               "tombstones it...\n";
  const auto victim = sync_dir.at(interns.addrs.find(Address::parse("2.1")));
  sync_nodes[victim]->crash();
  pm_nodes[victim]->crash();
  runtime.run_for(sim_ms(4000));
  std::size_t aware = 0;
  for (const auto& n : sync_nodes) {
    if (!n->alive() || n->address().component(0) != 2) continue;
    const auto& leaf = n->view().view(2);
    const std::size_t row = leaf.find_index(1);
    if (row != DepthView::npos && !leaf.alive(row)) ++aware;
  }
  std::cout << "  leaf neighbors aware of the crash: " << aware << "/3\n";

  std::cout << "\nPublishing 5 more events after the crash...\n";
  const auto before = delivered;
  for (std::uint64_t s = 10; s < 15; ++s) {
    Rng ev_rng(100 + s);
    pm_nodes[(s * 3) % pm_nodes.size()]->pmcast(
        make_uniform_event((s * 3) % pm_nodes.size(), s, ev_rng));
    runtime.run_for(sim_ms(300));
  }
  runtime.run_for(sim_ms(3000));
  std::cout << "  post-crash deliveries: " << (delivered - before) << "\n";

  const auto& counters = runtime.network().counters();
  std::cout << "\nTraffic: " << counters.sent << " messages ("
            << counters.lost << " lost to the 2% loss, "
            << counters.dead_target << " to crashed targets)\n";
  return 0;
}
