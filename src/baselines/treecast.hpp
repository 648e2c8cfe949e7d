// Deterministic tree multicast — the Astrolabe-style comparison point of
// the paper's concluding remarks: "multicasting ... performed
// deterministically, with higher throughput than pmcast in 'stable' phases
// of the system, yet a reduced robustness in 'unstable' phases".
//
// Uses the same GroupTree and interest summaries as pmcast, but instead of
// probabilistic gossip each holder forwards the event exactly once to ONE
// delegate of every interested child subgroup, recursively down the tree
// (and to every interested neighbor at the leaves). Message cost is
// near-optimal (≈ interested processes + interior forwards) and delivery is
// certain in a fault-free run — but a single crashed or unreachable
// forwarder silently severs its whole subtree.
#pragma once

#include <functional>
#include <memory>

#include "event/dedup.hpp"
#include "event/event.hpp"
#include "filter/subscription.hpp"
#include "pmcast/view_provider.hpp"
#include "sim/runtime.hpp"

namespace pmc {

struct TreecastMsg final : MessageBase {
  TreecastMsg() noexcept : MessageBase(MsgKind::Treecast) {}

  std::shared_ptr<const Event> event;
  /// The receiver is responsible for its subtree from this depth on.
  std::uint32_t depth = 0;
};

struct TreecastConfig {
  TreeConfig tree;
};

class TreecastNode final : public Process {
 public:
  using DeliverHandler = std::function<void(const Event&)>;
  using Directory = std::function<ProcessId(AddrId)>;

  TreecastNode(Runtime& rt, ProcessId pid, TreecastConfig config,
               Address self, Subscription subscription,
               const ViewProvider& views, Directory directory);

  void multicast(Event event);
  void set_deliver_handler(DeliverHandler handler) {
    deliver_ = std::move(handler);
  }

  const Address& address() const noexcept { return self_; }
  bool interested_in(const Event& e) const { return subscription_.match(e); }
  bool has_received(const EventId& id) const { return dedup_.received(id); }
  bool has_delivered(const EventId& id) const {
    return dedup_.delivered(id);
  }

  struct Stats {
    std::uint64_t received = 0;
    std::uint64_t delivered = 0;
    std::uint64_t forwards = 0;
    /// Duplicates discarded by the dedup table (exactly-once audit trail
    /// under the network's duplication injector).
    std::uint64_t dup_suppressed = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 protected:
  void on_message(ProcessId from, const MessagePtr& msg) override;

 private:
  /// Forwards to one delegate per interested foreign row at every depth in
  /// [start_depth, d]; the own-subtree branch is handled by continuing the
  /// loop locally.
  void forward_from(const std::shared_ptr<const Event>& event,
                    std::size_t start_depth);
  /// Delivers a first receipt, whose dedup slot is `slot`.
  void deliver_if_interested(const Event& e, EventDedup::Slot& slot);

  TreecastConfig config_;
  Address self_;
  AddrId self_id_ = kNoAddr;
  Subscription subscription_;
  const ViewProvider* views_;
  Directory directory_;
  DeliverHandler deliver_;
  EventDedup dedup_;
  Stats stats_;
};

}  // namespace pmc
