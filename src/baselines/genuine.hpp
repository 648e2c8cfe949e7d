// "Genuine" gossip multicast — filter *before* gossiping (the second
// alternative of the paper's introduction). Every process holds a partial
// random view of the group (lpbcast-style membership) annotated with the
// members' subscriptions, and forwards an event only to interested view
// members. Only concerned processes carry the load, but interested
// processes can be isolated whenever no gossip path of interested processes
// connects them — exactly the reliability limitation the paper points out,
// most visible at small matching rates.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "analysis/rounds.hpp"
#include "event/dedup.hpp"
#include "event/event.hpp"
#include "filter/subscription.hpp"
#include "sim/runtime.hpp"

namespace pmc {

struct GenuineGossipMsg final : MessageBase {
  GenuineGossipMsg() noexcept : MessageBase(MsgKind::GenuineGossip) {}

  std::shared_ptr<const Event> event;
  std::uint32_t round = 0;
};

struct GenuineConfig {
  std::size_t fanout = 2;
  SimTime period = sim_ms(100);
  double pittel_c = 0.0;
  EnvParams env_estimate;
  /// Group size estimate used for the round bound (processes do not know
  /// the interested population; they scale n by the local matching rate).
  std::size_t group_size_hint = 0;
};

class GenuineNode final : public Process {
 public:
  using DeliverHandler = std::function<void(const Event&)>;

  struct Peer {
    ProcessId pid = kNoProcess;
    Subscription subscription;  // known interests of the view member
  };

  /// `view`: this process's partial view (ids + known subscriptions).
  GenuineNode(Runtime& rt, ProcessId pid, GenuineConfig config,
              Subscription subscription, std::vector<Peer> view);

  void multicast(Event event);
  void set_deliver_handler(DeliverHandler handler) {
    deliver_ = std::move(handler);
  }

  bool interested_in(const Event& e) const { return subscription_.match(e); }
  bool has_received(const EventId& id) const { return dedup_.received(id); }
  bool has_delivered(const EventId& id) const {
    return dedup_.delivered(id);
  }

  struct Stats {
    std::uint64_t received = 0;
    std::uint64_t delivered = 0;
    std::uint64_t gossips_sent = 0;
    /// Duplicates discarded by the dedup table (exactly-once audit trail
    /// under the network's duplication injector).
    std::uint64_t dup_suppressed = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 protected:
  void on_message(ProcessId from, const MessagePtr& msg) override;
  void on_period() override;

 private:
  struct Entry {
    std::shared_ptr<const Event> event;
    std::uint32_t round = 0;
  };

  void buffer(Entry entry);
  /// Delivers a first receipt, whose dedup slot is `slot`.
  void deliver_if_interested(const Event& e, EventDedup::Slot& slot);

  GenuineConfig config_;
  Subscription subscription_;
  std::vector<Peer> view_;
  RoundEstimator estimator_;
  DeliverHandler deliver_;
  std::vector<Entry> buffer_;
  EventDedup dedup_;
  Stats stats_;
};

}  // namespace pmc
