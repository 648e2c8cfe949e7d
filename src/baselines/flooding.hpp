// Gossip-based *broadcast* with filtering at delivery — the "flooding"
// alternative the paper's introduction argues against (pbcast/lpbcast
// style). Every process relays every event to F random members of the whole
// group for T(n, F) rounds; interest is only checked before handing the
// event to the application. Reliable for interested processes, but
// uninterested processes receive (almost) everything.
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

struct FloodGossipMsg final : MessageBase {
  FloodGossipMsg() noexcept : MessageBase(MsgKind::FloodGossip) {}

  std::shared_ptr<const Event> event;
  std::uint32_t round = 0;
};

struct FloodingConfig {
  std::size_t fanout = 2;
  SimTime period = sim_ms(100);
  double pittel_c = 0.0;
  EnvParams env_estimate;
};

class FloodingNode final : public Process {
 public:
  using DeliverHandler = std::function<void(const Event&)>;

  /// `peers`: the full group membership (every process knows everyone —
  /// the global-knowledge assumption gossip broadcast algorithms make).
  FloodingNode(Runtime& rt, ProcessId pid, FloodingConfig config,
               Subscription subscription,
               std::shared_ptr<const std::vector<ProcessId>> peers);

  void broadcast(Event event);
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

  FloodingConfig config_;
  Subscription subscription_;
  std::shared_ptr<const std::vector<ProcessId>> peers_;
  RoundEstimator estimator_;
  DeliverHandler deliver_;
  std::vector<Entry> buffer_;
  std::vector<ProcessId> targets_;  ///< fan-out scratch for send_multi
  EventDedup dedup_;
  Stats stats_;
};

}  // namespace pmc
