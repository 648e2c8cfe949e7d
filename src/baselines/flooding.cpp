#include "baselines/flooding.hpp"

#include "common/contract.hpp"

namespace pmc {

FloodingNode::FloodingNode(Runtime& rt, ProcessId pid, FloodingConfig config,
                           Subscription subscription,
                           std::shared_ptr<const std::vector<ProcessId>> peers)
    : Process(rt, pid),
      config_(config),
      subscription_(std::move(subscription)),
      peers_(std::move(peers)),
      estimator_(config.pittel_c) {
  PMC_EXPECTS(peers_ != nullptr);
  PMC_EXPECTS(config_.fanout >= 1);
  PMC_EXPECTS(config_.period > 0);
}

void FloodingNode::broadcast(Event event) {
  PMC_EXPECTS(alive());
  auto ev = std::make_shared<const Event>(std::move(event));
  if (EventDedup::Slot* fresh = dedup_.insert(ev->id()))
    deliver_if_interested(*ev, *fresh);
  buffer(Entry{std::move(ev), 0});
}

void FloodingNode::on_message(ProcessId /*from*/, const MessagePtr& msg) {
  if (msg->kind != MsgKind::FloodGossip) return;
  const auto& gossip = static_cast<const FloodGossipMsg&>(*msg);
  EventDedup::Slot* const fresh = dedup_.insert(gossip.event->id());
  if (fresh == nullptr) {
    ++stats_.dup_suppressed;
    return;
  }
  ++stats_.received;
  deliver_if_interested(*gossip.event, *fresh);
  buffer(Entry{gossip.event, gossip.round});
}

void FloodingNode::on_period() {
  const double bound = estimator_.faulty(
      static_cast<double>(peers_->size()),
      static_cast<double>(config_.fanout), config_.env_estimate);
  auto it = buffer_.begin();
  while (it != buffer_.end()) {
    if (static_cast<double>(it->round) >= bound) {
      it = buffer_.erase(it);
      continue;
    }
    ++it->round;
    const std::size_t picks =
        std::min<std::size_t>(config_.fanout, peers_->size());
    const auto chosen =
        rng().sample_without_replacement(peers_->size(), picks);
    targets_.clear();
    for (const auto ci : chosen) {
      const ProcessId target = (*peers_)[ci];
      if (target == id()) continue;
      targets_.push_back(target);
    }
    if (!targets_.empty()) {
      // The F copies are identical: one shared payload, one fan-out.
      auto m = std::make_shared<FloodGossipMsg>();
      m->event = it->event;
      m->round = it->round;
      send_multi(targets_, m);
      stats_.gossips_sent += targets_.size();
    }
    ++it;
  }
  if (buffer_.empty()) disarm_periodic();
}

void FloodingNode::buffer(Entry entry) {
  buffer_.push_back(std::move(entry));
  if (!periodic_armed()) arm_periodic(config_.period);
}

void FloodingNode::deliver_if_interested(const Event& e,
                                        EventDedup::Slot& slot) {
  if (!subscription_.match(e)) return;
  slot.delivered = true;
  ++stats_.delivered;
  if (deliver_) deliver_(e);
}

}  // namespace pmc
