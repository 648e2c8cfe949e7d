#include "baselines/genuine.hpp"

#include "common/contract.hpp"

namespace pmc {

GenuineNode::GenuineNode(Runtime& rt, ProcessId pid, GenuineConfig config,
                         Subscription subscription, std::vector<Peer> view)
    : Process(rt, pid),
      config_(config),
      subscription_(std::move(subscription)),
      view_(std::move(view)),
      estimator_(config.pittel_c) {
  PMC_EXPECTS(config_.fanout >= 1);
  PMC_EXPECTS(config_.period > 0);
}

void GenuineNode::multicast(Event event) {
  PMC_EXPECTS(alive());
  auto ev = std::make_shared<const Event>(std::move(event));
  if (EventDedup::Slot* fresh = dedup_.insert(ev->id()))
    deliver_if_interested(*ev, *fresh);
  buffer(Entry{std::move(ev), 0});
}

void GenuineNode::on_message(ProcessId /*from*/, const MessagePtr& msg) {
  if (msg->kind != MsgKind::GenuineGossip) return;
  const auto& gossip = static_cast<const GenuineGossipMsg&>(*msg);
  EventDedup::Slot* const fresh = dedup_.insert(gossip.event->id());
  if (fresh == nullptr) {
    ++stats_.dup_suppressed;
    return;
  }
  ++stats_.received;
  deliver_if_interested(*gossip.event, *fresh);
  buffer(Entry{gossip.event, gossip.round});
}

void GenuineNode::on_period() {
  auto it = buffer_.begin();
  while (it != buffer_.end()) {
    // Interested view members only — the defining property of a genuine
    // multicast: uninterested processes are never contacted.
    std::vector<std::size_t> interested;
    for (std::size_t i = 0; i < view_.size(); ++i) {
      if (view_[i].pid != id() && view_[i].subscription.match(*it->event))
        interested.push_back(i);
    }

    // Round bound: scale the group-size hint by the locally observed
    // matching rate (the process has no global interest knowledge).
    const double local_rate =
        view_.empty() ? 0.0
                      : static_cast<double>(interested.size()) /
                            static_cast<double>(view_.size());
    const double n_est =
        static_cast<double>(config_.group_size_hint) * local_rate;
    const double bound = estimator_.faulty(
        n_est, static_cast<double>(config_.fanout), config_.env_estimate);

    if (static_cast<double>(it->round) >= bound || interested.empty()) {
      it = buffer_.erase(it);
      continue;
    }
    ++it->round;
    const std::size_t picks =
        std::min<std::size_t>(config_.fanout, interested.size());
    const auto chosen =
        rng().sample_without_replacement(interested.size(), picks);
    for (const auto ci : chosen) {
      auto m = std::make_shared<GenuineGossipMsg>();
      m->event = it->event;
      m->round = it->round;
      send(view_[interested[ci]].pid, std::move(m));
      ++stats_.gossips_sent;
    }
    ++it;
  }
  if (buffer_.empty()) disarm_periodic();
}

void GenuineNode::buffer(Entry entry) {
  buffer_.push_back(std::move(entry));
  if (!periodic_armed()) arm_periodic(config_.period);
}

void GenuineNode::deliver_if_interested(const Event& e,
                                       EventDedup::Slot& slot) {
  if (!subscription_.match(e)) return;
  slot.delivered = true;
  ++stats_.delivered;
  if (deliver_) deliver_(e);
}

}  // namespace pmc
