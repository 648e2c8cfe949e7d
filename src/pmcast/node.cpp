#include "pmcast/node.hpp"

#include <algorithm>

#include "common/contract.hpp"

namespace pmc {

PmcastNode::PmcastNode(Runtime& rt, ProcessId pid, PmcastConfig config,
                       Address self, Subscription subscription,
                       const ViewProvider& views, Directory directory)
    : Process(rt, pid),
      config_(config),
      self_(std::move(self)),
      subscription_(std::move(subscription)),
      views_(&views),
      directory_(std::move(directory)),
      estimator_(config.pittel_c) {
  config_.validate();
  PMC_EXPECTS(self_.depth() == config_.tree.depth);
  PMC_EXPECTS(directory_ != nullptr);
  self_id_ = views.interns().addrs.intern(self_);
  gossips_.resize(config_.tree.depth);
}

void PmcastNode::pmcast(Event event) {
  PMC_EXPECTS(alive());
  auto ev = std::make_shared<const Event>(std::move(event));
  ++stats_.published;
  if (EventDedup::Slot* fresh = dedup_.insert(ev->id()))
    deliver_if_interested(*ev, *fresh);

  // Sec. 3.2: start at the root, but skip depths where the interest is
  // confined to our own subtree — the event is of "local" interest there.
  std::size_t depth = 1;
  if (config_.local_interest_shortcut) {
    while (depth < config_.tree.depth) {
      const DepthView& view = views_->view(self_, depth);
      const AddrComponent own_infix = self_.component(depth - 1);
      bool foreign_interest = false;
      for (std::size_t i = 0; i < view.size(); ++i) {
        if (!view.alive(i) || view.infix(i) == own_infix) continue;
        if (view.interests(i).match(*ev)) {
          foreign_interest = true;
          break;
        }
      }
      if (foreign_interest) break;
      ++depth;
    }
  }

  RowMatch match;
  const double rate = rate_at(depth, *ev, match);
  buffer_event(depth, Entry{std::move(ev), rate, 0, std::move(match)});
}

void PmcastNode::on_message(ProcessId from, const MessagePtr& msg) {
  switch (msg->kind) {
    case MsgKind::EventDigest:
      handle_digest(from, static_cast<const EventDigestMsg&>(*msg));
      return;
    case MsgKind::EventRequest:
      handle_request(from, static_cast<const EventRequestMsg&>(*msg));
      return;
    case MsgKind::EventPayload:
      handle_payload(static_cast<const EventPayloadMsg&>(*msg));
      return;
    case MsgKind::Gossip:
      break;
    default:
      return;
  }
  const auto& gossip = static_cast<const GossipMsg&>(*msg);
  PMC_EXPECTS(gossip.event != nullptr);
  PMC_EXPECTS(gossip.depth >= 1 && gossip.depth <= config_.tree.depth);

  if (piggyback_sink_ && gossip.piggyback != nullptr &&
      !gossip.piggyback->empty())
    piggyback_sink_(gossip.sender, *gossip.piggyback);

  // Fig. 3 lines 20-23 (with whole-lifetime dedup, see header).
  EventDedup::Slot* const fresh = dedup_.insert(gossip.event->id());
  if (fresh == nullptr) {
    ++stats_.dup_suppressed;
    return;
  }
  ++stats_.received;
  if (gossip.no_regossip) {
    // Leaf flood (Sec. 6): the sender already addressed every interested
    // neighbor, so there is nothing left to gossip — deliver, and keep the
    // payload only for the optional digest-recovery phase.
    deliver_if_interested(*gossip.event, *fresh);
    retain_for_recovery(gossip.event);
    if (!store_.empty() && !periodic_armed()) arm_periodic(config_.period);
    return;
  }
  buffer_event(gossip.depth,
               Entry{gossip.event, gossip.rate, gossip.round, {}});
  deliver_if_interested(*gossip.event, *fresh);
}

void PmcastNode::on_period() {
  Snapshots snapshots;  // this period's piggyback rows, per prefix level
  for (std::size_t depth = 1; depth <= config_.tree.depth; ++depth)
    gossip_entries_at(depth, snapshots);
  run_recovery_round();
  if (buffers_empty() && store_.empty()) disarm_periodic();
}

void PmcastNode::gossip_entries_at(std::size_t depth, Snapshots& snapshots) {
  auto& entries = gossips_[depth - 1];
  if (entries.empty()) return;

  // Re-evaluated every period and depth: with an adaptive env source the
  // Eq. 11 bound follows the live ε/τ estimate instead of the frozen prior.
  const EnvParams env = live_env();
  const DepthView& view = views_->view(self_, depth);
  std::vector<Entry> promoted;
  auto it = entries.begin();
  while (it != entries.end()) {
    Entry& entry = *it;
    double local_rate = 0.0;  // recomputed, used only by the candidate list
    candidates_at(view, *entry.event, entry.match, gossip_scratch_,
                  local_rate);
    const auto& candidates = gossip_scratch_;

    // Sec. 6 mechanism: dense interest at the leaf depth — flood the
    // subgroup once instead of running probabilistic rounds.
    if (depth == config_.tree.depth && entry.round == 0 &&
        entry.rate >= config_.leaf_flood_density) {
      target_scratch_.clear();
      for (const Candidate& cand : candidates) {
        if (!cand.interested) continue;
        const ProcessId target = directory_(cand.id);
        if (target == kNoProcess) continue;
        target_scratch_.push_back(target);
      }
      if (!target_scratch_.empty()) {
        auto msg = make_gossip(entry, depth, nullptr);
        // The flood already addressed everyone interested: tell receivers
        // explicitly not to re-gossip (the flag, not a sentinel round, so
        // round arithmetic never meets an out-of-band value).
        msg->no_regossip = true;
        // One payload, one transcode, per-destination draws — the whole
        // flood goes out as a single fan-out.
        send_multi(target_scratch_, msg);
        stats_.gossips_sent += target_scratch_.size();
      }
      ++stats_.leaf_floods;
      retain_for_recovery(std::move(entry.event));
      it = entries.erase(it);
      continue;
    }
    // Fig. 3 line 7: the round bound uses the rate propagated with the
    // event, so every process of the subgroup applies the same bound.
    //
    // Discount semantics (Eq. 11 / Fig. 3 line 7 audit): Pittel's T(n, F)
    // is applied to the *interested* sub-population, so both arguments are
    // scaled by the matching rate first — n = |view| * rate is GETRATE's
    // audience, and F * rate is the expected number of the F drawn targets
    // that are interested (Fig. 3 lines 10-14 draw from the whole view and
    // filter, so the effective fanout towards the audience is F * rate).
    // faulty() then applies Eq. 11's environment discount on top,
    // multiplying both by (1-ε)(1-τ): Tf(n, F) = T(n(1-ε)(1-τ),
    // F(1-ε)(1-τ)). The two discounts are deliberate and multiplicative;
    // tests/rounds_test.cpp locks the composition against hand-computed
    // paper values.
    const double interested =
        static_cast<double>(candidates.size()) * entry.rate;
    const double bound = estimator_.faulty(
        interested, static_cast<double>(config_.fanout) * entry.rate, env);

    if (static_cast<double>(entry.round) < bound) {
      // Fig. 3 lines 8-14: one more round at this depth.
      ++entry.round;
      ++stats_.rounds_run;
      const std::size_t picks =
          std::min<std::size_t>(config_.fanout, candidates.size());
      const auto chosen =
          rng().sample_without_replacement(candidates.size(), picks);
      // Targets that get the same piggyback snapshot (all of them without
      // piggybacking) get the same message: each run of consecutive such
      // targets goes out as one send_multi, which draws exactly like one
      // send per target in the same order.
      const std::shared_ptr<const RowBatch>* run_rows = nullptr;
      const auto flush = [&] {
        if (target_scratch_.empty()) return;
        send_multi(target_scratch_, make_gossip(entry, depth, *run_rows));
        stats_.gossips_sent += target_scratch_.size();
        target_scratch_.clear();
      };
      target_scratch_.clear();
      for (const auto ci : chosen) {
        const Candidate& cand = candidates[ci];
        if (!cand.interested) continue;  // line 13: filter before sending
        const ProcessId target = directory_(cand.id);
        if (target == kNoProcess) continue;
        const auto& rows = piggyback_for(cand.id, snapshots);
        if (run_rows != nullptr && run_rows->get() != rows.get()) flush();
        run_rows = &rows;
        target_scratch_.push_back(target);
      }
      flush();
      ++it;
    } else {
      // Fig. 3 lines 15-18: retire here, promote to the next depth.
      // Retiring after zero rounds with an interested audience means the
      // discounted bound collapsed (see RoundEstimator::faulty) — count
      // it, since the event just skipped this depth entirely.
      if (entry.round == 0 && interested > 0.0) ++stats_.bound_collapsed;
      if (depth < config_.tree.depth) {
        auto ev = std::move(entry.event);
        RowMatch match;
        const double next_rate = rate_at(depth + 1, *ev, match);
        promoted.push_back(
            Entry{std::move(ev), next_rate, 0, std::move(match)});
      } else {
        retain_for_recovery(std::move(entry.event));
      }
      it = entries.erase(it);
    }
  }
  for (auto& entry : promoted) buffer_event(depth + 1, std::move(entry));
}

const std::shared_ptr<const RowBatch>& PmcastNode::piggyback_for(
    AddrId target, Snapshots& snapshots) {
  static const std::shared_ptr<const RowBatch> kNoRows;
  if (!piggyback_source_) return kNoRows;
  // The rows depend on the target only through its prefix level (see
  // PiggybackSource), so one snapshot serves the level for the period.
  const std::size_t level =
      std::min(views_->interns().addrs.common_prefix_length(self_id_, target),
               config_.tree.depth - 1);
  if (snapshots.empty()) snapshots.resize(config_.tree.depth);
  auto& slot = snapshots[level];
  if (!slot) {
    auto rows = piggyback_source_(target);
    if (rows != nullptr && rows->empty()) rows = nullptr;
    slot = std::move(rows);
  }
  return *slot;
}

std::shared_ptr<GossipMsg> PmcastNode::make_gossip(
    const Entry& entry, std::size_t depth,
    std::shared_ptr<const RowBatch> rows) const {
  auto msg = std::make_shared<GossipMsg>();
  msg->event = entry.event;
  msg->rate = entry.rate;
  msg->round = entry.round;
  msg->depth = static_cast<std::uint32_t>(depth);
  if (rows != nullptr) {
    msg->sender = SenderRef(views_->interns(), self_id_);
    msg->piggyback = std::move(rows);
  }
  return msg;
}

std::size_t tuning_start_index(const EventId& id, std::size_t n) {
  return n == 0 ? 0 : EventIdHash{}(id) % n;
}

void PmcastNode::candidates_at(const DepthView& view, const Event& e,
                               RowMatch& match, std::vector<Candidate>& out,
                               double& rate_out) const {
  // The stamp compares the view's address for equality only.
  if (match.view != &view || match.mutations != view.mutations()) {
    match.view = &view;
    match.mutations = view.mutations();
    match.bits.assign((view.size() + 63) / 64, 0);
    for (std::size_t i = 0; i < view.size(); ++i) {
      if (view.alive(i) && view.interests(i).match(e))
        match.bits[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }

  out.clear();
  std::size_t interested = 0;
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (!view.alive(i)) continue;
    const bool row_interested = (match.bits[i / 64] >> (i % 64)) & 1;
    for (const AddrId id : view.delegates(i)) {
      if (id == self_id_) continue;
      out.push_back(Candidate{id, row_interested});
      if (row_interested) ++interested;
    }
  }

  // Sec. 5.3 tuning: too small an audience starves Pittel's estimate, so
  // pad the interested set up to h members. The padding walks the view
  // circularly from an event-derived start index — deterministic (every
  // process promotes the same members) but unbiased across events, unlike
  // always promoting the first h rows.
  if (config_.tuning_threshold > 0 && interested < config_.tuning_threshold) {
    const std::size_t start = tuning_start_index(e.id(), out.size());
    for (std::size_t step = 0;
         step < out.size() && interested < config_.tuning_threshold; ++step) {
      Candidate& cand = out[(start + step) % out.size()];
      if (cand.interested) continue;
      cand.interested = true;
      ++interested;
    }
  }

  rate_out = out.empty()
                 ? 0.0
                 : static_cast<double>(interested) /
                       static_cast<double>(out.size());
}

double PmcastNode::rate_at(std::size_t depth, const Event& e,
                           RowMatch& match) const {
  double rate = 0.0;
  candidates_at(views_->view(self_, depth), e, match, rate_scratch_, rate);
  return rate;
}

void PmcastNode::buffer_event(std::size_t depth, Entry entry) {
  PMC_EXPECTS(depth >= 1 && depth <= config_.tree.depth);
  if (config_.max_buffered > 0 && buffered_total() >= config_.max_buffered) {
    // Degradation cap: the event was already delivered locally if
    // interested; only its re-gossip duty is shed.
    ++stats_.shed_events;
    return;
  }
  gossips_[depth - 1].push_back(std::move(entry));
  if (!periodic_armed()) arm_periodic(config_.period);
}

void PmcastNode::deliver_if_interested(const Event& e,
                                       EventDedup::Slot& slot) {
  if (!subscription_.match(e)) return;
  slot.delivered = true;
  ++stats_.delivered;
  if (deliver_) deliver_(e);
}

bool PmcastNode::buffers_empty() const noexcept {
  return std::all_of(gossips_.begin(), gossips_.end(),
                     [](const auto& v) { return v.empty(); });
}

std::size_t PmcastNode::buffered_total() const noexcept {
  std::size_t n = 0;
  for (const auto& v : gossips_) n += v.size();
  return n;
}

void PmcastNode::retain_for_recovery(std::shared_ptr<const Event> event) {
  if (config_.recovery_rounds == 0 || event == nullptr) return;
  const EventId id = event->id();  // before the move: evaluation order of
                                   // the subscript and the move is unspecified
  store_[id] = Retained{std::move(event), config_.recovery_rounds};
  if (config_.max_retained > 0 && store_.size() > config_.max_retained) {
    // Deterministic shedding: FlatMap is EventId-ordered, so every replica
    // evicts the same victim (the smallest id — oldest publishers first).
    store_.erase(store_.begin());
    ++stats_.shed_events;
  }
}

void PmcastNode::run_recovery_round() {
  if (store_.empty()) return;
  const DepthView& leaf = views_->view(self_, config_.tree.depth);

  // Per leaf neighbor, the ids of retained events its interests match.
  std::vector<std::pair<AddrId, std::vector<EventId>>> digests;
  for (std::size_t i = 0; i < leaf.size(); ++i) {
    if (!leaf.alive(i) || leaf.delegates(i).empty()) continue;
    const AddrId neighbor = leaf.first_delegate(i);
    if (neighbor == self_id_) continue;
    std::vector<EventId> ids;
    for (const auto& [id, retained] : store_) {
      if (leaf.interests(i).match(*retained.event)) ids.push_back(id);
    }
    if (!ids.empty()) digests.emplace_back(neighbor, std::move(ids));
  }

  // Digest fanout F among the neighbors with matching retained events.
  const std::size_t picks =
      std::min<std::size_t>(config_.fanout, digests.size());
  if (picks > 0) {
    const auto chosen = rng().sample_without_replacement(digests.size(), picks);
    for (const auto ci : chosen) {
      const ProcessId target = directory_(digests[ci].first);
      if (target == kNoProcess) continue;
      auto msg = std::make_shared<EventDigestMsg>();
      msg->ids = std::move(digests[ci].second);
      send(target, std::move(msg));
      ++stats_.digests_sent;
    }
  }

  for (auto it = store_.begin(); it != store_.end();) {
    if (--it->second.rounds_left == 0)
      it = store_.erase(it);
    else
      ++it;
  }
}

void PmcastNode::handle_digest(ProcessId from, const EventDigestMsg& m) {
  if (config_.recovery_rounds == 0) return;
  std::vector<EventId> missing;
  for (const auto& id : m.ids) {
    if (!dedup_.received(id)) missing.push_back(id);
  }
  if (missing.empty()) return;
  auto request = std::make_shared<EventRequestMsg>();
  request->ids = std::move(missing);
  send(from, std::move(request));
}

void PmcastNode::handle_request(ProcessId from, const EventRequestMsg& m) {
  auto payload = std::make_shared<EventPayloadMsg>();
  for (const auto& id : m.ids) {
    const auto it = store_.find(id);
    if (it != store_.end()) payload->events.push_back(it->second.event);
  }
  if (!payload->events.empty()) send(from, std::move(payload));
}

void PmcastNode::handle_payload(const EventPayloadMsg& m) {
  for (const auto& event : m.events) {
    if (event == nullptr) continue;
    EventDedup::Slot* const fresh = dedup_.insert(event->id());
    if (fresh == nullptr) {
      ++stats_.dup_suppressed;
      continue;
    }
    ++stats_.received;
    ++stats_.recoveries;
    deliver_if_interested(*event, *fresh);
    // Retain the recovered payload so it can serve further requests, and
    // keep the periodic task alive for the digest rounds.
    retain_for_recovery(event);
    if (!periodic_armed() && alive()) arm_periodic(config_.period);
  }
}

}  // namespace pmc
