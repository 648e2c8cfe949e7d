#include "membership/sync.hpp"

#include <algorithm>

#include "common/contract.hpp"
#include "common/hash.hpp"
#include "membership/election.hpp"

namespace pmc {

namespace {

constexpr std::uint64_t kNeverRecompacted = ~std::uint64_t{0};

/// Label of a joiner's backoff-jitter stream (SyncConfig::join_backoff):
/// (salt, pid), so each joiner jitters independently and enabling backoff
/// never touches any other labeled stream.
constexpr std::uint64_t kJoinBackoffSalt = 0xba0cf0ff;

}  // namespace

SyncNode::SyncNode(Runtime& rt, ProcessId pid, SyncConfig config,
                   MembershipView view, Subscription subscription)
    : Process(rt, pid),
      config_(config),
      view_(std::move(view)),
      subscription_(std::move(subscription)),
      joined_(true) {
  config_.tree.validate();
  // Continue from the highest version present so local edits sort after
  // everything already in the bootstrap view (Lamport-style).
  for (std::size_t depth = 1; depth <= config_.tree.depth; ++depth) {
    const DepthView& dv = view_.view(depth);
    for (std::size_t i = 0; i < dv.size(); ++i)
      version_counter_ = std::max(version_counter_, dv.version(i));
  }
  recompact_cache_.assign(config_.tree.depth,
                          {kNeverRecompacted, kNeverRecompacted});
  arm_periodic(config_.gossip_period);
}

SyncNode::SyncNode(Runtime& rt, ProcessId pid, SyncConfig config, Address self,
                   Subscription subscription, ProcessId contact,
                   Interns& interns)
    : Process(rt, pid),
      config_(config),
      view_(std::move(self), config.tree, interns),
      subscription_(std::move(subscription)),
      join_contact_(contact) {
  recompact_cache_.assign(config_.tree.depth,
                          {kNeverRecompacted, kNeverRecompacted});
  PMC_EXPECTS(config_.join_backoff_cap >= 1);
  PMC_EXPECTS(config_.join_backoff_jitter >= 0.0 &&
              config_.join_backoff_jitter <= 1.0);
  if (config_.join_backoff)
    join_jitter_rng_ =
        rt.make_stream(fnv1a_u64(kFnv1aBasis ^ kJoinBackoffSalt, pid));
  send_join_request();
  if (config_.join_backoff) schedule_next_join_retry();
  arm_periodic(config_.gossip_period);
}

void SyncNode::send_join_request() {
  auto join = std::make_shared<JoinRequestMsg>();
  join->joiner = view_.self();
  join->joiner_pid = id();
  join->subscription = subscription_;
  send(join_contact_, std::move(join));
}

void SyncNode::schedule_next_join_retry() {
  // The k-th retry (k = budget spent) waits min(2^k, cap) gossip periods,
  // plus jitter uniform in [0, wait * jitter]: concurrent joiners hitting
  // the same revived contact (a flash crowd, scenario JoinStorm) spread out
  // instead of thundering in lockstep. Pure integer schedule; the jitter
  // draw comes from this joiner's own labeled stream.
  const std::uint32_t shift = std::min<std::uint32_t>(join_retry_budget_, 31);
  const std::uint64_t factor = std::min<std::uint64_t>(
      std::uint64_t{1} << shift, config_.join_backoff_cap);
  SimTime wait = config_.gossip_period * static_cast<SimTime>(factor);
  const SimTime span = static_cast<SimTime>(
      static_cast<double>(wait) * config_.join_backoff_jitter);
  if (span > 0)
    wait += static_cast<SimTime>(
        join_jitter_rng_.next_below(static_cast<std::uint64_t>(span) + 1));
  join_next_retry_at_ = runtime().now() + wait;
}

void SyncNode::retarget_join(ProcessId contact) {
  if (joined_) return;
  join_contact_ = contact;
  join_retry_budget_ = 0;
  send_join_request();
  if (config_.join_backoff) schedule_next_join_retry();
}

void SyncNode::leave() {
  auto msg = std::make_shared<LeaveMsg>();
  msg->leaver = view_.self();
  // Inform the immediate (leaf-depth) neighbors.
  const DepthView& leaf = view_.view(config_.tree.depth);
  for (std::size_t i = 0; i < leaf.size(); ++i) {
    if (!leaf.alive(i) || leaf.delegates(i).empty()) continue;
    const AddrId neighbor = leaf.first_delegate(i);
    if (neighbor == view_.self_id()) continue;
    send_to(neighbor, msg);
  }
  crash();  // fail-stop semantics: the process simply stops participating
}

void SyncNode::on_message(ProcessId from, const MessagePtr& msg) {
  switch (msg->kind) {
    case MsgKind::MembershipDigest:
      handle_digest(from, static_cast<const MembershipDigestMsg&>(*msg));
      break;
    case MsgKind::MembershipUpdate:
      handle_update(static_cast<const MembershipUpdateMsg&>(*msg));
      break;
    case MsgKind::JoinRequest:
      handle_join(from, static_cast<const JoinRequestMsg&>(*msg));
      break;
    case MsgKind::ViewTransfer:
      handle_view_transfer(static_cast<const ViewTransferMsg&>(*msg));
      break;
    case MsgKind::Leave:
      handle_leave(static_cast<const LeaveMsg&>(*msg));
      break;
    case MsgKind::SuspectQuery:
      handle_suspect_query(from, static_cast<const SuspectQueryMsg&>(*msg));
      break;
    case MsgKind::SuspectReply:
      handle_suspect_reply(static_cast<const SuspectReplyMsg&>(*msg));
      break;
    default:
      break;
  }
}

void SyncNode::on_period() {
  if (!joined_) {
    // Still waiting for the view transfer: the request (or its reply) may
    // have been lost to ε, or the contact may not have joined yet itself —
    // retry until an answer arrives. Duplicate requests are harmless (the
    // server's row upsert and our transfer handling are idempotent). The
    // budget bounds traffic towards a contact that died before serving us;
    // retarget_join() grants a fresh contact and budget.
    // With join_backoff the periodic tick only acts once the backed-off
    // deadline has passed; the tick cadence itself stays every period, so
    // the schedule is a filter over the legacy one (never earlier).
    if (config_.join_backoff && runtime().now() < join_next_retry_at_)
      return;
    if (config_.max_join_retries == 0 ||
        join_retry_budget_ < config_.max_join_retries) {
      send_join_request();
      ++join_retry_budget_;
      ++stats_.join_retries;
      if (config_.join_backoff) schedule_next_join_retry();
    }
    return;
  }
  recompact_own_rows();
  check_neighbor_timeouts();

  const auto& peers = known_peers();
  if (peers.empty()) return;
  auto digest = std::make_shared<MembershipDigestMsg>();
  digest->sender = as_sender();
  digest->sender_pid = id();
  digest->digests = make_digest();
  // The same digest goes to every target: resolve the whole fan-out first
  // and put it on the wire as one send_multi (shared payload, one
  // transcode, per-destination draws), instead of per-target sends.
  // digests_sent still counts *attempts*, like the per-target path did.
  digest_targets_.clear();
  const std::size_t fanout = std::min(config_.gossip_fanout, peers.size());
  const auto picks = rng().sample_without_replacement(peers.size(), fanout);
  for (const auto i : picks) {
    if (directory_) {
      const ProcessId pid = directory_(peers[i]);
      if (pid != kNoProcess) digest_targets_.push_back(pid);
    }
    ++stats_.digests_sent;
  }

  // Leaf subgroups actively ping each other (paper Sec. 6): one extra
  // digest per period to a round-robin immediate neighbor keeps the
  // last-contact table fresh and failure detection accurate.
  neighbor_scratch_.clear();
  const DepthView& leaf = view_.view(config_.tree.depth);
  for (std::size_t i = 0; i < leaf.size(); ++i) {
    if (!leaf.alive(i) || leaf.delegates(i).empty()) continue;
    const AddrId neighbor = leaf.first_delegate(i);
    if (neighbor == view_.self_id()) continue;
    neighbor_scratch_.push_back(neighbor);
  }
  if (!neighbor_scratch_.empty()) {
    const AddrId ping =
        neighbor_scratch_[ping_cursor_++ % neighbor_scratch_.size()];
    if (directory_) {
      const ProcessId pid = directory_(ping);
      if (pid != kNoProcess) digest_targets_.push_back(pid);
    }
    ++stats_.digests_sent;
  }
  if (!digest_targets_.empty()) send_multi(digest_targets_, digest);
}

void SyncNode::handle_digest(ProcessId from, const MembershipDigestMsg& m) {
  const AddrId sender = note_contact(m.sender);
  // Reply with every line where our version is strictly newer, plus lines
  // the gossiper does not know at all — restricted to depths the two of us
  // share (tables above the common prefix are about different subgroups).
  // make_digest lists lines sorted by (depth, infix) and our tables are
  // infix-sorted, so one merge walk pairs them up. A digest out of that
  // order (only a foreign encoder could send one) merely draws extra rows,
  // which the gossiper drops as stale.
  const std::size_t shared =
      addrs().common_prefix_length(view_.self_id(), sender) + 1;
  RowBatch newer(view_.interns());
  const auto& digests = m.digests;
  std::size_t cursor = 0;
  for (std::size_t depth = 1; depth <= std::min(shared, config_.tree.depth);
       ++depth) {
    const DepthView& dv = view_.view(depth);
    for (std::size_t i = 0; i < dv.size(); ++i) {
      const AddrComponent infix = dv.infix(i);
      while (cursor < digests.size() &&
             (digests[cursor].depth < depth ||
              (digests[cursor].depth == depth &&
               digests[cursor].infix < infix)))
        ++cursor;
      const bool known = cursor < digests.size() &&
                         digests[cursor].depth == depth &&
                         digests[cursor].infix == infix;
      if (!known || digests[cursor].version < dv.version(i))
        newer.push(static_cast<std::uint32_t>(depth), dv, i);
    }
  }
  // With ack_digests every digest is answered — an empty update is a pure
  // ack — so the gossiper can meter the round-trip loss (sent vs. acked).
  if (newer.empty() && !config_.ack_digests) return;
  auto reply = std::make_shared<MembershipUpdateMsg>();
  reply->sender = as_sender();
  reply->rows = std::move(newer);
  send(from, std::move(reply));
  ++stats_.updates_sent;
}

void SyncNode::handle_update(const MembershipUpdateMsg& m) {
  note_contact(m.sender);
  // Every update answers one of our digests (gossip pull), so it doubles
  // as the ack half of the loss-feedback pair (see Stats::digest_acks).
  ++stats_.digest_acks;
  absorb_rows(m.sender, m.rows);
}

void SyncNode::absorb_rows(const SenderRef& sender, const RowBatch& rows) {
  const std::size_t shared =
      sender.common_prefix_length(view_.interns(), view_.self_id()) + 1;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const std::uint32_t depth = rows.depth(k);
    if (depth < 1 || depth > config_.tree.depth) continue;
    if (depth > shared) continue;  // not our subgroup's table
    apply_row(rows, k);
  }
}

void SyncNode::handle_join(ProcessId from, const JoinRequestMsg& m) {
  (void)from;
  if (!joined_) return;
  const std::size_t shared = view_.self().common_prefix_length(m.joiner);

  // Try to route closer: a delegate of a deeper subgroup on the joiner's
  // path knows strictly more of the joiner's neighborhood than we do.
  if (shared + 1 < config_.tree.depth && m.hops < config_.max_join_hops) {
    const DepthView& dv = view_.view(shared + 1);
    const std::size_t i = dv.find_index(m.joiner.component(shared));
    if (i != DepthView::npos && dv.alive(i) && !dv.delegates(i).empty() &&
        dv.first_delegate(i) != view_.self_id()) {
      auto fwd = std::make_shared<JoinRequestMsg>(m);
      fwd->hops = m.hops + 1;
      send_to(dv.first_delegate(i), std::move(fwd));
      ++stats_.joins_forwarded;
      return;
    }
  }

  // We are (or act as) an immediate neighbor: insert the joiner and send it
  // everything we know that is valid for its address.
  const std::uint64_t version = next_version();
  const AddrId joiner = addrs().intern(m.joiner);
  view_.view(std::min(shared + 1, config_.tree.depth))
      .upsert_pooled(
          m.joiner.component(std::min(shared, config_.tree.depth - 1)),
          {&joiner, 1},
          view_.interns().summaries.intern(
              InterestSummary::from(m.subscription)),
          1, version, true);

  auto transfer = std::make_shared<ViewTransferMsg>();
  transfer->sender = as_sender();
  transfer->rows = rows_for(joiner);
  send(m.joiner_pid, std::move(transfer));
  ++stats_.joins_served;
}

void SyncNode::handle_view_transfer(const ViewTransferMsg& m) {
  note_contact(m.sender);
  for (std::size_t k = 0; k < m.rows.size(); ++k) {
    const std::uint32_t depth = m.rows.depth(k);
    if (depth < 1 || depth > config_.tree.depth) continue;
    apply_row(m.rows, k);
  }
  if (!joined_) {
    joined_ = true;
    // Make ourselves visible: our own leaf row, versioned locally.
    const std::uint64_t version = next_version();
    const AddrId self = view_.self_id();
    view_.view(config_.tree.depth)
        .upsert_pooled(view_.self().component(config_.tree.depth - 1),
                       {&self, 1},
                       view_.interns().summaries.intern(
                           InterestSummary::from(subscription_)),
                       1, version, true);
  }
}

void SyncNode::handle_leave(const LeaveMsg& m) {
  // Tombstone the leaver's leaf row; anti-entropy spreads it.
  const std::size_t shared = view_.self().common_prefix_length(m.leaver);
  const std::size_t depth = std::min(shared + 1, config_.tree.depth);
  DepthView& dv = view_.view(depth);
  const std::size_t i = dv.find_index(m.leaver.component(depth - 1));
  if (i == DepthView::npos || !dv.alive(i)) return;
  tombstone_row(dv, i);
}

bool SyncNode::apply_row(const RowBatch& rows, std::size_t k) {
  const std::uint32_t depth = rows.depth(k);
  version_counter_ = std::max(version_counter_, rows.version(k));
  // Rebut false suspicion: a live process that learns of its own tombstone
  // republishes its leaf row with a higher version.
  const auto delegates = rows.delegates(k);
  if (!rows.alive(k) && depth == config_.tree.depth && !delegates.empty() &&
      std::ranges::equal(rows.address(delegates.front()),
                         view_.self().components())) {
    ++stats_.rebuttals;
    return store_row(rows, k, next_version(), true);
  }
  // Version first: a row no newer than ours is dropped here, before its
  // handles are translated or stored.
  const DepthView& dv = view_.view(depth);
  const std::size_t current = dv.find_index(rows.infix(k));
  if (current != DepthView::npos && rows.version(k) <= dv.version(current))
    return false;
  const bool was_alive = current != DepthView::npos && dv.alive(current);
  const bool changed = store_row(rows, k, rows.version(k), rows.alive(k));
  // A known-live row absorbed as a tombstone is observed incarnation
  // churn: the raw signal behind the online crash-rate estimate.
  if (changed && was_alive && !rows.alive(k)) ++stats_.deaths_observed;
  return changed;
}

bool SyncNode::store_row(const RowBatch& rows, std::size_t k,
                         std::uint64_t version, bool alive) {
  DepthView& dv = view_.view(rows.depth(k));
  if (rows.interns() == &view_.interns())
    return dv.upsert_pooled(rows.infix(k), rows.delegates(k),
                            rows.interests_ptr(k), rows.process_count(k),
                            version, alive);
  // Decoded context-free: the ids are the batch's own, so re-intern.
  translate_scratch_.clear();
  for (const AddrId id : rows.delegates(k))
    translate_scratch_.push_back(addrs().intern(rows.address(id)));
  return dv.upsert_pooled(rows.infix(k), translate_scratch_,
                          view_.interns().summaries.intern(rows.interests(k)),
                          rows.process_count(k), version, alive);
}

RowBatch SyncNode::rows_for(AddrId other) const {
  const std::size_t shared =
      addrs().common_prefix_length(view_.self_id(), other);
  const std::size_t last = std::min(shared + 1, config_.tree.depth);
  std::size_t rows = 0, delegates = 0;
  for (std::size_t depth = 1; depth <= last; ++depth) {
    rows += view_.view(depth).size();
    delegates += view_.view(depth).delegate_total();
  }
  RowBatch out(view_.interns());
  out.reserve(rows, delegates);
  for (std::size_t depth = 1; depth <= last; ++depth) {
    const DepthView& dv = view_.view(depth);
    for (std::size_t i = 0; i < dv.size(); ++i)
      out.push(static_cast<std::uint32_t>(depth), dv, i);
  }
  return out;
}

std::vector<RowDigest> SyncNode::make_digest() const {
  std::size_t rows = 0;
  for (std::size_t depth = 1; depth <= config_.tree.depth; ++depth)
    rows += view_.view(depth).size();
  std::vector<RowDigest> out;
  out.reserve(rows);
  for (std::size_t depth = 1; depth <= config_.tree.depth; ++depth) {
    const DepthView& dv = view_.view(depth);
    for (std::size_t i = 0; i < dv.size(); ++i)
      out.push_back(RowDigest{static_cast<std::uint32_t>(depth), dv.infix(i),
                              dv.version(i)});
  }
  return out;
}

void SyncNode::recompact_own_rows() {
  // From the leaf upward: the row describing our subgroup of depth i (in the
  // depth-i table) is compacted from our depth-(i+1) table (paper Sec. 2.3).
  // Only delegates publish these rows; everyone else just consumes them.
  if (config_.tree.depth < 2) return;
  for (std::size_t depth = config_.tree.depth - 1; depth >= 1; --depth) {
    const DepthView& deeper = view_.view(depth + 1);
    DepthView& own = view_.view(depth);
    // The compaction is a pure function of (deeper table, own table): while
    // neither mutated since the pass that established the cache, re-running
    // it would conclude "nothing changed" — skip it outright.
    auto& cache = recompact_cache_[depth - 1];
    if (cache.first == deeper.mutations() && cache.second == own.mutations())
      continue;
    if (deeper.empty()) {
      cache = {deeper.mutations(), own.mutations()};
      continue;
    }

    InterestSummary summary;
    candidate_scratch_.clear();
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < deeper.size(); ++i) {
      if (!deeper.alive(i)) continue;
      summary.merge(deeper.interests(i));
      const auto ids = deeper.delegates(i);
      candidate_scratch_.insert(candidate_scratch_.end(), ids.begin(),
                                ids.end());
      count += deeper.process_count(i);
    }
    if (count == 0) {
      cache = {deeper.mutations(), own.mutations()};
      continue;
    }
    elect_delegate_ids(candidate_scratch_, config_.tree.redundancy, addrs(),
                       delegate_scratch_);

    // Publish only if we are one of the delegates of our own subgroup.
    if (std::find(delegate_scratch_.begin(), delegate_scratch_.end(),
                  view_.self_id()) == delegate_scratch_.end()) {
      cache = {deeper.mutations(), own.mutations()};
      continue;
    }

    const AddrComponent own_infix = view_.self().component(depth - 1);
    const std::size_t current = own.find_index(own_infix);
    if (current != DepthView::npos && own.alive(current) &&
        std::ranges::equal(own.delegates(current), delegate_scratch_) &&
        own.process_count(current) == count &&
        own.interests(current) == summary) {
      cache = {deeper.mutations(), own.mutations()};
      continue;  // nothing changed
    }

    own.upsert_pooled(own_infix, delegate_scratch_,
                      view_.interns().summaries.intern(std::move(summary)),
                      count, next_version(), true);
    cache = {deeper.mutations(), own.mutations()};
  }
}

void SyncNode::check_neighbor_timeouts() {
  const SimTime now = runtime().now();
  DepthView& leaf = view_.view(config_.tree.depth);
  suspect_scratch_.clear();
  for (std::size_t i = 0; i < leaf.size(); ++i) {
    if (!leaf.alive(i) || leaf.delegates(i).empty()) continue;
    const AddrId neighbor = leaf.first_delegate(i);
    if (neighbor == view_.self_id()) continue;
    const auto it = last_contact_.find(neighbor);
    SimTime last = it == last_contact_.end() ? SimTime{0} : it->second;
    const auto grace = grace_until_.find(neighbor);
    if (grace != grace_until_.end()) last = std::max(last, grace->second);
    if (now - last <= config_.suspicion_timeout) continue;
    if (it == last_contact_.end() && now <= config_.suspicion_timeout)
      continue;  // grace period right after startup
    suspect_scratch_.push_back(neighbor);
  }

  for (const AddrId suspect : suspect_scratch_) {
    const auto tombstone_suspect = [&] {
      const std::size_t i = leaf.find_index(
          addrs().component(suspect, config_.tree.depth - 1));
      if (i != DepthView::npos && leaf.alive(i)) tombstone_row(leaf, i);
    };
    if (!config_.confirm_suspicion) {
      tombstone_suspect();
      continue;
    }
    // Agreement-before-exclusion: ask one other live neighbor first.
    const auto pending = pending_suspicions_.find(suspect);
    if (pending != pending_suspicions_.end()) {
      // No confirmation arrived for a whole timeout: the confirmer may be
      // gone too; fall back to unilateral exclusion.
      if (now - pending->second > config_.suspicion_timeout) {
        pending_suspicions_.erase(pending);
        tombstone_suspect();
      }
      continue;
    }
    AddrId confirmer = kNoAddr;
    for (std::size_t i = 0; i < leaf.size(); ++i) {
      if (!leaf.alive(i) || leaf.delegates(i).empty()) continue;
      const AddrId candidate = leaf.first_delegate(i);
      if (candidate == view_.self_id() || candidate == suspect) continue;
      confirmer = candidate;
      break;
    }
    if (confirmer == kNoAddr) {
      tombstone_suspect();  // nobody to ask
      continue;
    }
    auto query = std::make_shared<SuspectQueryMsg>();
    query->sender = as_sender();
    query->suspect = addrs().resolve(suspect);
    send_to(confirmer, std::move(query));
    pending_suspicions_.insert_or_assign(suspect, now);
  }
}

void SyncNode::handle_suspect_query(ProcessId from,
                                    const SuspectQueryMsg& m) {
  note_contact(m.sender);
  const AddrId suspect = addrs().intern(m.suspect);
  const auto it = last_contact_.find(suspect);
  const bool heard =
      it != last_contact_.end() &&
      runtime().now() - it->second <= config_.suspicion_timeout;
  auto reply = std::make_shared<SuspectReplyMsg>();
  reply->sender = as_sender();
  reply->suspect = m.suspect;
  reply->heard_recently = heard;
  send(from, std::move(reply));
}

void SyncNode::handle_suspect_reply(const SuspectReplyMsg& m) {
  note_contact(m.sender);
  const AddrId suspect = addrs().intern(m.suspect);
  const auto it = pending_suspicions_.find(suspect);
  if (it == pending_suspicions_.end()) return;  // stale reply
  pending_suspicions_.erase(it);
  if (m.heard_recently) {
    // The suspect is alive elsewhere: extend our deadline — but only as a
    // grace note, never as direct contact (see grace_until_ comment).
    grace_until_.insert_or_assign(suspect, runtime().now());
  } else {
    DepthView& leaf = view_.view(config_.tree.depth);
    const std::size_t i = leaf.find_index(
        addrs().component(suspect, config_.tree.depth - 1));
    if (i != DepthView::npos && leaf.alive(i)) tombstone_row(leaf, i);
  }
}

void SyncNode::tombstone_row(DepthView& leaf, std::size_t i) {
  const std::uint64_t v = std::max(next_version(), leaf.version(i) + 1);
  version_counter_ = std::max(version_counter_, v);
  leaf.upsert_pooled(leaf.infix(i), leaf.delegates(i), leaf.interests_ptr(i),
                     leaf.process_count(i), v, false);
  ++stats_.tombstones;
  ++stats_.deaths_observed;
}

AddrId SyncNode::note_contact(const SenderRef& sender) {
  const AddrId id = sender.id_in(view_.interns());
  last_contact_.insert_or_assign(id, runtime().now());
  return id;
}

const std::vector<AddrId>& SyncNode::known_peers() const {
  peer_scratch_.clear();
  for (std::size_t depth = 1; depth <= config_.tree.depth; ++depth) {
    const DepthView& dv = view_.view(depth);
    for (std::size_t i = 0; i < dv.size(); ++i) {
      if (!dv.alive(i)) continue;
      for (const AddrId d : dv.delegates(i)) {
        if (d == view_.self_id()) continue;
        if (std::find(peer_scratch_.begin(), peer_scratch_.end(), d) ==
            peer_scratch_.end())
          peer_scratch_.push_back(d);
      }
    }
  }
  return peer_scratch_;
}

void SyncNode::send_to(AddrId a, MessagePtr msg) {
  if (!directory_) return;
  const ProcessId pid = directory_(a);
  if (pid == kNoProcess) return;
  send(pid, std::move(msg));
}

}  // namespace pmc
