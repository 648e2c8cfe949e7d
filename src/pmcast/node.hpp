// The pmcast dissemination node — paper Fig. 3.
//
// A node buffers each known event per depth as (event, rate, round). Every
// period P it walks the buffers depth by depth:
//   * while round < T(interested, F*rate) it draws F random members of its
//     depth view and gossips the event to those that are interested
//     (delegates whose subgroup's regrouped interests match);
//   * once the rounds at a depth are exhausted the entry moves to the next
//     depth with a freshly computed matching rate (GETRATE), until it falls
//     off depth d — the paper's "passive garbage collection".
// Receivers deliver the event iff their own subscription matches.
//
// Deviations from the paper's pseudocode, argued in DESIGN.md §2:
//   * PMCAST inserts at depth 1 (the root), per the paper's prose;
//   * the leaf-depth view size is not multiplied by R;
//   * a per-node EventDedup table remembers every event id across the
//     node's whole lifetime (Fig. 3 line 20 only checks the live buffers):
//     a duplicate is dropped before it is re-buffered, and HPDELIVER fires
//     at most once per event;
//   * a node never gossips to itself.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/flat_map.hpp"
#include "event/dedup.hpp"
#include "event/event.hpp"
#include "filter/subscription.hpp"
#include "pmcast/config.hpp"
#include "pmcast/view_provider.hpp"
#include "sim/runtime.hpp"

namespace pmc {

/// The gossip wire message (Fig. 3's SEND(event, rate, round, depth)).
/// `piggyback` optionally carries membership rows (Sec. 2.3) together with
/// the sender, by handle, so the receiver can scope them.
///
/// The rows are a shared, immutable snapshot: the sending node builds one
/// per gossip period and prefix level (see PmcastNode::PiggybackSource)
/// and every message of that period to a target of that level points at
/// the same batch. Nothing may modify it after it is attached. The sending
/// node drops its reference when the period ends, so a snapshot lives only
/// as long as some message in flight (or a receiver) still holds it.
struct GossipMsg final : MessageBase {
  GossipMsg() noexcept : MessageBase(MsgKind::Gossip) {}

  std::shared_ptr<const Event> event;
  double rate = 0.0;
  std::uint32_t round = 0;
  std::uint32_t depth = 0;
  /// The sender has already addressed every interested member (Sec. 6 leaf
  /// flood): the receiver delivers (and may retain for recovery) but never
  /// re-buffers the event for gossip. An explicit flag — the exhausted
  /// state used to be smuggled as round = uint32::max, which an adaptive
  /// round bound must never see in live arithmetic.
  bool no_regossip = false;
  SenderRef sender;  ///< set when piggyback is set
  /// Null when no rows ride along; otherwise a non-empty snapshot.
  std::shared_ptr<const RowBatch> piggyback;
};

/// Recovery digests (optional, PmcastConfig::recovery_rounds): ids of
/// retained events the sender believes the target is interested in.
struct EventDigestMsg final : MessageBase {
  EventDigestMsg() noexcept : MessageBase(MsgKind::EventDigest) {}

  std::vector<EventId> ids;
};

/// Request for retransmission of events missing at the requester.
struct EventRequestMsg final : MessageBase {
  EventRequestMsg() noexcept : MessageBase(MsgKind::EventRequest) {}

  std::vector<EventId> ids;
};

/// Retransmitted payloads answering an EventRequestMsg.
struct EventPayloadMsg final : MessageBase {
  EventPayloadMsg() noexcept : MessageBase(MsgKind::EventPayload) {}

  std::vector<std::shared_ptr<const Event>> events;
};

/// Deterministic, event-derived start index for the Sec. 5.3 tuning padding:
/// when fewer than h view members are interested, members starting at this
/// index are promoted. Every process computes the same index from the event
/// id alone (so a subgroup pads consistently without agreement), but the
/// index varies across events, so the padding does not systematically favor
/// the low-index view rows.
std::size_t tuning_start_index(const EventId& id, std::size_t n);

class PmcastNode final : public Process {
 public:
  using DeliverHandler = std::function<void(const Event&)>;
  /// Resolves an interned known-process address to its simulation
  /// ProcessId (the ids live in the ViewProvider's intern table).
  using Directory = std::function<ProcessId(AddrId)>;

  PmcastNode(Runtime& rt, ProcessId pid, PmcastConfig config, Address self,
             Subscription subscription, const ViewProvider& views,
             Directory directory);

  /// Multicasts an event (Fig. 3's PMCAST). The originator participates at
  /// every depth starting from the root; if it is itself interested, the
  /// event is delivered locally.
  void pmcast(Event event);

  /// HPDELIVER callback; invoked at most once per event.
  void set_deliver_handler(DeliverHandler handler) {
    deliver_ = std::move(handler);
  }

  /// Membership piggybacking (paper Sec. 2.3): when both hooks are set,
  /// every outgoing gossip carries source(target) rows and every incoming
  /// gossip's rows are handed to sink(sender, rows) — typically wired to
  /// SyncNode::rows_to_share / SyncNode::absorb_rows, so membership spreads
  /// with events instead of (only) dedicated gossips.
  ///
  /// Snapshot contract: the rows for a target may depend on the target
  /// only through its prefix level, the common-prefix length of self and
  /// target (capped at d-1), as SyncNode::rows_for does. Within one
  /// on_period the node calls the source at most once per level, on the
  /// first target of that level, and attaches that same snapshot to every
  /// gossip of the period for a target of that level; consecutive targets
  /// that share a snapshot go out as one send_multi fan-out. The source may
  /// return null or an empty batch for "nothing to piggyback". The node
  /// keeps no snapshot past on_period: the next period asks again.
  using PiggybackSource =
      std::function<std::shared_ptr<const RowBatch>(AddrId target)>;
  using PiggybackSink =
      std::function<void(const SenderRef& sender, const RowBatch&)>;
  void set_piggyback(PiggybackSource source, PiggybackSink sink) {
    piggyback_source_ = std::move(source);
    piggyback_sink_ = std::move(sink);
  }

  /// Live ε/τ source for the Eq. 11 bound (config.env.adaptive): when set,
  /// every per-depth bound evaluation consults it instead of the static
  /// config.env.prior — typically wired to EnvEstimator::estimate of the
  /// node's estimator. The source must return valid faulty() inputs
  /// (ε, τ in [0, 1], no NaN); EnvEstimator guarantees that.
  using EnvSource = std::function<EnvParams()>;
  void set_env_source(EnvSource source) { env_source_ = std::move(source); }

  /// The ε/τ the next bound evaluation will use (prior or live estimate).
  EnvParams live_env() const {
    return env_source_ ? env_source_() : config_.env.prior;
  }

  const Address& address() const noexcept { return self_; }
  AddrId address_id() const noexcept { return self_id_; }
  const Subscription& subscription() const noexcept { return subscription_; }

  bool interested_in(const Event& e) const { return subscription_.match(e); }
  bool has_received(const EventId& id) const { return dedup_.received(id); }
  bool has_delivered(const EventId& id) const {
    return dedup_.delivered(id);
  }

  struct Stats {
    std::uint64_t published = 0;
    std::uint64_t received = 0;   ///< distinct events received via gossip
    std::uint64_t delivered = 0;  ///< events handed to the application
    std::uint64_t gossips_sent = 0;
    std::uint64_t rounds_run = 0;  ///< per-depth gossip rounds executed
    /// Entries retired after zero rounds at a depth that still had an
    /// interested audience: the discounted Eq. 11 bound collapsed
    /// (n(1-ε)(1-τ) <= 1 or fanout discounted to 0). Observable instead of
    /// a silent delivery loss — the dominant failure mode at small
    /// matching rates and saturated loss estimates.
    std::uint64_t bound_collapsed = 0;
    std::uint64_t leaf_floods = 0;  ///< Sec. 6 leaf-flood activations
    std::uint64_t digests_sent = 0;
    std::uint64_t recoveries = 0;  ///< events obtained via retransmission
    /// Duplicate events discarded by the whole-lifetime dedup table (gossip
    /// and recovery-payload paths). Under the network's duplication
    /// injector this is the exactly-once audit trail: every duplicate the
    /// wire manufactures lands here, never in `delivered`.
    std::uint64_t dup_suppressed = 0;
    /// Events shed by the PmcastConfig::max_retained / max_buffered caps.
    std::uint64_t shed_events = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 protected:
  void on_message(ProcessId from, const MessagePtr& msg) override;
  void on_period() override;

 private:
  /// One event's interest-match bits against the rows of one depth view:
  /// bit i is set iff row i is alive and its regrouped interests match.
  /// Stamped with the view and its mutations() count, so the bits are
  /// reused for as long as the view is unchanged. Summaries and events are
  /// immutable, and every row change bumps mutations(), so reused bits
  /// equal freshly computed ones.
  struct RowMatch {
    const DepthView* view = nullptr;
    std::uint64_t mutations = 0;
    std::vector<std::uint64_t> bits;
  };

  struct Entry {
    std::shared_ptr<const Event> event;
    double rate = 0.0;
    std::uint32_t round = 0;
    RowMatch match;  ///< against the view of the depth buffering the entry
  };

  /// One view member that could be gossiped to.
  struct Candidate {
    AddrId id = kNoAddr;
    bool interested = false;
  };

  /// Enumerates the members of `view` (excluding self) into `out`
  /// (cleared first), marking each as interested per its row's regrouped
  /// interests, with the Sec. 5.3 tuning applied. Returns the effective
  /// matching rate via `rate_out`. The row matches come from `match`,
  /// recomputed first if its stamp is not `view`'s current one. Callers
  /// pass a long-lived scratch buffer so the candidate vector is not
  /// reallocated every round at every depth.
  void candidates_at(const DepthView& view, const Event& e, RowMatch& match,
                     std::vector<Candidate>& out, double& rate_out) const;

  /// Fig. 3's GETRATE: effective matching rate at `depth`. Leaves the row
  /// matches in `match` for the entry that will be buffered there.
  double rate_at(std::size_t depth, const Event& e, RowMatch& match) const;

  /// One period's piggyback snapshots, indexed by prefix level; a slot is
  /// empty until that level's first target asks for it. Lives on
  /// on_period's stack, so no snapshot outlives the period.
  using Snapshots = std::vector<std::optional<std::shared_ptr<const RowBatch>>>;

  void buffer_event(std::size_t depth, Entry entry);
  void gossip_entries_at(std::size_t depth, Snapshots& snapshots);
  /// The rows to piggyback on this period's gossips to `target`: its prefix
  /// level's snapshot, taken from the source on first use; null when there
  /// is nothing to piggyback.
  const std::shared_ptr<const RowBatch>& piggyback_for(AddrId target,
                                                       Snapshots& snapshots);
  /// A gossip of `entry` at `depth`, carrying `rows` (if any) as its
  /// piggyback.
  std::shared_ptr<GossipMsg> make_gossip(
      const Entry& entry, std::size_t depth,
      std::shared_ptr<const RowBatch> rows) const;
  /// Delivers a first receipt, whose dedup slot is `slot`.
  void deliver_if_interested(const Event& e, EventDedup::Slot& slot);
  bool buffers_empty() const noexcept;
  std::size_t buffered_total() const noexcept;

  /// Starts (or refreshes) the recovery phase for a retained event.
  void retain_for_recovery(std::shared_ptr<const Event> event);
  /// One period of digest gossip for every event still in recovery.
  void run_recovery_round();
  void handle_digest(ProcessId from, const EventDigestMsg& m);
  void handle_request(ProcessId from, const EventRequestMsg& m);
  void handle_payload(const EventPayloadMsg& m);

  PmcastConfig config_;
  Address self_;
  AddrId self_id_ = kNoAddr;
  Subscription subscription_;
  const ViewProvider* views_;
  Directory directory_;
  RoundEstimator estimator_;
  EnvSource env_source_;
  DeliverHandler deliver_;
  PiggybackSource piggyback_source_;
  PiggybackSink piggyback_sink_;

  std::vector<std::vector<Entry>> gossips_;  // index 0 <-> depth 1

  /// Reusable candidate buffers: one for the gossip loop, one for the
  /// nested rate_at() calls (promotion computes the next depth's rate while
  /// the gossip loop's candidates are still in scope, so the two must not
  /// alias). mutable because rate_at() is logically const.
  mutable std::vector<Candidate> gossip_scratch_;
  mutable std::vector<Candidate> rate_scratch_;
  /// Resolved fan-out pids for the current flood or run of same-snapshot
  /// round targets, so one shared message goes out through
  /// Network::send_multi instead of one copy per target.
  std::vector<ProcessId> target_scratch_;

  EventDedup dedup_;

  /// Events retained for digest recovery, with remaining digest rounds.
  /// A FlatMap so recovery digests enumerate ids in EventId order — with an
  /// unordered_map the digest wire bytes would leak hash-bucket order
  /// (detlint iteration-order). The store holds at most a few rounds' worth
  /// of events, where the sorted vector also beats the bucket array.
  struct Retained {
    std::shared_ptr<const Event> event;
    std::size_t rounds_left = 0;
  };
  FlatMap<EventId, Retained> store_;

  Stats stats_;
};

}  // namespace pmc
