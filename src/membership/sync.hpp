// Decentralized membership management (paper Sec. 2.3).
//
// Every SyncNode owns a MembershipView whose rows carry logical versions.
// Periodically it gossips a *digest* — (depth, infix, version) for every row
// — to a few known processes; a receiver replies with full rows for every
// line where its own version is newer ("gossip pull": the gossiper gets
// updated). Views therefore converge without any coordinator.
//
// Joining: the joiner asks any contact already in the group; the contact
// routes the request towards the "lowest" delegates it knows for the
// joiner's address (recursively), until an immediate neighbor inserts the
// joiner and transfers its view.
//
// Leaving: the leaver informs neighbors, which tombstone its row (alive =
// false, bumped version); the tombstone then spreads via anti-entropy.
//
// Failure detection: each process tracks the last time it heard from its
// immediate (leaf-depth) neighbors; silence beyond a timeout tombstones the
// suspect locally, and anti-entropy propagates the suspicion.
//
// Row recomputation: delegates periodically recompact the row describing
// their own subgroup at each depth they represent (interest regrouping,
// process count, delegate list) from the next-deeper table, bumping the
// version when the row materially changed. The recompaction is a pure
// function of the two adjacent tables, so it is skipped outright while
// neither table mutated since the last pass (the steady-state common case).
//
// Hot-path state is interned: peers, neighbors and contact tables hold
// AddrIds, and rows travel as RowBatch handles (delegate ids, pooled
// summaries) copied straight out of the view. A receiver checks each row's
// (infix, version) against its own table first and drops stale rows before
// touching any address or summary; only rows it stores are translated, and
// only when the batch was decoded context-free, with its own table (a
// harness's wire transcoder decodes into the runtime's Interns, so its rows
// are handles already).
//
// Senders travel by handle too: every message that names its sender
// (digest, update, view transfer, suspect query/reply, and the piggybacked
// gossip) carries a SenderRef, an AddrId plus the Interns it belongs to,
// instead of an Address copy. A receiver on the same runtime takes the id
// as it is for its contact table and prefix math; a sender decoded
// context-free is interned (contacts) or compared by component (prefix).
// The wire codec resolves handles to components, so protocol bytes are
// unchanged by the representation.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "membership/tree.hpp"
#include "membership/view.hpp"
#include "sim/runtime.hpp"

namespace pmc {

// ---------------------------------------------------------------------------
// Wire messages
// ---------------------------------------------------------------------------

struct RowDigest {
  std::uint32_t depth = 0;
  AddrComponent infix = 0;
  std::uint64_t version = 0;
};

struct MembershipDigestMsg final : MessageBase {
  MembershipDigestMsg() noexcept : MessageBase(MsgKind::MembershipDigest) {}

  SenderRef sender;
  ProcessId sender_pid = kNoProcess;
  std::vector<RowDigest> digests;
};

struct MembershipUpdateMsg final : MessageBase {
  MembershipUpdateMsg() noexcept : MessageBase(MsgKind::MembershipUpdate) {}

  SenderRef sender;
  RowBatch rows;
};

struct JoinRequestMsg final : MessageBase {
  JoinRequestMsg() noexcept : MessageBase(MsgKind::JoinRequest) {}

  Address joiner;
  ProcessId joiner_pid = kNoProcess;
  Subscription subscription;
  std::uint32_t hops = 0;  ///< guards against routing loops
};

struct ViewTransferMsg final : MessageBase {
  ViewTransferMsg() noexcept : MessageBase(MsgKind::ViewTransfer) {}

  SenderRef sender;
  RowBatch rows;  ///< rows valid for the joiner
};

struct LeaveMsg final : MessageBase {
  LeaveMsg() noexcept : MessageBase(MsgKind::Leave) {}

  Address leaver;
};

/// Sec. 6's per-depth mechanism (3): before excluding a silent neighbor,
/// ask another leaf neighbor whether it has heard from the suspect — a
/// lightweight agreement that filters one-sided connectivity glitches.
struct SuspectQueryMsg final : MessageBase {
  SuspectQueryMsg() noexcept : MessageBase(MsgKind::SuspectQuery) {}

  SenderRef sender;
  Address suspect;
};

struct SuspectReplyMsg final : MessageBase {
  SuspectReplyMsg() noexcept : MessageBase(MsgKind::SuspectReply) {}

  SenderRef sender;
  Address suspect;
  bool heard_recently = false;
};

// ---------------------------------------------------------------------------
// SyncNode
// ---------------------------------------------------------------------------

struct SyncConfig {
  TreeConfig tree;
  SimTime gossip_period = sim_ms(100);
  std::size_t gossip_fanout = 2;
  /// Silence from an immediate neighbor beyond this tombstones it.
  SimTime suspicion_timeout = sim_ms(1000);
  /// Join requests stop being forwarded after this many hops.
  std::uint32_t max_join_hops = 16;
  /// A joiner re-sends its join request every period until a view transfer
  /// arrives, giving up after this many retries (the contact may be dead —
  /// see retarget_join). 0 retries forever.
  std::uint32_t max_join_retries = 240;
  /// Capped exponential backoff on those retries: the k-th retry waits
  /// min(2^k, join_backoff_cap) gossip periods plus a jitter drawn from the
  /// joiner's own labeled stream (uniform in [0, wait * join_backoff_jitter]
  /// — labeled, so enabling backoff on one joiner never moves any other
  /// process's draws). Off by default: the legacy every-period retry
  /// cadence (and every existing run fingerprint) is unchanged.
  /// retarget_join resets the schedule along with the budget.
  bool join_backoff = false;
  /// Ceiling on the backoff factor, in gossip periods.
  std::uint32_t join_backoff_cap = 8;
  /// Jitter fraction of the backed-off wait, in [0, 1].
  double join_backoff_jitter = 0.5;
  /// When true, a timed-out neighbor is only tombstoned after a second
  /// leaf neighbor confirms it has not heard from the suspect either
  /// (Sec. 6's leaf-level agreement before exclusion).
  bool confirm_suspicion = false;
  /// Answer every membership digest, even when no row is newer (an empty
  /// MembershipUpdate as a pure ack): the periodic digest gossip doubles
  /// as loss probes, and the sent-vs-acked ratio feeds the online ε
  /// estimator (analysis/env_estimator.hpp). Off by default (the paper's
  /// pull-only anti-entropy).
  bool ack_digests = false;
};

class SyncNode final : public Process {
 public:
  /// A founding member: starts with a bootstrap view (e.g. from GroupTree).
  SyncNode(Runtime& rt, ProcessId pid, SyncConfig config, MembershipView view,
           Subscription subscription);

  /// A joining process: starts with an empty view and contacts `contact`.
  SyncNode(Runtime& rt, ProcessId pid, SyncConfig config, Address self,
           Subscription subscription, ProcessId contact, Interns& interns);

  const Address& address() const noexcept { return view_.self(); }
  AddrId address_id() const noexcept { return view_.self_id(); }
  const MembershipView& view() const noexcept { return view_; }
  const Subscription& subscription() const noexcept { return subscription_; }
  bool joined() const noexcept { return joined_; }

  /// Counters over the membership protocol's observable work, used by the
  /// scenario engine to report join/leave/failure-detection activity.
  struct Stats {
    std::uint64_t digests_sent = 0;     ///< anti-entropy digests gossiped
    std::uint64_t updates_sent = 0;     ///< row (or ack) replies to digests
    /// MembershipUpdate messages received. Updates only ever answer our
    /// own digests (gossip pull), so with ack_digests on the pair
    /// (digests_sent, digest_acks) is the sent-vs-acked feedback an
    /// EnvEstimator turns into a loss estimate.
    std::uint64_t digest_acks = 0;
    /// Rows observed transitioning alive -> dead in our view, whether
    /// tombstoned locally (timeout, leave) or absorbed via anti-entropy —
    /// the incarnation churn an EnvEstimator turns into a crash estimate.
    std::uint64_t deaths_observed = 0;
    std::uint64_t join_retries = 0;     ///< own join request re-sent
    std::uint64_t joins_forwarded = 0;  ///< join requests routed closer
    std::uint64_t joins_served = 0;     ///< view transfers sent to joiners
    std::uint64_t tombstones = 0;       ///< rows tombstoned locally
    std::uint64_t rebuttals = 0;        ///< own false tombstone rebutted
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Graceful departure: informs immediate neighbors, then crashes the
  /// process object (it stops participating).
  void leave();

  /// Points a still-unjoined joiner at a fresh contact (the original one
  /// may have crashed before serving the request) and resets its retry
  /// budget. A no-op once joined.
  void retarget_join(ProcessId contact);

  /// Resolves a known process address (interned) to its simulation
  /// ProcessId. The directory is simulation plumbing (in a deployment this
  /// would be the transport address carried in the view rows).
  using Directory = std::function<ProcessId(AddrId)>;
  void set_directory(Directory directory) { directory_ = std::move(directory); }

  /// Piggybacking support (Sec. 2.3: "membership information can be
  /// piggybacked when gossiping events"): the rows worth attaching to a
  /// message for `other`, and ingestion of rows that arrived piggybacked.
  RowBatch rows_to_share(AddrId other) const { return rows_for(other); }
  void absorb_rows(const SenderRef& sender, const RowBatch& rows);

 protected:
  void on_message(ProcessId from, const MessagePtr& msg) override;
  void on_period() override;

 private:
  void send_join_request();
  /// Arms the next backed-off retry (SyncConfig::join_backoff).
  void schedule_next_join_retry();
  void handle_digest(ProcessId from, const MembershipDigestMsg& m);
  void handle_update(const MembershipUpdateMsg& m);
  void handle_join(ProcessId from, const JoinRequestMsg& m);
  void handle_view_transfer(const ViewTransferMsg& m);
  void handle_leave(const LeaveMsg& m);
  void handle_suspect_query(ProcessId from, const SuspectQueryMsg& m);
  void handle_suspect_reply(const SuspectReplyMsg& m);
  void tombstone_row(DepthView& leaf, std::size_t i);

  /// Applies row k of `rows` if it is newer than ours (version first: a
  /// stale row is dropped before any address or summary is touched), or
  /// rebuts it if it tombstones us; returns true when the view changed.
  bool apply_row(const RowBatch& rows, std::size_t k);
  /// Stores row k of `rows` at its depth with the given version and alive
  /// flag, translating its handles into our Interns when it was decoded
  /// context-free, with a table of its own.
  bool store_row(const RowBatch& rows, std::size_t k, std::uint64_t version,
                 bool alive);
  /// Rows of this view relevant for a process with address `other`
  /// (depths 1..common_prefix+1).
  RowBatch rows_for(AddrId other) const;
  std::vector<RowDigest> make_digest() const;
  /// Recompacts own-subgroup rows at every depth where self is a delegate.
  void recompact_own_rows();
  void check_neighbor_timeouts();
  /// Records direct contact with `sender`; returns its id in our table.
  AddrId note_contact(const SenderRef& sender);
  /// This process as the sender of a message it builds.
  SenderRef as_sender() const noexcept {
    return SenderRef(view_.interns(), view_.self_id());
  }
  /// All (address, pid-resolvable) gossip candidates, excluding self —
  /// depth-ascending, row order, first sighting wins. Returns a scratch
  /// buffer reused across periods (invalidated by the next call).
  const std::vector<AddrId>& known_peers() const;
  void send_to(AddrId a, MessagePtr msg);
  std::uint64_t next_version() { return ++version_counter_; }
  AddrInternTable& addrs() const noexcept { return view_.interns().addrs; }

  SyncConfig config_;
  MembershipView view_;
  Subscription subscription_;
  Directory directory_;
  bool joined_ = false;
  /// The contact a joining process asked; the join request is re-sent every
  /// period until a view transfer arrives (the single send would otherwise
  /// be lost forever to ε or a not-yet-joined contact).
  ProcessId join_contact_ = kNoProcess;
  /// Retries spent on the current contact; reset by retarget_join.
  std::uint32_t join_retry_budget_ = 0;
  /// Earliest time the next backed-off join retry may fire, and the
  /// joiner's labeled jitter stream (both used only with join_backoff;
  /// the stream is assigned from Runtime::make_stream in the joiner
  /// constructor, per the labeled-stream discipline).
  SimTime join_next_retry_at_ = 0;
  Rng join_jitter_rng_;
  std::uint64_t version_counter_ = 0;
  std::size_t ping_cursor_ = 0;  // round-robin over immediate neighbors
  /// Times of *direct* contact (messages actually received from a process).
  /// Suspect queries are answered from this map only — never from grace —
  /// otherwise two suspecting processes can keep a dead neighbor "alive" by
  /// echoing each other's second-hand confidence.
  FlatMap<AddrId, SimTime> last_contact_;
  /// Deadline extensions granted by positive confirmations.
  FlatMap<AddrId, SimTime> grace_until_;
  FlatMap<AddrId, SimTime> pending_suspicions_;
  /// Resolved pids for the periodic digest fan-out, so one shared digest
  /// goes out through Network::send_multi instead of per-target copies.
  std::vector<ProcessId> digest_targets_;
  // Reusable per-period scratch buffers (the sync path allocates nothing in
  // steady state).
  mutable std::vector<AddrId> peer_scratch_;
  std::vector<AddrId> neighbor_scratch_;
  std::vector<AddrId> suspect_scratch_;
  std::vector<AddrId> candidate_scratch_;
  std::vector<AddrId> delegate_scratch_;
  std::vector<AddrId> translate_scratch_;  ///< store_row() interning buffer
  /// Per-depth (deeper-table, own-table) mutation counters observed by the
  /// last recompaction pass; index = depth-1. The pass is skipped while both
  /// counters are unchanged.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> recompact_cache_;
  Stats stats_;
};

}  // namespace pmc
