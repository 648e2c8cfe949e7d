// Deterministic churn & fault scenario engine.
//
// A ScenarioScript is a timeline of typed fault/churn actions — crashes,
// recoveries, joins, graceful leaves, partitions with a scheduled heal,
// loss bursts and publish bursts — that a ChurnSim executes at their
// scheduled sim-times. The engine turns the single-shot figure harness into
// a general workload driver over a *changing* group: every live process
// runs the full deployment stack (SyncNode anti-entropy membership feeding
// a PmcastNode through a LocalViewProvider, with membership rows
// piggybacked on event gossip, optionally through the wire codec).
//
// Determinism: every action draws from its own RNG stream derived from the
// run seed and the action's (time, kind, ordinal) label — never from a
// shared sequential stream — so inserting one action never perturbs the
// draws of unrelated actions, and two runs with the same seed and script
// produce byte-identical summaries (tests/scenario_test.cpp,
// tests/determinism_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "addr/space.hpp"
#include "analysis/env_estimator.hpp"
#include "event/event.hpp"
#include "membership/sync.hpp"
#include "membership/tree.hpp"
#include "pmcast/node.hpp"
#include "pmcast/view_provider.hpp"

namespace pmc {

// ---------------------------------------------------------------------------
// Script
// ---------------------------------------------------------------------------

/// Fail-stop crash of `count` uniformly chosen live processes.
struct CrashNodes {
  std::size_t count = 1;
};

/// Rejoin of up to `count` previously crashed processes (oldest crash
/// first), each re-entering through the join protocol at its old address.
struct RecoverNodes {
  std::size_t count = 1;
};

/// `count` fresh processes join at vacant addresses through the scripted
/// join path (JoinRequest routed to an immediate neighbor, ViewTransfer).
struct Join {
  std::size_t count = 1;
};

/// Graceful departure of `count` uniformly chosen live processes (LeaveMsg
/// to the immediate neighbors, then fail-stop).
struct Leave {
  std::size_t count = 1;
};

/// Splits the group: processes whose top-level address component is in
/// `side` cannot exchange messages with the rest until `heal_at` (absolute
/// sim-time). Concurrent partitions compose (layered link filters).
struct Partition {
  std::vector<AddrComponent> side;
  SimTime heal_at = 0;
};

/// Raises the network loss probability to `eps` for `duration`, then
/// restores the scenario's base loss.
struct LossBurst {
  double eps = 0.5;
  SimTime duration = sim_ms(100);
};

/// Publishes `count` events from uniformly chosen live publishers, spaced
/// `spacing` apart (0 = all at once).
struct PublishBurst {
  std::size_t count = 1;
  SimTime spacing = 0;
};

/// Installs a LogNormal WAN latency model (median / log-space sigma) on
/// the group's network; median == 0 restores the uniform default. The
/// clamp window is [0, 16 * median] so the heavy tail cannot outlive a
/// run. Text form: `latency lognormal 2ms 0.8` / `latency uniform`.
struct LatencyProfile {
  SimTime median = 0;  ///< 0 = restore the uniform [min, max] draw
  double sigma = 0.0;
};

/// One-directional partition: messages from processes whose top-level
/// address component is in `from_side` towards processes whose component
/// is in `to_side` are dropped until `heal_at`; the reverse direction
/// passes. Text form: `asym 0,1 to 2 heal 1800ms`.
struct AsymPartition {
  std::vector<AddrComponent> from_side;
  std::vector<AddrComponent> to_side;
  SimTime heal_at = 0;
};

/// Flapping partition: processes whose top-level component is in `side`
/// are cut off from the rest for the first `duty` fraction of every
/// `period`, reconnected for the remainder, until `until` (absolute).
/// Text form: `flap 0 period 200ms duty 0.4 until 2s`.
struct Flap {
  std::vector<AddrComponent> side;
  SimTime period = sim_ms(200);
  double duty = 0.5;
  SimTime until = 0;
};

/// Correlated rack failure: every live process whose address starts with
/// `prefix` (components 0..k-1) fail-stops at once — the crash burst is
/// correlated over an address zone, not sampled. Text form: `rack 0` /
/// `rack 0,2`.
struct RackFailure {
  std::vector<AddrComponent> prefix;
};

/// Flash crowd: `count` fresh joins spread evenly over `over`
/// (0 = all at once). Text form: `joinstorm 16 over 200ms`.
struct JoinStorm {
  std::size_t count = 1;
  SimTime over = 0;
};

/// Raises the network duplication probability to `prob` for `duration`,
/// then restores 0. Text form: `duplicate 0.4 for 300ms`.
struct DuplicateBurst {
  double prob = 0.5;
  SimTime duration = sim_ms(100);
};

/// Replays the churn timeline parsed from `path` (the scenario text
/// format), every child action offset by this action's time. Expanded by
/// ChurnSim::play before validation/scheduling; nesting is rejected. The
/// path must be whitespace- and '#'-free (the text format could not
/// round-trip it otherwise). Text form: `replay traces/outage.scn`.
struct TraceReplay {
  std::string path;
};

/// New alternatives are appended at the END: an action's RNG stream label
/// hashes op.index() (see ChurnSim::play), so reordering the variant would
/// relabel every existing script's draws.
using ScenarioOp =
    std::variant<CrashNodes, RecoverNodes, Join, Leave, Partition, LossBurst,
                 PublishBurst, LatencyProfile, AsymPartition, Flap,
                 RackFailure, JoinStorm, DuplicateBurst, TraceReplay>;

/// Parses a sim-time token ("750us", "500ms", "2s"; bare digits mean µs) —
/// the same syntax scenario scripts use. Throws std::invalid_argument on
/// malformed input.
SimTime parse_sim_time(const std::string& token);

struct ScenarioAction {
  SimTime at = 0;
  ScenarioOp op;
};

/// A validated, reproducible timeline of scenario actions. Build with the
/// fluent add() API or parse() from the text format (see README):
///
///   # staggered joins, a crash burst, a healed partition, a loss spike
///   at 200ms join 2
///   at 900ms crash 3
///   at 1s partition 0,1 heal 1800ms
///   at 1200ms loss 0.35 for 400ms
///   at 1500ms publish 6 every 25ms
///   at 2s recover 2
class ScenarioScript {
 public:
  ScenarioScript& add(SimTime at, ScenarioOp op);

  const std::vector<ScenarioAction>& actions() const noexcept {
    return actions_;
  }
  bool empty() const noexcept { return actions_.empty(); }
  std::size_t size() const noexcept { return actions_.size(); }

  /// Rejects nonsense scripts via PMC_EXPECTS (throws std::logic_error):
  /// out-of-range loss, non-positive counts/durations, actions scheduled in
  /// the past or out of order, heal before its partition, and recoveries
  /// exceeding the crashes scheduled before them. `prior_crashes` credits
  /// crashes scheduled by earlier timelines of the same run (ChurnSim::play
  /// passes its outstanding crash count for appended scripts).
  void validate(std::uint64_t prior_crashes = 0) const;

  /// Parses the text format; throws std::invalid_argument (with the line
  /// number) on syntax errors. The result still must pass validate().
  static ScenarioScript parse(const std::string& text);

  /// The canonical churn demo: staggered joins + crash burst +
  /// partition/heal + loss spike + publish bursts (used by examples/churn
  /// and `pmcast_sim --scenario demo`).
  static ScenarioScript demo();

  /// Renders back to the text format; parse(to_string()) reproduces the
  /// script exactly.
  std::string to_string() const;

 private:
  std::vector<ScenarioAction> actions_;
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

struct ChurnConfig {
  // Address space (capacity a^d) and tree shape.
  std::size_t a = 4;
  std::size_t d = 2;
  std::size_t r = 2;

  /// Fraction of interested processes (uniform interval subscriptions).
  double pd = 0.5;
  /// Fraction of the address space populated by founders; the rest stays
  /// vacant for scripted joins.
  double initial_fill = 0.75;

  // Environment.
  double loss = 0.0;  ///< base ε; LossBurst actions deviate from this
  SimTime latency_min = sim_us(100);
  SimTime latency_max = sim_us(900);

  // Protocol parameters.
  SimTime period = sim_ms(50);  ///< gossip period of both layers
  SimTime suspicion_timeout = sim_ms(500);
  bool confirm_suspicion = false;
  std::size_t fanout = 3;
  std::size_t recovery_rounds = 0;
  /// Graceful-degradation caps passed through to every PmcastNode
  /// (PmcastConfig::max_retained / max_buffered); 0 = unbounded, the
  /// pre-cap behaviour.
  std::size_t max_retained = 0;
  std::size_t max_buffered = 0;
  /// Capped exponential backoff (with labeled-stream jitter) on the
  /// joiners' join-request retries (SyncConfig::join_backoff).
  bool join_backoff = false;
  /// Run every message through encode_message/decode_message, as a socket
  /// deployment would (scenarios then exercise the frozen wire format).
  /// Frames decode into the group's Interns, so rows off the wire arrive
  /// as the same pooled handles as in-sim rows.
  bool wire_transcode = false;

  /// Online ε/τ estimation (analysis/env_estimator.hpp): every node runs
  /// an EnvEstimator fed by digest feedback (SyncConfig::ack_digests is
  /// forced on) and observed view churn, and its pmcast layer re-evaluates
  /// the Eq. 11 round bound with the live estimate instead of the static
  /// `loss` prior. Deterministic: estimation is pure counter arithmetic.
  bool adaptive = false;
  /// EWMA weight per estimator sampling window, in (0, 1].
  double adaptive_alpha = 0.3;
  /// Length of one estimator sampling window; 0 = 4 gossip periods.
  SimTime adaptive_interval = 0;

  std::uint64_t seed = 42;

  std::size_t capacity() const;
  void validate() const;  ///< PMC_EXPECTS on every range above
};

/// What happened, aggregated over the whole run.
struct ChurnCounters {
  std::uint64_t joins_requested = 0;  ///< joiners spawned (Join + Recover)
  std::uint64_t crashes = 0;
  std::uint64_t leaves = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t partitions = 0;
  std::uint64_t heals = 0;  ///< partition/asym/flap filters removed
  std::uint64_t loss_bursts = 0;
  std::uint64_t loss_restores = 0;
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;  ///< HPDELIVER calls across all processes
  /// Deliveries owed at publish time: for every published event, the live
  /// processes whose subscription matched it when it entered the group.
  /// Pure bookkeeping (no draws), so counting it never moves a replay;
  /// delivered / expected_deliveries is the figure sweeps' delivery ratio,
  /// and delivered <= expected_deliveries is the exactly-once identity the
  /// --gate-figures check enforces under duplication.
  std::uint64_t expected_deliveries = 0;
  std::uint64_t asym_partitions = 0;
  std::uint64_t flaps = 0;
  std::uint64_t rack_failures = 0;   ///< RackFailure actions (crashes
                                     ///< counts the victims)
  std::uint64_t join_storms = 0;
  std::uint64_t dup_bursts = 0;
  std::uint64_t dup_restores = 0;
  std::uint64_t latency_profiles = 0;  ///< LatencyProfile actions applied
  std::uint64_t skipped = 0;    ///< action shortfall (e.g. no live target)

  friend bool operator==(const ChurnCounters&, const ChurnCounters&) =
      default;

  /// Field-wise sum (sharded runs aggregate per-shard counters).
  ChurnCounters& operator+=(const ChurnCounters& o) {
    joins_requested += o.joins_requested;
    crashes += o.crashes;
    leaves += o.leaves;
    recoveries += o.recoveries;
    partitions += o.partitions;
    heals += o.heals;
    loss_bursts += o.loss_bursts;
    loss_restores += o.loss_restores;
    published += o.published;
    delivered += o.delivered;
    expected_deliveries += o.expected_deliveries;
    asym_partitions += o.asym_partitions;
    flaps += o.flaps;
    rack_failures += o.rack_failures;
    join_storms += o.join_storms;
    dup_bursts += o.dup_bursts;
    dup_restores += o.dup_restores;
    latency_profiles += o.latency_profiles;
    skipped += o.skipped;
    return *this;
  }
};

/// The group-local half of a run digest: everything one dynamic group can
/// account for without touching runtime-wide state (network counters,
/// scheduler progress). This is the per-shard summary of a sharded run —
/// byte-comparable, so shard-isolation tests can assert that shard B's
/// GroupSummary is unchanged when shard A's script gains an action.
struct GroupSummary {
  ChurnCounters counters;
  std::size_t live = 0;    ///< live processes at summary time
  std::size_t joined = 0;  ///< live processes whose join completed
  std::uint64_t membership_tombstones = 0;  ///< summed over live processes
  std::uint64_t joins_served = 0;           ///< view transfers sent
  /// Publish→deliver latency over this group's deliveries, in integer
  /// sim-time so the digest stays byte-comparable (no float formatting).
  std::uint64_t latency_samples = 0;
  SimTime latency_total = 0;
  SimTime latency_max = 0;
  /// Adaptive environment estimation (ChurnConfig::adaptive): the live
  /// nodes' mean ε̂/τ̂ in parts-per-million (integers keep the digest
  /// byte-comparable), and the estimator windows folded in across them.
  /// All zero when estimation is off.
  std::uint64_t env_loss_ppm = 0;
  std::uint64_t env_crash_ppm = 0;
  std::uint64_t env_windows = 0;
  /// Eq. 11 bound collapses observed across all processes
  /// (PmcastNode::Stats::bound_collapsed).
  std::uint64_t bound_collapsed = 0;
  /// Duplicate gossips/payloads discarded by the receivers' dedup tables
  /// (summed PmcastNode::Stats::dup_suppressed) — the exactly-once ledger
  /// the duplication injector is audited against.
  std::uint64_t dup_suppressed = 0;
  /// Events shed by the graceful-degradation caps (max_retained /
  /// max_buffered), summed over live processes.
  std::uint64_t shed_events = 0;
  /// FNV-1a over every slot's per-node statistics.
  std::uint64_t fingerprint = 0;

  friend bool operator==(const GroupSummary&, const GroupSummary&) = default;
  double latency_mean_ms() const;
  std::string to_string() const;
};

/// A byte-comparable end-of-run digest: the group-local summary plus the
/// runtime-wide counters (network, scheduler). Two runs with the same
/// config and script must compare equal (operator==).
struct ChurnSummary {
  ChurnCounters counters;
  NetworkCounters network;
  std::uint64_t scheduler_executed = 0;
  std::size_t live = 0;    ///< live processes at summary time
  std::size_t joined = 0;  ///< live processes whose join completed
  std::uint64_t membership_tombstones = 0;  ///< summed over live processes
  std::uint64_t joins_served = 0;           ///< view transfers sent
  std::uint64_t latency_samples = 0;        ///< see GroupSummary
  SimTime latency_total = 0;
  SimTime latency_max = 0;
  std::uint64_t env_loss_ppm = 0;    ///< see GroupSummary
  std::uint64_t env_crash_ppm = 0;
  std::uint64_t env_windows = 0;
  std::uint64_t bound_collapsed = 0;
  std::uint64_t dup_suppressed = 0;  ///< see GroupSummary
  std::uint64_t shed_events = 0;     ///< see GroupSummary
  std::uint64_t fingerprint = 0;

  friend bool operator==(const ChurnSummary&, const ChurnSummary&) = default;
  std::string to_string() const;
};

/// Hosts a dynamic group over a Runtime and executes scenario scripts
/// against it. Every populated address owns a SyncNode (pid = pid_base +
/// slot) and a PmcastNode (pid = pid_base + capacity + slot) wired together
/// by piggybacking and a LocalViewProvider. SyncNodes gossip forever, so
/// the engine runs for explicit horizons (run_for/run_until) rather than to
/// quiescence.
///
/// A ChurnSim either owns its Runtime (the classic single-group mode) or
/// borrows one shared with other groups (topic shards; see
/// harness/shard.hpp). In shard mode every labeled RNG stream is salted
/// with the shard's tag, pids are offset by pid_base, and runtime-wide
/// effects (loss bursts) are routed through hooks the owner scopes to this
/// shard — so co-hosted groups never perturb each other.
class ChurnSim {
 public:
  explicit ChurnSim(ChurnConfig config);

  /// Shard mode: hosts the group on `runtime` (owned elsewhere), with pids
  /// offset by `pid_base` and every labeled stream salted by `stream_salt`.
  /// The owner is responsible for runtime-wide settings (wire transcoding,
  /// base latency), for scoping loss via set_loss_hook, and provides the
  /// shared intern state (shards use the same address space, so one table
  /// serves them all).
  ChurnSim(Runtime& runtime, ChurnConfig config, ProcessId pid_base,
           std::uint64_t stream_salt, Interns& interns);

  ~ChurnSim();

  ChurnSim(const ChurnSim&) = delete;
  ChurnSim& operator=(const ChurnSim&) = delete;

  /// Validates `script` and schedules every action (all must lie at or
  /// after now()). May be called repeatedly to append further timelines.
  void play(const ScenarioScript& script);

  void run_for(SimTime duration);
  void run_until(SimTime deadline);
  SimTime now() const noexcept;

  Runtime& runtime() noexcept { return *rt_; }
  Interns& interns() noexcept { return *interns_; }
  const ChurnConfig& config() const noexcept { return config_; }
  const ChurnCounters& counters() const noexcept { return counters_; }

  /// First pid of this group's range; the group occupies
  /// [pid_base(), pid_base() + 2 * capacity).
  ProcessId pid_base() const noexcept { return pid_base_; }

  /// Overrides what a LossBurst action does: `hook(eps)` is called to raise
  /// the loss and later `hook(config().loss)` to restore it. A sharded
  /// runtime points this at the shard's entry in a per-shard loss model
  /// instead of the network-wide scalar ε.
  void set_loss_hook(std::function<void(double)> hook);

  /// Router entry point for cross-shard publishers: publishes the event
  /// (id, u) from a live member picked with `rng` (the caller's stream, so
  /// this group's own draws are untouched). Returns false (and counts a
  /// skip) when the group has no live member.
  bool publish_external(const EventId& id, double u, Rng& rng);

  std::size_t live_count() const noexcept;
  std::size_t joined_count() const noexcept;

  /// Group-local digest (per-shard summary in a sharded run).
  GroupSummary group_summary() const;
  /// group_summary() plus the runtime-wide network/scheduler counters.
  ChurnSummary summary() const;

 private:
  /// Last-seen SyncNode counters, so one estimator sampling window feeds
  /// only the deltas accrued since the previous window.
  struct EnvCursor {
    std::uint64_t digests_sent = 0;
    std::uint64_t digest_acks = 0;
    std::uint64_t deaths_observed = 0;
  };

  struct Slot {
    Address address;
    Subscription subscription;
    std::unique_ptr<SyncNode> sync;
    std::unique_ptr<LocalViewProvider> provider;
    std::unique_ptr<PmcastNode> pm;
    /// Per-node online ε/τ estimator (ChurnConfig::adaptive); reset with
    /// each incarnation, like the protocol nodes it observes.
    std::unique_ptr<EnvEstimator> estimator;
    EnvCursor env_cursor;
    bool live = false;
  };

  /// Shared tail of both constructors: builds the slots, picks the
  /// founders, and spawns them.
  void init_population();

  ProcessId sync_pid(std::size_t slot) const noexcept;
  ProcessId pm_pid(std::size_t slot) const noexcept;
  /// The slot owning interned address `id`; kNoSlot for foreign ids.
  std::size_t slot_for(AddrId id) const noexcept;
  /// Labeled stream salted with this group's shard tag (no-op salt when the
  /// group owns its runtime).
  Rng stream(std::uint64_t tag) const;
  SyncNode::Directory sync_directory();
  PmcastNode::Directory pm_directory();

  /// (Re)creates both protocol nodes in `slot`. Founders get a materialized
  /// bootstrap view; joiners enter through the join protocol via `contact`.
  void spawn(std::size_t slot, bool founder, ProcessId contact);

  /// One estimator sampling window: feeds every live slot's estimator the
  /// feedback/churn deltas since the last window, then re-schedules itself
  /// `adaptive_interval_` later. Pure counter arithmetic — no RNG draws —
  /// so co-hosted shards are provably unaffected.
  void sample_environment();

  void apply(const ScenarioAction& action, std::shared_ptr<Rng> rng);
  std::vector<std::size_t> live_slots() const;
  /// Join-contact candidates: joined live slots, else any live slot.
  std::vector<std::size_t> contact_slots() const;
  /// Picks up to `count` distinct live slots uniformly; fewer if the group
  /// is smaller (shortfall counted as skipped).
  std::vector<std::size_t> pick_live(std::size_t count, Rng& rng);
  /// Points still-unjoined joiners at fresh contacts after crashes/leaves
  /// (their original contact may be gone).
  void retarget_pending_joiners(Rng& rng);
  /// Spawns one fresh joiner at a vacant address (shared by Join and
  /// JoinStorm); counts a skip when no vacancy or contact exists.
  void do_join(Rng& rng);
  void publish_one(Rng& rng);

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  ChurnConfig config_;
  AddressSpace space_;
  std::unique_ptr<Runtime> owned_rt_;  ///< set only in single-group mode
  Runtime* rt_ = nullptr;              ///< owned_rt_.get() or the shared one
  std::unique_ptr<Interns> owned_interns_;  ///< single-group mode only
  Interns* interns_ = nullptr;  ///< owned_interns_.get() or the shared one
  ProcessId pid_base_ = 0;
  std::uint64_t stream_salt_ = 0;  ///< 0 in single-group mode (tags as-is)
  SimTime adaptive_interval_ = 0;  ///< resolved sampling window (adaptive)
  std::function<void(double)> apply_loss_;  ///< see set_loss_hook
  std::unique_ptr<GroupTree> oracle_;  ///< intended membership bookkeeping
  std::vector<Slot> slots_;
  /// Dense AddrId -> slot directory (every slot address is interned up
  /// front, so protocol-node lookups are a bounds check + array read).
  std::vector<std::size_t> slot_of_id_;
  std::vector<std::size_t> crashed_pool_;  ///< recover candidates, FIFO
  /// Per-(time, kind) ordinals for action stream labels; persists across
  /// play() calls so appended timelines never reuse a label.
  std::map<std::pair<SimTime, std::size_t>, std::uint64_t> action_ordinals_;
  /// Crashes scheduled minus recoveries scheduled, across every play()
  /// call: the crash credit appended timelines may recover against.
  std::uint64_t crash_credit_ = 0;
  /// End of the last scheduled loss burst; later bursts must start after
  /// it (overlap would truncate the earlier burst's restore).
  SimTime loss_busy_until_ = 0;
  /// Bumped by every burst; a restore only fires if its epoch is current
  /// (a back-to-back burst's set_loss runs before the old restore).
  std::uint64_t loss_epoch_ = 0;
  /// DuplicateBurst bookkeeping, mirroring the loss-burst pair above.
  SimTime dup_busy_until_ = 0;
  std::uint64_t dup_epoch_ = 0;
  std::uint64_t publish_seq_ = 0;
  ChurnCounters counters_;
  /// Publish times by event id, for delivery-latency accounting. Entries
  /// are kept for the whole run (publish counts are scenario-scale).
  std::unordered_map<EventId, SimTime, EventIdHash> publish_times_;
  std::uint64_t latency_samples_ = 0;
  SimTime latency_total_ = 0;
  SimTime latency_max_ = 0;
};

}  // namespace pmc
