#include "harness/shard.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/contract.hpp"
#include "common/hash.hpp"
#include "wire/messages.hpp"

namespace pmc {

namespace {

// Labeled RNG stream tags (arbitrary distinct salts, disjoint from the
// single-group tags in scenario.cpp).
constexpr std::uint64_t kShardStreamSalt = 0x5ba4d5a17;
constexpr std::uint64_t kShardSeedSalt = 0x5ba4d5eed;
constexpr std::uint64_t kRouterPickSalt = 0x4007e4b1c;
constexpr std::uint64_t kCrossEventSalt = 0xc4055e7e;

/// Synthetic EventId::publisher namespace for cross-shard publishers; far
/// above any pm pid (which are ProcessId-sized), so ids never collide.
constexpr std::uint64_t kCrossPublisherIdBase = std::uint64_t{1} << 62;

/// Many small co-resident schedulers: past this shard count, each shard's
/// calendar wheel drops to 64 buckets (the scheduler's minimum; a ~4 ms
/// window, enough for message latencies; periodic timers ride the
/// overflow heap). Purely a memory knob — the execution order is the
/// (at, seq) total order under any wheel geometry
/// (tests/scheduler_property_test.cpp).
constexpr std::size_t kCompactWheelShards = 8;

std::uint64_t shard_tag(std::uint64_t salt, std::uint64_t index) {
  return fnv1a_u64(kFnv1aBasis ^ salt, index);
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardedConfig
// ---------------------------------------------------------------------------

std::size_t ShardedConfig::total_capacity() const {
  return shards * shard.capacity();
}

void ShardedConfig::validate() const {
  PMC_EXPECTS(shards >= 1);
  shard.validate();
  for (const auto s : adaptive_shards) PMC_EXPECTS(s < shards);
  // Two protocol nodes per address, across every shard, must stay within
  // the same sanity bound ChurnConfig imposes on a single group — and the
  // pid ranges must fit comfortably in ProcessId.
  PMC_EXPECTS(total_capacity() <= (std::size_t{1} << 22));
  PMC_EXPECTS(barrier_interval >= 0);
  if (cross.publishers > 0) {
    PMC_EXPECTS(cross.span >= 1 && cross.span <= shards);
    PMC_EXPECTS(cross.events >= 1);
    PMC_EXPECTS(cross.start >= 0);
    PMC_EXPECTS(cross.spacing >= 0);
    if (cross.spacing > 0) {
      // The last event of every publisher must stay representable.
      const auto last = static_cast<std::uint64_t>(cross.events - 1);
      PMC_EXPECTS(last <= static_cast<std::uint64_t>(
                              std::numeric_limits<SimTime>::max() /
                              cross.spacing));
      const SimTime spread = static_cast<SimTime>(last) * cross.spacing;
      PMC_EXPECTS(cross.start <=
                  std::numeric_limits<SimTime>::max() - spread);
    }
  }
}

// ---------------------------------------------------------------------------
// ShardRouter
// ---------------------------------------------------------------------------

ShardRouter::ShardRouter(std::vector<ChurnSim*> shards,
                         std::vector<Rng> picks)
    : shards_(std::move(shards)), picks_(std::move(picks)) {
  PMC_EXPECTS(!shards_.empty());
  PMC_EXPECTS(picks_.size() == shards_.size());
  for (const auto* shard : shards_) PMC_EXPECTS(shard != nullptr);
  pending_.resize(shards_.size() + 1);
}

void ShardRouter::enqueue(const EventId& id, double u,
                          std::span<const std::size_t> targets,
                          std::size_t source) {
  const std::size_t slot = source == kExternalSource ? 0 : source + 1;
  PMC_EXPECTS(slot < pending_.size());
  Pending p{id, u, {}};
  p.targets.reserve(targets.size());
  for (const auto t : targets) {
    PMC_EXPECTS(t < shards_.size());
    p.targets.push_back(t);
  }
  pending_[slot].push_back(std::move(p));
}

bool ShardRouter::publish_into(std::size_t target, const EventId& id,
                               double u) {
  PMC_EXPECTS(target < shards_.size());
  return shards_[target]->publish_external(id, u, picks_[target]);
}

std::uint64_t ShardRouter::drain() {
  std::uint64_t landed = 0;
  for (auto& buffer : pending_) {
    for (const auto& p : buffer) {
      for (const auto t : p.targets) {
        if (publish_into(t, p.id, p.u)) ++landed;
      }
    }
    buffer.clear();
  }
  return landed;
}

// ---------------------------------------------------------------------------
// ShardedSummary
// ---------------------------------------------------------------------------

std::string ShardedSummary::to_string(bool per_shard) const {
  std::ostringstream out;
  out << "shards " << shards.size() << " | cross published "
      << cross_published << " | " << aggregate.to_string() << " | net sent "
      << network.sent << " lost " << network.lost << " filtered "
      << network.filtered << " | sched " << scheduler_executed
      << " | fingerprint " << std::hex << fingerprint << std::dec;
  if (per_shard) {
    for (std::size_t s = 0; s < shards.size(); ++s)
      out << "\n  shard " << s << ": " << shards[s].to_string();
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// ShardedSim
// ---------------------------------------------------------------------------

ShardedSim::ShardedSim(ShardedConfig config) : config_(config) {
  config_.validate();
  barrier_interval_ = config_.barrier_interval > 0 ? config_.barrier_interval
                                                   : config_.shard.period;

  NetworkConfig net;
  net.loss_probability = config_.shard.loss;
  net.latency_min = config_.shard.latency_min;
  net.latency_max = config_.shard.latency_max;

  SchedulerTuning tuning;
  if (config_.shards >= kCompactWheelShards) tuning.bucket_count_log2 = 6;

  const std::size_t capacity = config_.shard.capacity();
  runtimes_.reserve(config_.shards);
  interns_.reserve(config_.shards);
  shards_.reserve(config_.shards);
  cross_.resize(config_.shards);
  std::vector<Rng> picks;
  picks.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    ChurnConfig cfg = config_.shard;
    // Per-shard subscription seed: same address, different shard -> an
    // independent interest profile.
    cfg.seed = fnv1a_u64(shard_tag(kShardSeedSalt, s), config_.shard.seed);
    if (!config_.adaptive_shards.empty()) {
      cfg.adaptive = std::find(config_.adaptive_shards.begin(),
                               config_.adaptive_shards.end(),
                               s) != config_.adaptive_shards.end();
    }
    // Every runtime is seeded with the *master* seed: labeled streams are
    // pure functions of (base seed, tag), so shard s's draws here equal
    // its draws when every shard shared one runtime — which is what keeps
    // the pre-split golden fingerprints valid.
    runtimes_.push_back(
        std::make_unique<Runtime>(net, config_.shard.seed, tuning));
    Runtime& rt = *runtimes_.back();
    // The shard's tables hold only its own pid range [s*2C, (s+1)*2C):
    // rebased dense tables, so 31k shards don't each allocate global-pid-
    // sized vectors. Draw labels still use the global pid.
    rt.network().reserve_range(static_cast<ProcessId>(s * 2 * capacity),
                               2 * capacity);
    // Every shard enumerates the same address space in the same order, so
    // per-shard intern tables assign identical AddrIds.
    interns_.push_back(std::make_unique<Interns>());
    Interns& interns = *interns_.back();
    interns.reserve(capacity, config_.shard.d);
    if (config_.shard.wire_transcode) {
      // Frames decode into the shard's own tables. The transcoder runs on
      // the shard's lane, the only one that touches them.
      rt.network().set_transcoder([&interns](const MessagePtr& msg) {
        return wire::decode_message(wire::encode_message(*msg), interns);
      });
    }
    shards_.push_back(std::make_unique<ChurnSim>(
        rt, cfg, static_cast<ProcessId>(s * 2 * capacity),
        shard_tag(kShardStreamSalt, s), interns));
    // No loss hook: a LossBurst's default set_loss lands on the shard's
    // own network, which is exactly the scope the hook used to enforce.
    picks.push_back(rt.make_stream(shard_tag(kRouterPickSalt, s)));
  }

  std::vector<ChurnSim*> raw;
  raw.reserve(shards_.size());
  for (const auto& shard : shards_) raw.push_back(shard.get());
  router_ = std::make_unique<ShardRouter>(std::move(raw), std::move(picks));
  schedule_cross_publishers();

  pool_ = std::make_unique<WorkerPool>(
      WorkerPool::resolve_threads(config_.threads, config_.shards));
}

ShardedSim::~ShardedSim() = default;

ChurnSim& ShardedSim::shard(std::size_t idx) {
  PMC_EXPECTS(idx < shards_.size());
  return *shards_[idx];
}

const ChurnSim& ShardedSim::shard(std::size_t idx) const {
  PMC_EXPECTS(idx < shards_.size());
  return *shards_[idx];
}

Runtime& ShardedSim::shard_runtime(std::size_t idx) {
  PMC_EXPECTS(idx < runtimes_.size());
  return *runtimes_[idx];
}

void ShardedSim::play(std::size_t shard_idx, const ScenarioScript& script) {
  shard(shard_idx).play(script);
}

void ShardedSim::play_all(const ScenarioScript& script) {
  for (const auto& shard : shards_) shard->play(script);
}

void ShardedSim::run_for(SimTime duration) { run_until(now_ + duration); }

void ShardedSim::run_until(SimTime deadline) {
  while (now_ < deadline) {
    const SimTime target = std::min(deadline, now_ + barrier_interval_);
    // Within the epoch every shard advances alone: no shared mutable
    // state, so lane assignment cannot affect outcomes. The pool's run()
    // is the barrier that publishes every shard's writes back.
    pool_->run(shards_.size(), [this, target](std::size_t s) {
      shards_[s]->run_until(target);
    });
    now_ = target;
    // Exchange buffered cross publishes at the barrier, in (source,
    // enqueue) order; they land at t = now and unfold next epoch.
    cross_drained_ += router_->drain();
  }
}

void ShardedSim::schedule_cross_publishers() {
  const auto& cross = config_.cross;
  for (std::size_t p = 0; p < cross.publishers; ++p) {
    for (std::size_t k = 0; k < cross.events; ++k) {
      const SimTime at =
          cross.start + static_cast<SimTime>(k) * cross.spacing;
      // The event's attribute depends only on (publisher, sequence), so a
      // shard's churn can never shift which events the others see.
      const double u =
          runtimes_.front()
              ->make_stream(fnv1a_u64(shard_tag(kCrossEventSalt, p), k))
              .next_double();
      const EventId id{kCrossPublisherIdBase + p, k};
      // One injection per spanned shard, pre-scheduled in that shard's own
      // queue (same relative order vs the shard's events as the shared-
      // scheduler engine gave: ctor-scheduled, (p, k) iteration order).
      for (std::size_t j = 0; j < cross.span; ++j) {
        const std::size_t s = (p + j) % config_.shards;
        const bool primary = j == 0;
        runtimes_[s]->scheduler().schedule_at(
            at, [this, s, id, u, primary] {
              ShardCross& c = cross_[s];
              ++c.runs;
              if (primary) ++c.primary;
              if (router_->publish_into(s, id, u)) ++c.landed;
            });
      }
    }
  }
}

std::uint64_t ShardedSim::cross_published() const noexcept {
  std::uint64_t landed = cross_drained_;
  for (const auto& c : cross_) landed += c.landed;
  return landed;
}

ShardedSummary ShardedSim::summary() const {
  ShardedSummary out;
  out.shards.reserve(shards_.size());
  std::uint64_t fp = kFnv1aBasis;
  std::uint64_t env_shards = 0, env_loss_acc = 0, env_crash_acc = 0;
  for (const auto& shard : shards_) {
    GroupSummary g = shard->group_summary();
    out.aggregate.counters += g.counters;
    out.aggregate.live += g.live;
    out.aggregate.joined += g.joined;
    out.aggregate.membership_tombstones += g.membership_tombstones;
    out.aggregate.joins_served += g.joins_served;
    out.aggregate.latency_samples += g.latency_samples;
    out.aggregate.latency_total += g.latency_total;
    out.aggregate.latency_max =
        std::max(out.aggregate.latency_max, g.latency_max);
    out.aggregate.env_windows += g.env_windows;
    out.aggregate.bound_collapsed += g.bound_collapsed;
    if (g.env_windows > 0) {
      env_loss_acc += g.env_loss_ppm;
      env_crash_acc += g.env_crash_ppm;
      ++env_shards;
    }
    fp = fnv1a_u64(fp, g.fingerprint);
    out.shards.push_back(std::move(g));
  }
  if (env_shards > 0) {
    // Unweighted mean over the estimating shards (display aggregate; the
    // per-shard summaries carry the exact values).
    out.aggregate.env_loss_ppm = env_loss_acc / env_shards;
    out.aggregate.env_crash_ppm = env_crash_acc / env_shards;
  }
  out.aggregate.fingerprint = fp;

  std::uint64_t executed = 0;
  std::uint64_t cross_runs = 0, cross_primary = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const NetworkCounters& nc = runtimes_[s]->network().counters();
    out.network.sent += nc.sent;
    out.network.delivered += nc.delivered;
    out.network.lost += nc.lost;
    out.network.filtered += nc.filtered;
    out.network.dead_target += nc.dead_target;
    executed += runtimes_[s]->scheduler().executed();
    cross_runs += cross_[s].runs;
    cross_primary += cross_[s].primary;
  }
  // The single-runtime engine ran ONE callback per cross event however
  // many shards it spanned; the per-shard queues run one per spanned
  // shard. Collapse the fan-out back so the digest (and its pinned
  // fingerprints) count events, not copies.
  out.scheduler_executed = executed - cross_runs + cross_primary;
  out.cross_published = cross_published();

  std::uint64_t h = fp;
  h = fnv1a_u64(h, out.network.sent);
  h = fnv1a_u64(h, out.network.delivered);
  h = fnv1a_u64(h, out.network.lost);
  h = fnv1a_u64(h, out.network.filtered);
  h = fnv1a_u64(h, out.network.dead_target);
  h = fnv1a_u64(h, out.scheduler_executed);
  h = fnv1a_u64(h, out.cross_published);
  out.fingerprint = h;
  return out;
}

}  // namespace pmc
