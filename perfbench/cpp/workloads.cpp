#include "workloads.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "addr/space.hpp"
#include "common/hash.hpp"
#include "common/stats.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "harness/shard.hpp"
#include "harness/workload.hpp"
#include "membership/tree.hpp"
#include "pmcast/node.hpp"
#include "pmcast/view_provider.hpp"

namespace perfbench {

using namespace pmc;

namespace {

// static-stream: paper Fig. 4 configuration, 50 events 150 ms apart.
StreamConfig stream_config(std::uint64_t seed) {
  StreamConfig sc;
  ExperimentConfig& c = sc.base;
  c.a = 22;
  c.d = 3;
  c.r = 3;
  c.fanout = 2;
  c.loss = 0.05;
  c.pd = 0.5;
  c.runs = 1;
  c.seed = seed;
  sc.events = 50;
  sc.inter_arrival = sim_ms(150);
  return sc;
}

// group-steady: one wide ChurnSim group, publishes only, no churn.
constexpr SimTime kGroupHorizon = sim_sec(3);

ChurnConfig group_config(std::uint64_t seed) {
  ChurnConfig c;
  c.a = 12;
  c.d = 3;
  c.r = 2;
  c.initial_fill = 0.8;
  c.loss = 0.02;
  c.seed = seed;
  return c;
}

ScenarioScript group_script(Variant v) {
  ScenarioScript s;
  if (v == Variant::Full) {
    for (int burst = 0; burst < 6; ++burst)
      s.add(sim_ms(300 + 200 * burst), PublishBurst{4, sim_ms(40)});
  }
  return s;
}

// shards-churn-wire: 1,000 narrow shards, each playing the churn demo,
// every message through the wire codec.
constexpr SimTime kShardsHorizon = sim_ms(3500);

ShardedConfig shards_config(std::uint64_t seed, std::size_t threads) {
  ShardedConfig c;
  c.shards = 1000;
  c.shard.a = 4;
  c.shard.d = 2;
  c.shard.initial_fill = 0.75;
  c.shard.loss = 0.02;
  c.shard.wire_transcode = true;
  c.shard.seed = seed;
  c.threads = threads;
  return c;
}

ScenarioScript shards_script(Variant v) {
  const ScenarioScript demo = ScenarioScript::demo();
  if (v == Variant::Full) return demo;
  ScenarioScript quiet;
  for (const auto& action : demo.actions()) {
    if (!std::holds_alternative<PublishBurst>(action.op))
      quiet.add(action.at, action.op);
  }
  return quiet;
}

NetworkConfig churn_network(const ChurnConfig& c) {
  NetworkConfig net;
  net.loss_probability = c.loss;
  net.latency_min = c.latency_min;
  net.latency_max = c.latency_max;
  return net;
}

/// ChurnSummary's / ShardedSummary's fingerprint tail, recomputed with the
/// traced run's sentinel events taken out of the executed count.
std::uint64_t fold_runtime_counters(std::uint64_t h, const NetworkCounters& n,
                                    std::uint64_t executed) {
  h = fnv1a_u64(h, n.sent);
  h = fnv1a_u64(h, n.delivered);
  h = fnv1a_u64(h, n.lost);
  h = fnv1a_u64(h, n.filtered);
  h = fnv1a_u64(h, n.dead_target);
  return fnv1a_u64(h, executed);
}

double mean_ms(std::uint64_t samples, SimTime total) {
  return samples == 0 ? 0.0
                      : static_cast<double>(total) /
                            static_cast<double>(samples) / 1000.0;
}

/// The static stream over its own stack: the same population, tree,
/// runtime seed and event stream run_stream_experiment builds, with a
/// deliver handler on every node for publish→deliver latency.
class StaticStream final : public Deployment {
 public:
  explicit StaticStream(std::uint64_t seed) : cfg_(stream_config(seed)) {
    const ExperimentConfig& c = cfg_.base;
    c.validate();
    Rng rng(c.seed);
    const auto space =
        AddressSpace::regular(static_cast<AddrComponent>(c.a), c.d);
    members_ = uniform_interest_members(space, c.pd, rng);
    interns_.reserve(members_.size(), c.d);
    TreeConfig tc;
    tc.depth = c.d;
    tc.redundancy = c.r;
    GroupTreeOptions opts;
    opts.coarsen_depth_leq = c.coarsen_depth_leq;
    tree_ = std::make_unique<GroupTree>(tc, members_, interns_, opts);
    views_ = std::make_unique<TreeViewProvider>(*tree_);
    for (std::size_t i = 0; i < members_.size(); ++i) {
      const AddrId id = interns_.addrs.intern(members_[i].address);
      if (pid_by_id_.size() <= id) pid_by_id_.resize(id + 1, kNoProcess);
      pid_by_id_[id] = static_cast<ProcessId>(i);
    }

    net_.loss_probability = c.loss;
    rt_ = std::make_unique<Runtime>(net_, c.seed ^ 0x5712ea30ULL);
    rt_->network().reserve(members_.size());
    const PmcastConfig node_config = c.pmcast_config();
    const auto directory = [this](AddrId id) {
      return id < pid_by_id_.size() ? pid_by_id_[id] : kNoProcess;
    };
    nodes_.reserve(members_.size());
    for (std::size_t i = 0; i < members_.size(); ++i) {
      nodes_.push_back(std::make_unique<PmcastNode>(
          *rt_, static_cast<ProcessId>(i), node_config, members_[i].address,
          members_[i].subscription, *views_, directory));
      nodes_.back()->set_deliver_handler([this](const Event& e) {
        latencies_.push_back(
            rt_->now() -
            static_cast<SimTime>(e.id().sequence) * cfg_.inter_arrival);
      });
    }

    Rng events_rng(c.seed ^ 0x5151515151ULL);
    events_.reserve(cfg_.events);
    for (std::uint64_t s = 0; s < cfg_.events; ++s) {
      const auto publisher =
          static_cast<ProcessId>(events_rng.next_below(nodes_.size()));
      Event e = make_uniform_event(publisher, s, events_rng);
      events_.push_back(e);
      rt_->scheduler().schedule_at(
          static_cast<SimTime>(s) * cfg_.inter_arrival,
          [this, publisher, e] { nodes_[publisher]->pmcast(e); });
    }
  }

  void run() override { rt_->run_until_idle(); }

  void run_traced(TraceResult& out) override {
    NetTrace probe;
    install_probe(*rt_, /*wire=*/false, probe);
    const auto t0 = Clock::now();
    step_until_idle(rt_->scheduler(), out.steps);
    out.run_s = seconds_since(t0);
    remove_probe(*rt_, probe);
    out.replay_s = replay_sends(probe.sends, net_, 0, nodes_.size());
    out.net.merge_counts(probe);
  }

  Outcome outcome() const override {
    Outcome o;
    o.processes = nodes_.size();
    o.sim_s = static_cast<double>(rt_->now()) / 1e6;
    o.events = rt_->scheduler().executed();
    o.net = rt_->network().counters();

    std::uint64_t h = kFnv1aBasis;
    for (const auto& node : nodes_) {
      const PmcastNode::Stats& p = node->stats();
      o.published += p.published;
      o.dup_suppressed += p.dup_suppressed;
      o.bound_collapsed += p.bound_collapsed;
      o.shed_events += p.shed_events;
      for (const std::uint64_t v :
           {p.published, p.received, p.delivered, p.gossips_sent,
            p.rounds_run, p.bound_collapsed, p.leaf_floods, p.digests_sent,
            p.recoveries})
        h = fnv1a_u64(h, v);
    }
    o.fingerprint = fold_runtime_counters(h, o.net, o.events);

    Summary per_event;
    for (const Event& e : events_) {
      std::size_t interested = 0, delivered = 0;
      for (const auto& node : nodes_) {
        if (!node->alive() || !node->interested_in(e)) continue;
        ++interested;
        if (node->has_delivered(e.id())) ++delivered;
      }
      o.owed += interested;
      o.delivered += delivered;
      per_event.add(interested == 0 ? 1.0
                                    : static_cast<double>(delivered) /
                                          static_cast<double>(interested));
    }

    Summary latency_ms;
    SimTime total = 0;
    for (const SimTime l : latencies_) {
      latency_ms.add(static_cast<double>(l) / 1000.0);
      total += l;
    }
    o.latency_mean_ms = mean_ms(latencies_.size(), total);
    o.latency_tail_ms = latency_ms.quantile(0.99);

    StreamFigures f;
    f.per_event_mean = per_event.mean();
    f.per_event_min = per_event.min();
    f.per_event_max = per_event.max();
    f.events = per_event.count();
    f.messages_per_event_per_process =
        static_cast<double>(o.net.sent) /
        static_cast<double>(cfg_.events) /
        static_cast<double>(nodes_.size());
    const SimTime last_publish =
        static_cast<SimTime>(cfg_.events - 1) * cfg_.inter_arrival;
    f.drain_periods = static_cast<double>(rt_->now() - last_publish) /
                      static_cast<double>(cfg_.base.period);
    o.stream = f;
    return o;
  }

 private:
  StreamConfig cfg_;
  std::vector<Member> members_;
  Interns interns_;  // before tree_, which refers to it
  std::unique_ptr<GroupTree> tree_;
  std::unique_ptr<TreeViewProvider> views_;
  std::vector<ProcessId> pid_by_id_;
  NetworkConfig net_;
  std::unique_ptr<Runtime> rt_;
  std::vector<std::unique_ptr<PmcastNode>> nodes_;
  std::vector<Event> events_;
  std::vector<SimTime> latencies_;
};

class GroupSteady final : public Deployment {
 public:
  GroupSteady(std::uint64_t seed, Variant v) : sim_(group_config(seed)) {
    const ScenarioScript script = group_script(v);
    if (!script.empty()) sim_.play(script);
  }

  void run() override { sim_.run_until(kGroupHorizon); }

  void run_traced(TraceResult& out) override {
    NetTrace probe;
    Runtime& rt = sim_.runtime();
    install_probe(rt, /*wire=*/false, probe);
    const auto t0 = Clock::now();
    step_until(rt.scheduler(), kGroupHorizon, out.steps);
    out.run_s = seconds_since(t0);
    sentinels_ = 1;
    remove_probe(rt, probe);
    out.replay_s = replay_sends(probe.sends, churn_network(sim_.config()), 0,
                                2 * sim_.config().capacity());
    out.net.merge_counts(probe);
  }

  Outcome outcome() const override {
    const ChurnSummary s = sim_.summary();
    Outcome o;
    o.events = s.scheduler_executed - sentinels_;
    o.fingerprint =
        sentinels_ == 0
            ? s.fingerprint
            : fold_runtime_counters(sim_.group_summary().fingerprint,
                                    s.network, o.events);
    o.net = s.network;
    o.processes = 2 * sim_.config().capacity();
    o.sim_s = static_cast<double>(kGroupHorizon) / 1e6;
    o.published = s.counters.published;
    o.delivered = s.counters.delivered;
    o.owed = s.counters.expected_deliveries;
    o.latency_mean_ms = mean_ms(s.latency_samples, s.latency_total);
    o.latency_tail_ms = static_cast<double>(s.latency_max) / 1000.0;
    o.dup_suppressed = s.dup_suppressed;
    o.bound_collapsed = s.bound_collapsed;
    o.shed_events = s.shed_events;
    return o;
  }

 private:
  ChurnSim sim_;
  std::uint64_t sentinels_ = 0;
};

class ShardsChurnWire final : public Deployment {
 public:
  ShardsChurnWire(std::uint64_t seed, Variant v, std::size_t threads)
      : sim_(shards_config(seed, threads)) {
    sim_.play_all(shards_script(v));
  }

  void run() override { sim_.run_until(kShardsHorizon); }

  /// Serial, in ShardedSim's own order: barrier epochs of one gossip
  /// period, each shard's scheduler stepped to the epoch end in turn, as
  /// threads = 1 runs them. Without cross-shard publishers the barrier
  /// exchange carries nothing, so this ends in the same state as
  /// ShardedSim::run_until at any thread count. Each shard has its own
  /// probe; replays run after the traced loop.
  void run_traced(TraceResult& out) override {
    const ChurnConfig& shard = sim_.config().shard;
    const std::size_t shards = sim_.shard_count();
    std::vector<NetTrace> probes(shards);
    for (std::size_t s = 0; s < shards; ++s)
      install_probe(sim_.shard_runtime(s), /*wire=*/true, probes[s]);
    for (SimTime now = 0; now < kShardsHorizon;) {
      const SimTime target = std::min(kShardsHorizon, now + shard.period);
      const auto t0 = Clock::now();
      for (std::size_t s = 0; s < shards; ++s)
        step_until(sim_.shard_runtime(s).scheduler(), target, out.steps);
      out.run_s += seconds_since(t0);
      sentinels_ += shards;
      now = target;
    }
    const std::size_t pids = 2 * shard.capacity();
    SchedulerTuning tuning;
    tuning.bucket_count_log2 = 6;  // ShardedSim's compact per-shard wheel
    for (std::size_t s = 0; s < shards; ++s) {
      remove_probe(sim_.shard_runtime(s), probes[s]);
      out.replay_s +=
          replay_sends(probes[s].sends, churn_network(shard),
                       static_cast<ProcessId>(s * pids), pids, tuning);
      out.net.merge_counts(probes[s]);
      probes[s].sends = {};
    }
  }

  Outcome outcome() const override {
    const ShardedSummary s = sim_.summary();
    Outcome o;
    o.events = s.scheduler_executed - sentinels_;
    o.fingerprint =
        sentinels_ == 0
            ? s.fingerprint
            : fnv1a_u64(fold_runtime_counters(s.aggregate.fingerprint,
                                              s.network, o.events),
                        s.cross_published);
    o.net = s.network;
    o.processes = 2 * sim_.config().total_capacity();
    o.sim_s = static_cast<double>(kShardsHorizon) / 1e6;
    const GroupSummary& g = s.aggregate;
    o.published = g.counters.published;
    o.delivered = g.counters.delivered;
    o.owed = g.counters.expected_deliveries;
    o.latency_mean_ms = mean_ms(g.latency_samples, g.latency_total);
    o.latency_tail_ms = static_cast<double>(g.latency_max) / 1000.0;
    o.bound_collapsed = g.bound_collapsed;
    for (const GroupSummary& shard : s.shards) {
      o.dup_suppressed += shard.dup_suppressed;
      o.shed_events += shard.shed_events;
    }
    return o;
  }

 private:
  ShardedSim sim_;
  std::uint64_t sentinels_ = 0;
};

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::StaticStream, Workload::GroupSteady,
                           Workload::ShardsChurnWire}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::StaticStream:
      return "static-stream";
    case Workload::GroupSteady:
      return "group-steady";
    case Workload::ShardsChurnWire:
      return "shards-churn-wire";
  }
  return "?";
}

std::unique_ptr<Deployment> make_deployment(Workload w, std::uint64_t seed,
                                            Variant v, std::size_t threads) {
  switch (w) {
    case Workload::StaticStream:
      return std::make_unique<StaticStream>(seed);
    case Workload::GroupSteady:
      return std::make_unique<GroupSteady>(seed, v);
    case Workload::ShardsChurnWire:
      return std::make_unique<ShardsChurnWire>(seed, v, threads);
  }
  return nullptr;
}

StreamFigures library_stream_figures(std::uint64_t seed) {
  const StreamResult r = run_stream_experiment(stream_config(seed));
  StreamFigures f;
  f.per_event_mean = r.per_event_delivery.mean();
  f.per_event_min = r.per_event_delivery.min();
  f.per_event_max = r.per_event_delivery.max();
  f.events = r.per_event_delivery.count();
  f.messages_per_event_per_process = r.messages_per_event_per_process;
  f.drain_periods = r.drain_periods;
  return f;
}

std::size_t threaded_lanes() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, hw);
}

}  // namespace perfbench
