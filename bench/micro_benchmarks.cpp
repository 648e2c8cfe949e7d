// MICRO — engineering micro-benchmarks (google-benchmark): the operations on
// pmcast's hot paths and the ablations DESIGN.md §6 calls out.
//  * subscription matching (individual and regrouped summaries),
//  * interest regrouping (exact interval union) and coarsened matching,
//  * delegate election,
//  * GroupTree construction and incremental membership updates,
//  * Markov-chain / Pittel analysis evaluation,
//  * one full simulated dissemination at a mid-size scale.
#include <benchmark/benchmark.h>

#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/markov.hpp"
#include "analysis/tree_analysis.hpp"
#include "bench_common.hpp"
#include "harness/experiment.hpp"
#include "membership/election.hpp"
#include "membership/sync.hpp"
#include "membership/tree.hpp"
#include "pmcast/node.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace pmc;

void BM_SubscriptionMatch(benchmark::State& state) {
  const auto sub = Subscription::parse(
      "b > 1 && 20.0 < c && c < 30.0 && z <= 50000");
  Event e;
  e.with("b", 2).with("c", 25.0).with("z", 1000);
  for (auto _ : state) benchmark::DoNotOptimize(sub.match(e));
}
BENCHMARK(BM_SubscriptionMatch);

void BM_SummaryMatch(benchmark::State& state) {
  // A regrouped summary over `range(0)` interval subscriptions: matching is
  // a binary search over the merged interval set.
  Rng rng(1);
  InterestSummary summary;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    summary.merge(InterestSummary::from(
        interval_subscription(rng.next_double(), 0.05)));
  const Event e = make_event_at(0, 0, 0.5);
  for (auto _ : state) benchmark::DoNotOptimize(summary.match(e));
}
BENCHMARK(BM_SummaryMatch)->Arg(8)->Arg(64)->Arg(512);

void BM_NaiveDisjunctionMatch(benchmark::State& state) {
  // Ablation baseline: matching the same interests WITHOUT regrouping is a
  // linear scan over all subscriptions (what Sec. 2.3 tells us to avoid).
  Rng rng(1);
  std::vector<Subscription> subs;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    subs.push_back(interval_subscription(rng.next_double(), 0.05));
  const Event e = make_event_at(0, 0, 0.5);
  for (auto _ : state) {
    bool any = false;
    for (const auto& s : subs) any = any || s.match(e);
    benchmark::DoNotOptimize(any);
  }
}
BENCHMARK(BM_NaiveDisjunctionMatch)->Arg(8)->Arg(64)->Arg(512);

void BM_InterestRegrouping(benchmark::State& state) {
  Rng rng(2);
  std::vector<Subscription> subs;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    subs.push_back(interval_subscription(rng.next_double(), 0.1));
  for (auto _ : state) {
    InterestSummary summary;
    for (const auto& s : subs) summary.merge(InterestSummary::from(s));
    benchmark::DoNotOptimize(summary.complexity());
  }
}
BENCHMARK(BM_InterestRegrouping)->Arg(8)->Arg(64)->Arg(256);

void BM_DelegateElection(benchmark::State& state) {
  Rng rng(3);
  const auto space = AddressSpace::regular(64, 3);
  const auto members = space.sample(static_cast<std::size_t>(state.range(0)),
                                    rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(elect_delegates(members, 3));
}
BENCHMARK(BM_DelegateElection)->Arg(16)->Arg(128)->Arg(1024);

void BM_GroupTreeBuild(benchmark::State& state) {
  const auto a = static_cast<AddrComponent>(state.range(0));
  Rng rng(4);
  const auto members =
      uniform_interest_members(AddressSpace::regular(a, 3), 0.5, rng);
  TreeConfig tc;
  tc.depth = 3;
  tc.redundancy = 3;
  for (auto _ : state) {
    Interns interns;
    GroupTree tree(tc, members, interns);
    benchmark::DoNotOptimize(tree.process_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(members.size()));
}
BENCHMARK(BM_GroupTreeBuild)->Arg(6)->Arg(12)->Arg(22)->Unit(benchmark::kMillisecond);

void BM_GroupTreeChurn(benchmark::State& state) {
  Rng rng(5);
  const auto members =
      uniform_interest_members(AddressSpace::regular(12, 3), 0.5, rng);
  TreeConfig tc;
  tc.depth = 3;
  tc.redundancy = 3;
  Interns interns;
  GroupTree tree(tc, members, interns);
  const Address victim = members[members.size() / 2].address;
  const Subscription sub = members[members.size() / 2].subscription;
  for (auto _ : state) {
    tree.remove_member(victim);
    tree.add_member(victim, sub);
  }
}
BENCHMARK(BM_GroupTreeChurn);

// --- Membership hot loops over the struct-of-arrays DepthView ------------

/// Builds a view of `n` rows, 2 delegates each, interests drawn from a small
/// recurring set (realistic: subscriptions repeat, which is what lets the
/// view pool them).
void soa_view(std::size_t n, Interns& interns, DepthView& v) {
  Rng rng(9);
  std::vector<std::shared_ptr<const InterestSummary>> pool;
  for (int i = 0; i < 64; ++i)
    pool.push_back(interns.summaries.intern(
        InterestSummary::from(interval_subscription(rng.next_double(), 0.05))));
  v.bind(interns);
  for (std::size_t i = 0; i < n; ++i) {
    const auto infix = static_cast<AddrComponent>(i);
    const AddrId delegates[] = {
        interns.addrs.intern(Address(std::vector<AddrComponent>{infix, 0})),
        interns.addrs.intern(Address(std::vector<AddrComponent>{infix, 1})),
    };
    v.upsert_pooled(infix, delegates, pool[i % pool.size()], 3, i + 1, true);
  }
}

void BM_RecompactScanSoA(benchmark::State& state) {
  // The SyncNode::recompact_own_rows inner loop: merge live interests,
  // gather delegate candidates, sum process counts.
  Interns interns;
  DepthView v;
  soa_view(static_cast<std::size_t>(state.range(0)), interns, v);
  std::vector<AddrId> candidates;
  for (auto _ : state) {
    InterestSummary summary;
    candidates.clear();
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (!v.alive(i)) continue;
      summary.merge(v.interests(i));
      const auto ids = v.delegates(i);
      candidates.insert(candidates.end(), ids.begin(), ids.end());
      count += v.process_count(i);
    }
    benchmark::DoNotOptimize(count);
    benchmark::DoNotOptimize(candidates.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RecompactScanSoA)->Arg(1024)->Arg(16384);

void BM_DigestBuildSoA(benchmark::State& state) {
  // SyncNode::make_digest: one (depth, infix, version) triple per row.
  Interns interns;
  DepthView v;
  soa_view(static_cast<std::size_t>(state.range(0)), interns, v);
  std::vector<RowDigest> out;
  for (auto _ : state) {
    out.clear();
    for (std::size_t i = 0; i < v.size(); ++i)
      out.push_back(RowDigest{1, v.infix(i), v.version(i)});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DigestBuildSoA)->Arg(1024)->Arg(16384);

// --- Scheduler: calendar queue vs indexed heap vs tombstone queue ----------

/// Replica of the scheduler this repo shipped with before the indexed-heap
/// rewrite: std::priority_queue + two side hash-sets, lazy tombstones for
/// cancel, one std::function allocation per event. Kept here verbatim (minus
/// contracts) as the baseline BM_SchedulerIndexedHeap* is measured against.
class LegacyScheduler {
 public:
  using Token = std::uint64_t;

  Token schedule_at(SimTime at, std::function<void()> fn) {
    const Token token = next_token_++;
    queue_.push(Item{at, token, std::move(fn)});
    live_.insert(token);
    return token;
  }
  void cancel(Token token) {
    if (live_.erase(token) != 0) cancelled_.insert(token);
  }
  bool step() {
    while (!queue_.empty()) {
      Item item = std::move(const_cast<Item&>(queue_.top()));
      queue_.pop();
      const auto it = cancelled_.find(item.token);
      if (it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      live_.erase(item.token);
      now_ = item.at;
      item.fn();
      return true;
    }
    return false;
  }
  void run() {
    while (step()) {
    }
  }
  SimTime now() const noexcept { return now_; }

 private:
  struct Item {
    SimTime at;
    Token token;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.token > b.token;
    }
  };
  std::priority_queue<Item, std::vector<Item>, Later> queue_;
  std::unordered_set<Token> live_;
  std::unordered_set<Token> cancelled_;
  SimTime now_ = 0;
  Token next_token_ = 1;
};

/// The simulator's dominant scheduler workload: every in-flight message is
/// one schedule+run, and every periodic timer is a schedule/cancel/reschedule
/// churn. Models both: `n` events scheduled at pseudo-random times, every
/// second one cancelled and replaced, then the queue drained.
template <class SchedulerT>
void scheduler_churn(SchedulerT& sched, std::size_t n,
                     std::uint64_t& sink) {
  std::vector<std::uint64_t> tokens;
  tokens.reserve(n);
  Rng rng(42);
  const SimTime base = sched.now();
  for (std::size_t i = 0; i < n; ++i) {
    const SimTime at = base + static_cast<SimTime>(rng.next_below(1000));
    tokens.push_back(
        sched.schedule_at(at, [&sink] { benchmark::DoNotOptimize(++sink); }));
  }
  for (std::size_t i = 0; i < n; i += 2) {
    sched.cancel(tokens[i]);
    const SimTime at = base + static_cast<SimTime>(rng.next_below(1000));
    sched.schedule_at(at, [&sink] { benchmark::DoNotOptimize(++sink); });
  }
  sched.run();
}

void BM_SchedulerLegacyTombstones(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    LegacyScheduler sched;
    scheduler_churn(sched, n, sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n + n / 2));
}
BENCHMARK(BM_SchedulerLegacyTombstones)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_SchedulerReferenceHeap(benchmark::State& state) {
  // PR 1's indexed binary heap, now the behavioral oracle
  // (sim/reference_scheduler.hpp).
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    ReferenceScheduler sched;
    scheduler_churn(sched, n, sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n + n / 2));
}
BENCHMARK(BM_SchedulerReferenceHeap)->Arg(1024)->Arg(16384)->Arg(131072);

void BM_SchedulerCalendarQueue(benchmark::State& state) {
  // The production scheduler: two-level calendar queue with same-time
  // cohort batching (this is the figure the perf-smoke CI job gates on).
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    CalendarScheduler sched;
    scheduler_churn(sched, n, sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n + n / 2));
}
BENCHMARK(BM_SchedulerCalendarQueue)->Arg(1024)->Arg(16384)->Arg(131072);

// --- Network send path: per-send cost, single vs shared fan-out ------------

struct SendSink {
  std::uint64_t count = 0;
};

void network_send_bench(benchmark::State& state, bool multi) {
  constexpr std::size_t kTargets = 64;
  Scheduler sched;
  Network net(sched, NetworkConfig{}, Rng(11));
  net.reserve(kTargets);
  SendSink sink;
  std::vector<ProcessId> targets;
  for (ProcessId id = 0; id < kTargets; ++id) {
    net.attach(id, &sink, [](void* s, ProcessId, const MessagePtr&) {
      ++static_cast<SendSink*>(s)->count;
    });
    if (id != 0) targets.push_back(id);
  }
  const MessagePtr msg = std::make_shared<MessageBase>();
  for (auto _ : state) {
    if (multi) {
      net.send_multi(0, targets, msg);
    } else {
      for (const auto to : targets) net.send(0, to, msg);
    }
    sched.run();  // drain the deliveries
  }
  benchmark::DoNotOptimize(sink.count);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(targets.size()));
}

void BM_NetworkSendSingle(benchmark::State& state) {
  network_send_bench(state, /*multi=*/false);
}
BENCHMARK(BM_NetworkSendSingle);

void BM_NetworkSendMulti(benchmark::State& state) {
  network_send_bench(state, /*multi=*/true);
}
BENCHMARK(BM_NetworkSendMulti);

// --- Message dispatch: dynamic_cast chain vs MsgKind switch ----------------

std::vector<MessagePtr> mixed_messages(std::size_t n) {
  std::vector<MessagePtr> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 4) {
      case 0: {
        auto m = std::make_shared<GossipMsg>();
        m->event = std::make_shared<const Event>(EventId{1, i});
        out.push_back(std::move(m));
        break;
      }
      case 1: out.push_back(std::make_shared<EventDigestMsg>()); break;
      case 2: out.push_back(std::make_shared<EventRequestMsg>()); break;
      default: out.push_back(std::make_shared<EventPayloadMsg>()); break;
    }
  }
  return out;
}

void BM_DispatchDynamicCast(benchmark::State& state) {
  // The seed's PmcastNode::on_message dispatch: try each subclass in turn.
  const auto msgs = mixed_messages(1024);
  for (auto _ : state) {
    std::size_t matched = 0;
    for (const auto& msg : msgs) {
      if (dynamic_cast<const EventDigestMsg*>(msg.get()) != nullptr)
        matched += 1;
      else if (dynamic_cast<const EventRequestMsg*>(msg.get()) != nullptr)
        matched += 2;
      else if (dynamic_cast<const EventPayloadMsg*>(msg.get()) != nullptr)
        matched += 3;
      else if (dynamic_cast<const GossipMsg*>(msg.get()) != nullptr)
        matched += 4;
    }
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DispatchDynamicCast);

void BM_DispatchKindSwitch(benchmark::State& state) {
  const auto msgs = mixed_messages(1024);
  for (auto _ : state) {
    std::size_t matched = 0;
    for (const auto& msg : msgs) {
      switch (msg->kind) {
        case MsgKind::EventDigest: matched += 1; break;
        case MsgKind::EventRequest: matched += 2; break;
        case MsgKind::EventPayload: matched += 3; break;
        case MsgKind::Gossip: matched += 4; break;
        default: break;
      }
    }
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DispatchKindSwitch);

void BM_PittelEstimate(benchmark::State& state) {
  const RoundEstimator est;
  EnvParams env;
  env.loss = 0.05;
  double n = 10648.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.faulty(n, 2.0, env));
  }
}
BENCHMARK(BM_PittelEstimate);

void BM_MarkovChainExpectation(benchmark::State& state) {
  const auto chain = InfectionChain::flat(
      static_cast<std::size_t>(state.range(0)), 2.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(chain.expected_infected(10, 1));
}
BENCHMARK(BM_MarkovChainExpectation)->Arg(22)->Arg(66)->Arg(200);

void BM_TreeAnalysis(benchmark::State& state) {
  TreeAnalysisParams p;
  p.a = 22;
  p.d = 3;
  p.r = 3;
  p.fanout = 2;
  p.pd = 0.5;
  p.env.loss = 0.05;
  for (auto _ : state) benchmark::DoNotOptimize(analyze_tree(p));
}
BENCHMARK(BM_TreeAnalysis);

void BM_FullDisseminationRun(benchmark::State& state) {
  // One complete single-event dissemination at n = a^3 per iteration
  // (tree construction amortized by the harness across runs).
  const auto a = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 100;
  for (auto _ : state) {
    ExperimentConfig config;
    config.a = a;
    config.d = 3;
    config.r = 3;
    config.fanout = 2;
    config.pd = 0.5;
    config.loss = 0.05;
    config.runs = 1;
    config.seed = seed++;
    benchmark::DoNotOptimize(run_pmcast_experiment(config));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a * a * a));
}
BENCHMARK(BM_FullDisseminationRun)->Arg(8)->Arg(12)->Unit(benchmark::kMillisecond);

/// Mirrors every finished run into the pmcast-bench-v1 JSON (one "micro"
/// table: name, items_per_second, real ns/op) so the perf-smoke CI job and
/// the committed BENCH_*.json snapshots share one schema with the table
/// benches.
class JsonCollector final : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context&) override { return true; }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;  // skip aggregates
      double items_per_second = 0.0;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) items_per_second = it->second;
      const double ns_per_op =
          run.iterations > 0
              ? run.real_accumulated_time * 1e9 /
                    static_cast<double>(run.iterations)
              : 0.0;
      rows_.push_back({run.benchmark_name(),
                       pmc::Table::num(items_per_second, 1),
                       pmc::Table::num(ns_per_op, 1)});
    }
  }

  void flush_to(pmc::bench::JsonWriter& json) const {
    json.add_table("micro", {"name", "items_per_second", "real_ns_per_op"},
                   rows_);
  }

 private:
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): google-benchmark rejects flags
// it does not know, so `--json <file>` is peeled off the command line
// before Initialize() sees it.
int main(int argc, char** argv) {
  pmc::bench::JsonWriter json(argc, argv, "micro_benchmarks");
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      ++i;  // skip the flag and its value
      continue;
    }
    args.push_back(argv[i]);
  }
  // The library refuses a custom file reporter unless --benchmark_out is
  // set; the collector never writes to that stream, so route it nowhere.
  // detlint:allow(thread-confinement) argv storage built once in main before any threads
  static std::string dev_null = "--benchmark_out=/dev/null";
  if (json.enabled()) args.push_back(dev_null.data());
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
    return 1;
  if (json.enabled()) {
    JsonCollector collector;
    benchmark::RunSpecifiedBenchmarks(nullptr, &collector);
    collector.flush_to(json);
    json.write();
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
