// perfbench — the repo benchmark's measuring program. run.py builds it and
// runs one workload per process (peak RSS is per process):
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Untraced (--trace 0): whole batches (set up, run, summarize) start while
// less than --seconds has passed, at least two; every batch of a seed must
// produce the same Outcome. Prints the end-to-end metrics (medians over
// batches).
//
// Traced (--trace 1): one untraced batch as the reference, one traced batch
// that must reproduce it, plus the comparison runs the layer metrics need
// (publishes removed; threads = 1; the library's own stream experiment).
// Prints the per-layer metrics. --seconds does not apply.
//
// Output is one JSON object on stdout; run.py turns it into the result
// line. --tamper flips one fingerprint bit, so the self-test can check
// that a mismatch is reported as a failed run.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "probe.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Options {
  Workload workload = Workload::StaticStream;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool tamper = false;
};

struct Batch {
  double setup_s = 0.0;
  double run_s = 0.0;
  Outcome outcome;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Collects the checks' verdicts and the metrics, and prints them.
class Report {
 public:
  void check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  void metric(const std::string& name, double value, const char* unit) {
    metrics_[name] = Metric{value, unit};
  }
  void count_published(std::uint64_t n) { attempted_ += n; }

  void print(const Options& opt, const Outcome& o,
             const std::vector<double>& run_s,
             const std::vector<double>& setup_s) const {
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d",
                workload_name(opt.workload),
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
    std::printf(
        ", \"host\": {\"nproc\": %u, \"lanes\": %zu, \"compiler\": \"%s\", "
        "\"build_type\": \"%s\"}",
        std::thread::hardware_concurrency(), threaded_lanes(),
        PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
    std::printf(", \"fingerprint\": \"%016llx\", \"sim_events\": %llu",
                static_cast<unsigned long long>(o.fingerprint),
                static_cast<unsigned long long>(o.events));
    print_list("run_s", run_s);
    print_list("setup_s", setup_s);
    std::printf(", \"checks_failed\": [");
    for (std::size_t i = 0; i < failures_.size(); ++i)
      std::printf("%s\"%s\"", i ? ", " : "", failures_[i].c_str());
    const bool correct = failures_.empty();
    std::printf("], \"correct\": %s, \"attempted\": %llu, \"failed\": %llu",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(correct ? 0 : attempted_));
    std::printf(", \"metrics\": {");
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
      first = false;
    }
    std::printf("}}\n");
  }

 private:
  static void print_list(const char* key, const std::vector<double>& v) {
    std::printf(", \"%s\": [", key);
    for (std::size_t i = 0; i < v.size(); ++i)
      std::printf("%s%.6f", i ? ", " : "", v[i]);
    std::printf("]");
  }

  std::vector<std::string> failures_;
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
};

constexpr std::size_t kMinSetups = 15;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // Linux: KiB
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

Batch run_batch(const Options& opt, Variant v, std::size_t threads) {
  Batch b;
  auto t0 = Clock::now();
  std::unique_ptr<Deployment> dep =
      make_deployment(opt.workload, opt.seed, v, threads);
  b.setup_s = seconds_since(t0);
  t0 = Clock::now();
  dep->run();
  b.run_s = seconds_since(t0);
  b.outcome = dep->outcome();
  return b;
}

void check_outcome(Report& r, const Outcome& o, const char* which) {
  r.check(o.delivered <= o.owed,
          std::string(which) + ": delivered exceeds owed");
  r.check(o.published > 0, std::string(which) + ": nothing was published");
}

void check_same(Report& r, const Outcome& a, const Outcome& b,
                const std::string& what) {
  if (a == b) return;
  r.check(a.fingerprint == b.fingerprint, what + ": fingerprint differs");
  r.check(a.events == b.events, what + ": sim.events differs");
  r.check(false, what + ": outcome differs");
}

/// The end-to-end metrics every untraced run reports. `setup` holds every
/// set-up timed in the run, the batches' and the extra ones.
void end_to_end(Report& r, const std::vector<Batch>& batches,
                const std::vector<double>& setup) {
  std::vector<double> run;
  for (const Batch& b : batches) run.push_back(b.run_s);
  const Outcome& o = batches.front().outcome;
  const double procs = static_cast<double>(o.processes);
  const double run_s = median(run);
  r.metric("setup_s", median(setup), "s");
  r.metric("run_s", run_s, "s");
  r.metric("sim_rate", procs * o.sim_s / run_s, "proc-s/s");
  r.metric("rss_b_per_proc", peak_rss_bytes() / procs, "B");
  r.metric("delivery_ratio", ratio(static_cast<double>(o.delivered),
                                   static_cast<double>(o.owed)),
           "ratio");
  r.metric("latency_mean_ms", o.latency_mean_ms, "ms");
  r.metric("latency_p99_ms", o.latency_tail_ms, "ms");
  r.metric("msgs_per_proc_s",
           static_cast<double>(o.net.sent) / procs / o.sim_s, "1/s");
}

int run_untraced(const Options& opt) {
  Report r;
  const std::size_t threads = threaded_lanes();
  std::vector<Batch> batches;
  std::vector<double> run_s;
  const auto start = Clock::now();
  while (batches.size() < 2 || seconds_since(start) < opt.seconds) {
    batches.push_back(run_batch(opt, Variant::Full, threads));
    run_s.push_back(batches.back().run_s);
  }
  // Set-up is short next to a run, so it is timed more often than there
  // are batches: extra deployments are built and dropped unrun.
  std::vector<double> setup;
  for (const Batch& b : batches) setup.push_back(b.setup_s);
  while (setup.size() < kMinSetups) {
    const auto t0 = Clock::now();
    const auto dep = make_deployment(opt.workload, opt.seed, Variant::Full,
                                     threads);
    setup.push_back(seconds_since(t0));
  }
  if (opt.tamper) batches.back().outcome.fingerprint ^= 1;
  end_to_end(r, batches, setup);  // reads peak RSS before the check below

  const Outcome& first = batches.front().outcome;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    r.count_published(batches[i].outcome.published);
    check_outcome(r, batches[i].outcome, "batch");
    check_same(r, first, batches[i].outcome,
               "batch " + std::to_string(i) + " vs batch 0");
  }
  if (opt.workload == Workload::StaticStream) {
    r.check(first.stream == library_stream_figures(opt.seed),
            "static-stream differs from run_stream_experiment");
  }
  r.print(opt, first, run_s, setup);
  return 0;
}

/// Emits `<prefix>.msgs.<kind>` (per process per sim second) for each kind
/// and `<prefix>.bytes_per_proc_s`; returns the kinds' total message count.
double kind_rates(Report& r, const NetTrace& t, const Outcome& o,
                  const char* prefix,
                  std::initializer_list<std::pair<pmc::MsgKind, const char*>>
                      kinds) {
  const double per = static_cast<double>(o.processes) * o.sim_s;
  double msgs = 0.0, bytes = 0.0;
  for (const auto& [kind, name] : kinds) {
    const auto k = static_cast<std::size_t>(kind);
    r.metric(std::string(prefix) + ".msgs." + name,
             static_cast<double>(t.msgs[k]) / per, "1/s");
    msgs += static_cast<double>(t.msgs[k]);
    bytes += static_cast<double>(t.bytes[k]);
  }
  r.metric(std::string(prefix) + ".bytes_per_proc_s", bytes / per, "B/s");
  return msgs;
}

int run_traced(const Options& opt) {
  Report r;
  const std::size_t lanes = threaded_lanes();
  const bool threaded = opt.workload == Workload::ShardsChurnWire;
  const bool churn = opt.workload != Workload::StaticStream;

  const Batch base = run_batch(opt, Variant::Full, lanes);
  TraceResult tr;
  Outcome traced;
  {
    std::unique_ptr<Deployment> dep =
        make_deployment(opt.workload, opt.seed, Variant::Full, lanes);
    dep->run_traced(tr);
    traced = dep->outcome();
  }
  if (opt.tamper) traced.fingerprint ^= 1;
  r.count_published(base.outcome.published + traced.published);
  check_outcome(r, base.outcome, "untraced");
  check_outcome(r, traced, "traced");
  check_same(r, base.outcome, traced, "traced vs untraced");
  std::uint64_t observed = 0;
  for (const std::uint64_t n : tr.net.msgs) observed += n;
  r.check(observed == traced.net.sent,
          "probe saw a different number of sends than the network counted");

  double quiet_run_s = 0.0;
  if (churn) quiet_run_s = run_batch(opt, Variant::Quiet, lanes).run_s;
  // The reference for the serial traced run and for the speedup.
  double serial_run_s = base.run_s;
  if (threaded) {
    const Batch serial = run_batch(opt, Variant::Full, 1);
    serial_run_s = serial.run_s;
    r.count_published(serial.outcome.published);
    check_same(r, base.outcome, serial.outcome,
               "threads " + std::to_string(lanes) + " vs threads 1");
  }
  if (opt.workload == Workload::StaticStream) {
    r.check(base.outcome.stream == library_stream_figures(opt.seed),
            "static-stream differs from run_stream_experiment");
  }

  const Outcome& o = base.outcome;
  const double procs = static_cast<double>(o.processes);
  const double per_proc_s = procs * o.sim_s;
  const double run_s = base.run_s;

  r.metric("sim.events", static_cast<double>(o.events), "count");
  r.metric("sim.events_per_proc_s", static_cast<double>(o.events) / per_proc_s,
           "1/s");
  r.metric("sim.msgs_sent", static_cast<double>(o.net.sent), "count");
  r.metric("sim.msgs_delivered_ratio",
           ratio(static_cast<double>(o.net.delivered),
                 static_cast<double>(o.net.sent)),
           "ratio");
  r.metric("sim.msgs_lost", static_cast<double>(o.net.lost), "count");
  r.metric("sim.msgs_filtered", static_cast<double>(o.net.filtered), "count");
  r.metric("sim.msgs_dead_target", static_cast<double>(o.net.dead_target),
           "count");
  r.metric("sim.replay_s", tr.replay_s, "s");
  r.metric("sim.share", tr.replay_s / serial_run_s, "ratio");
  r.metric("sim.step_us_p50", tr.steps.quantile_us(0.50), "us");
  r.metric("sim.step_us_p99", tr.steps.quantile_us(0.99), "us");
  const double speedup = threaded ? serial_run_s / run_s : 1.0;
  r.metric("sim.parallel_speedup", speedup, "x");
  r.metric("sim.parallel_efficiency",
           speedup / static_cast<double>(threaded ? lanes : 1), "ratio");

  using pmc::MsgKind;
  kind_rates(r, tr.net, o, "membership",
             {{MsgKind::MembershipDigest, "digest"},
              {MsgKind::MembershipUpdate, "update"},
              {MsgKind::JoinRequest, "join_request"},
              {MsgKind::ViewTransfer, "view_transfer"},
              {MsgKind::Leave, "leave"},
              {MsgKind::SuspectQuery, "suspect_query"},
              {MsgKind::SuspectReply, "suspect_reply"}});
  const auto sent_of = [&tr](MsgKind kind) {
    return static_cast<double>(tr.net.msgs[static_cast<std::size_t>(kind)]);
  };
  r.metric("membership.update_per_digest",
           ratio(sent_of(MsgKind::MembershipUpdate),
                 sent_of(MsgKind::MembershipDigest)),
           "ratio");
  r.metric("membership.quiet_run_s", quiet_run_s, "s");
  r.metric("membership.share", quiet_run_s / run_s, "ratio");

  const double pmcast_msgs =
      kind_rates(r, tr.net, o, "pmcast",
                 {{MsgKind::Gossip, "gossip"},
                  {MsgKind::EventDigest, "event_digest"},
                  {MsgKind::EventRequest, "event_request"},
                  {MsgKind::EventPayload, "event_payload"}});
  const double delivered = static_cast<double>(o.delivered);
  r.metric("pmcast.msgs_per_delivery", ratio(pmcast_msgs, delivered),
           "ratio");
  r.metric("pmcast.dup_ratio",
           ratio(static_cast<double>(o.dup_suppressed), delivered), "ratio");
  r.metric("pmcast.bound_collapsed", static_cast<double>(o.bound_collapsed),
           "count");
  r.metric("pmcast.shed_events", static_cast<double>(o.shed_events),
           "count");
  r.metric("pmcast.publish_cost_s",
           churn ? run_s - quiet_run_s : run_s - tr.replay_s, "s");

  r.metric("wire.encode_s", tr.net.encode_s, "s");
  r.metric("wire.decode_s", tr.net.decode_s, "s");
  r.metric("wire.share", (tr.net.encode_s + tr.net.decode_s) / tr.run_s,
           "ratio");
  r.metric("wire.bytes_per_msg",
           ratio(static_cast<double>(tr.net.wire_bytes),
                 static_cast<double>(tr.net.wire_msgs)),
           "B");
  r.metric("harness.tracing_overhead", tr.run_s / serial_run_s, "x");

  r.print(opt, o, {run_s}, {base.setup_s});
  return 0;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, out);
  return ec == std::errc() && ptr == end;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<static-stream|group-steady|shards-churn-wire> --seed <n> "
               "--seconds <s> --trace <0|1> [--tamper]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tamper") {
      opt.tamper = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      const auto w = parse_workload(value);
      if (!w) return usage();
      opt.workload = *w;
      have_workload = true;
    } else if (arg == "--seed" && parse_u64(value, n)) {
      opt.seed = n;
    } else if (arg == "--seconds" && parse_u64(value, n) && n > 0) {
      opt.seconds = static_cast<double>(n);
    } else if (arg == "--trace" && parse_u64(value, n) && n <= 1) {
      opt.trace = n == 1;
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();
  return opt.trace ? run_traced(opt) : run_untraced(opt);
}
