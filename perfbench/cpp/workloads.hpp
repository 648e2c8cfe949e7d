// The benchmark's three workloads, built only from the library's public
// classes. Each is a fixed batch: a deployment, a seeded publish schedule in
// simulated time, and a horizon (or quiescence). README.md says why each
// workload was chosen and which layer metric should move on it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "probe.hpp"
#include "sim/network.hpp"

namespace perfbench {

enum class Workload { StaticStream, GroupSteady, ShardsChurnWire };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// Full = the workload as specified; Quiet = the same deployment and
/// script with every publish removed (membership and churn only).
enum class Variant { Full, Quiet };

/// Per-event figures of the static stream, in the form
/// run_stream_experiment reports them.
struct StreamFigures {
  double per_event_mean = 0.0;
  double per_event_min = 0.0;
  double per_event_max = 0.0;
  std::size_t events = 0;
  double messages_per_event_per_process = 0.0;
  double drain_periods = 0.0;

  friend bool operator==(const StreamFigures&, const StreamFigures&) =
      default;
};

/// Everything a finished batch reports. All fields are simulation results,
/// so two batches of one seed must compare equal.
struct Outcome {
  /// The library's summary fingerprint where one exists (ChurnSummary,
  /// ShardedSummary), else an FNV-1a over every node's statistics and the
  /// network/scheduler counters.
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;  ///< scheduler events executed
  pmc::NetworkCounters net;
  std::size_t processes = 0;  ///< protocol-node pids hosted
  double sim_s = 0.0;         ///< simulated seconds covered
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  std::uint64_t owed = 0;  ///< deliveries owed at publish time
  double latency_mean_ms = 0.0;
  /// p99 of publish→deliver on static-stream; on the ChurnSim workloads
  /// the largest sample (ChurnSim exposes no percentiles), an upper bound.
  double latency_tail_ms = 0.0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t bound_collapsed = 0;
  std::uint64_t shed_events = 0;
  std::optional<StreamFigures> stream;  ///< static-stream only

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// What the traced run measured besides the Outcome.
struct TraceResult {
  double run_s = 0.0;     ///< traced run, host seconds (replay excluded)
  double replay_s = 0.0;  ///< see replay_sends
  LogHistogram steps;
  NetTrace net;  ///< counts summed over every network; sends not kept
};

class Deployment {
 public:
  virtual ~Deployment() = default;
  /// The untraced run, exactly as the library runs it.
  virtual void run() = 0;
  /// The same run driven step by step with every probe installed.
  virtual void run_traced(TraceResult& out) = 0;
  virtual Outcome outcome() const = 0;
};

/// Builds the deployment and schedules its script: the work setup_s
/// times. `threads` applies to shards-churn-wire only; static-stream has
/// no membership, so it has no Quiet variant and ignores `v`.
std::unique_ptr<Deployment> make_deployment(Workload w, std::uint64_t seed,
                                            Variant v, std::size_t threads);

/// Runs the library's own run_stream_experiment for static-stream's
/// configuration and returns its figures.
StreamFigures library_stream_figures(std::uint64_t seed);

/// Worker lanes the threaded workload uses: 4, or fewer on a smaller host.
std::size_t threaded_lanes();

}  // namespace perfbench
