// Observation from outside the program: everything the traced run learns,
// it learns through public hooks (Network link filter and transcoder,
// Scheduler::step) and counters the layers already expose. Nothing here
// draws from an RNG or changes what a run does: the traced run must
// reproduce the untraced fingerprint and event count.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "sim/network.hpp"
#include "sim/runtime.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Log-scale histogram of nanosecond durations: 32 buckets per octave
/// (about 2% resolution), fixed size, so timing tens of millions of
/// scheduler steps costs no allocation.
class LogHistogram {
 public:
  void add(std::uint64_t ns);
  /// Bucket midpoint of the q-quantile, in microseconds; 0 when empty.
  double quantile_us(double q) const;

 private:
  static constexpr unsigned kSubBits = 5;
  std::array<std::uint64_t, 64u << kSubBits> buckets_{};
  std::uint64_t count_ = 0;
};

/// One recorded send: sim-time (µs) and the (from, to) pair.
struct SendRecord {
  std::uint32_t at_us = 0;
  pmc::ProcessId from = 0;
  pmc::ProcessId to = 0;
};

constexpr std::size_t kMsgKinds = 15;  // pmc::MsgKind values 0..14

/// What one network's traced run saw. Per-kind counts and bytes are per
/// destination, like Network's `sent` counter: the link filter sees every
/// destination, and the transcoder, called right after the first
/// destination that passes every filter, names the message's kind. Later
/// destinations of a send_multi fan-out take the kind of their sender's
/// last transcoded message. A send that a partition filter drops before
/// its message was transcoded takes the sender's previous kind, or lands
/// in MsgKind::Other when the previous message was another sender's; so
/// per-kind counts are exact when sim.msgs_filtered is 0. Bytes are the
/// wire codec's encoded size.
struct NetTrace {
  std::array<std::uint64_t, kMsgKinds> msgs{};
  std::array<std::uint64_t, kMsgKinds> bytes{};
  double encode_s = 0.0;  ///< host time in wire::encode_message (wire on)
  double decode_s = 0.0;  ///< host time in wire::decode_message (wire on)
  std::uint64_t wire_msgs = 0;   ///< transcoder calls (wire on)
  std::uint64_t wire_bytes = 0;  ///< bytes encoded by those calls
  std::vector<SendRecord> sends;

  void on_send(pmc::Scheduler& sched, pmc::ProcessId from, pmc::ProcessId to);
  void on_transcode(std::size_t kind, std::uint64_t size);
  /// Attributes the last recorded destination; call once the run is over.
  void flush();
  void merge_counts(const NetTrace& other);

 private:
  void attribute(pmc::ProcessId from);

  bool pending_ = false;  ///< a destination awaits attribution
  pmc::ProcessId pending_from_ = 0;
  pmc::ProcessId last_from_ = pmc::kNoProcess;  ///< last transcoded sender
  std::size_t last_kind_ = 0;
  std::uint64_t last_size_ = 0;
};

/// Installs the observers on `rt`'s network: an always-true link filter
/// that records every send attempt, and a transcoder that counts kinds and
/// encoded bytes. With `wire` the transcoder is a timed
/// decode_message(encode_message(msg)), the same round trip the wire mode
/// runs; without it the transcoder returns the message unchanged. `trace`
/// must outlive the runtime's use of the hooks.
void install_probe(pmc::Runtime& rt, bool wire, NetTrace& trace);

/// Removes the observers and attributes the last recorded destination.
void remove_probe(pmc::Runtime& rt, NetTrace& trace);

/// Steps `sched` one event at a time until `deadline`, timing each
/// Scheduler::step() into `steps`; ends exactly where run_until(deadline)
/// would. Schedules one sentinel event at `deadline` (a scheduler cannot
/// be asked for its next event time), so the scheduler's executed count
/// ends one higher than an untraced run's; callers subtract it.
void step_until(pmc::Scheduler& sched, pmc::SimTime deadline,
                LogHistogram& steps);

/// Steps until the queue drains (Runtime::run_until_idle), timing each
/// step. No sentinel is needed.
void step_until_idle(pmc::Scheduler& sched, LogHistogram& steps);

/// Host seconds a bare Runtime (scheduler + network, handlers that do
/// nothing) takes to carry `sends` — each sent at its recorded sim-time,
/// with the network configured like the traced one. Pids lie in
/// [pid_base, pid_base + pid_count).
double replay_sends(const std::vector<SendRecord>& sends,
                    const pmc::NetworkConfig& net, pmc::ProcessId pid_base,
                    std::size_t pid_count, pmc::SchedulerTuning tuning = {});

}  // namespace perfbench
