// Simulation runtime: binds a scheduler and a network, hosts processes, and
// injects crash failures (fail-stop, no recovery — the paper's failure model,
// Sec. 4.1).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace pmc {

class Process;

/// Calendar-queue sizing knobs, forwarded to the scheduler. The defaults
/// match CalendarScheduler's (a 262 ms wheel window); hosts that run many
/// small co-resident schedulers (one per topic shard) pass a compact wheel
/// instead so per-shard fixed cost stays in the kilobytes.
struct SchedulerTuning {
  std::uint32_t bucket_width_log2 = 6;
  std::uint32_t bucket_count_log2 = 12;
};

class Runtime {
 public:
  explicit Runtime(NetworkConfig net_config = {},
                   std::uint64_t seed = 0x5eedf00dULL,
                   SchedulerTuning tuning = {});

  Scheduler& scheduler() noexcept { return sched_; }
  Network& network() noexcept { return net_; }
  SimTime now() const noexcept { return sched_.now(); }

  /// Independent deterministic RNG stream derived from the run seed.
  /// Sequential: the k-th call returns the k-th stream, so it depends on
  /// construction order (fine for a fixed population built up front).
  Rng make_rng() { return seeder_.split(); }

  /// Independent deterministic RNG stream identified by `tag` alone:
  /// unlike make_rng(), the stream does not depend on how many other
  /// streams were created before it. Scenario actions draw from labeled
  /// streams so inserting one action never perturbs unrelated draws.
  Rng make_stream(std::uint64_t tag) const {
    SplitMix64 sm(base_seed_ ^ (0x632be59bd9b4e019ULL * (tag + 1)));
    return Rng(sm.next());
  }

  /// Labeled stream for the next incarnation of process `pid`: the label
  /// depends only on (pid, how many processes lived at this pid before),
  /// never on how many *other* processes exist. Co-hosted groups (topic
  /// shards) rely on this: spawning a joiner in one shard must not shift
  /// the streams handed to later spawns in another shard, which the
  /// sequential make_rng() could not guarantee.
  Rng make_process_stream(ProcessId pid);

  /// Crashes each process at an independent uniform time in [now, horizon).
  /// This realizes τ = f/n: pass the f sampled victims.
  void schedule_crashes(std::span<Process* const> victims, SimTime horizon);

  void run_for(SimTime duration) { sched_.run_until(now() + duration); }
  void run_until(SimTime deadline) { sched_.run_until(deadline); }
  void run_until_idle() { sched_.run(); }

 private:
  Scheduler sched_;
  std::uint64_t base_seed_;
  Rng seeder_;
  Network net_;
  /// Incarnation counters behind make_process_stream (pid -> spawns so far).
  /// A FlatMap: almost every run has zero or a handful of respawns, and an
  /// empty sorted vector is pointer-sized where an empty unordered_map
  /// carries a bucket array — measurable across 31k per-shard runtimes.
  FlatMap<ProcessId, std::uint64_t> incarnations_;
};

/// A simulated process: receives messages while alive and may run a periodic
/// task aligned to global period boundaries (so gossip proceeds in the
/// synchronized rounds the paper's analysis assumes, without the algorithm
/// depending on that synchrony).
class Process {
 public:
  Process(Runtime& rt, ProcessId id);
  virtual ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ProcessId id() const noexcept { return id_; }
  bool alive() const noexcept { return alive_; }

  /// Fail-stop: stops receiving and ticking; no recovery.
  void crash();

 protected:
  virtual void on_message(ProcessId from, const MessagePtr& msg) = 0;
  virtual void on_period() {}

  /// Starts the periodic task; first tick at the next multiple of `period`.
  /// Re-arming with a different period takes effect from the next tick.
  void arm_periodic(SimTime period);
  void disarm_periodic();
  bool periodic_armed() const noexcept { return timer_armed_; }

  void send(ProcessId to, MessagePtr msg) {
    rt_.network().send(id_, to, std::move(msg));
  }
  /// Fans one shared payload out to several destinations; draw-for-draw
  /// equivalent to send() per destination (see Network::send_multi).
  void send_multi(std::span<const ProcessId> to, const MessagePtr& msg) {
    rt_.network().send_multi(id_, to, msg);
  }

  Runtime& runtime() noexcept { return rt_; }
  Rng& rng() noexcept { return rng_; }

 private:
  void schedule_tick();

  Runtime& rt_;
  ProcessId id_;
  Rng rng_;
  bool alive_ = true;
  bool timer_armed_ = false;
  SimTime period_ = 0;
  EventToken timer_token_ = 0;
};

}  // namespace pmc
