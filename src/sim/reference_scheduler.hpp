// Reference discrete-event scheduler: a time-ordered queue of callbacks with
// stable FIFO tie-breaking (same-time events run in scheduling order, which
// keeps runs reproducible).
//
// This is the indexed-binary-heap implementation the simulator shipped with
// through PR 4. The production scheduler is now the calendar queue in
// scheduler.hpp (same contract, batched same-time cohorts); this one is kept
// as the behavioral oracle: the randomized property test
// (tests/scheduler_property_test.cpp) runs both side by side and asserts
// they execute identical (time, seq) sequences.
//
// The queue is an *indexed* binary heap: every pending event owns a slot in
// a side table that tracks its current heap position, so cancel() removes
// the event from the heap in place in O(log n) — no tombstones linger, and
// pending() is exactly the heap size. Tokens are (generation, slot) pairs;
// a slot's generation is bumped when its event runs or is cancelled, so
// stale tokens (including the running event's own token) are recognized and
// ignored. Callbacks are move-only UniqueFunctions: non-copyable payloads
// move through the scheduler without copies or const_cast.
#pragma once

#include <cstdint>
#include <vector>

#include "common/unique_function.hpp"
#include "sim/time.hpp"

namespace pmc {

/// Cancellation token shared by every scheduler implementation:
/// (generation << 32) | slot, so stale tokens are recognized and ignored.
using EventToken = std::uint64_t;

class ReferenceScheduler {
 public:
  using Callback = UniqueFunction<void()>;

  /// Schedules `fn` at absolute time `at` (>= now). Returns a token usable
  /// with cancel().
  EventToken schedule_at(SimTime at, Callback fn);
  /// Schedules `fn` `delay` after now.
  EventToken schedule_after(SimTime delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event in O(log n); a no-op for tokens that already
  /// ran or were already cancelled (safe to call from inside the running
  /// event itself).
  void cancel(EventToken token);

  SimTime now() const noexcept { return now_; }
  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }
  std::uint64_t executed() const noexcept { return executed_; }

  /// Runs the next event; returns false when the queue is empty.
  bool step();
  /// Runs events until the queue is empty or `deadline` is passed; time
  /// advances to at most `deadline`.
  void run_until(SimTime deadline);
  /// Runs until the queue drains. `max_events` guards against runaway loops.
  void run(std::uint64_t max_events = 1'000'000'000ULL);

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;   // FIFO tie-break among same-time events
    std::uint32_t slot;  // owning slot in slots_
    Callback fn;
  };
  struct Slot {
    std::uint32_t pos = 0;  // heap index while busy; next free slot otherwise
    std::uint32_t generation = 1;  // bumped on release; stale tokens miss
    bool busy = false;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffU;

  static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  EventToken token_for(std::uint32_t slot) const noexcept {
    return (static_cast<EventToken>(slots_[slot].generation) << 32) | slot;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;
  void place(std::size_t i, Entry entry) noexcept;
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;
  /// Removes heap_[i] (its slot must already be released) and restores the
  /// heap property.
  void erase_at(std::size_t i) noexcept;
  /// Pops the minimum entry, releasing its slot before returning it.
  Entry extract_top() noexcept;

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace pmc
