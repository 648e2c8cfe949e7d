// Discrete-event scheduler: a time-ordered queue of callbacks with stable
// FIFO tie-breaking (same-time events run in scheduling order, which keeps
// runs reproducible).
//
// Gossip workloads are pathological for a binary heap: every node re-arms a
// period-P timer aligned to global period boundaries, so the queue is
// dominated by huge same-time cohorts that a heap sifts one element at a
// time. CalendarScheduler is a two-level calendar queue built for exactly
// that shape:
//
//   * a near-future *wheel* of 2^b buckets, each 2^w microseconds wide,
//     covering the window [cursor, cursor + 2^(b+w)). Scheduling into the
//     window is an O(1) append to the target bucket (no ordering work at
//     all); an occupancy bitmap finds the next non-empty bucket in a few
//     word scans.
//   * a far-future *overflow* heap (the same indexed-heap discipline as
//     ReferenceScheduler) for events beyond the window. As the cursor
//     advances, overflow events whose bucket enters the window drain into
//     the wheel — each event overflows at most once.
//
// A bucket is put in (at, seq) order only when the cursor reaches it — one
// key sort plus one permutation pass, so a whole same-time cohort is
// extracted by that single operation and then executed as a linear walk of
// the bucket, not n heap pops. The executed order is exactly the reference
// order — the global (at, seq) total order — which the randomized property
// test asserts run-for-run against ReferenceScheduler
// (tests/scheduler_property_test.cpp).
//
// The cancel() contract is unchanged: tokens are (generation, slot) pairs,
// stale tokens (already ran / already cancelled) are recognized and
// ignored, and cancellation is O(log n) worst case (an overflow-heap
// removal) and O(1) for wheel entries (swap-remove from a bucket that is
// re-sorted lazily if it was already active). pending() counts live events
// exactly; no tombstones outlive their bucket.
#pragma once

#include <cstdint>
#include <vector>

#include "common/unique_function.hpp"
#include "sim/reference_scheduler.hpp"
#include "sim/time.hpp"

namespace pmc {

class CalendarScheduler {
 public:
  using Callback = UniqueFunction<void()>;

  /// `bucket_width_log2` is the bucket span in log2 microseconds and
  /// `bucket_count_log2` the log2 number of wheel buckets; the defaults
  /// (64 us x 4096 buckets = a 262 ms window) keep both sub-period message
  /// latencies and millisecond gossip periods inside the wheel.
  explicit CalendarScheduler(std::uint32_t bucket_width_log2 = 6,
                             std::uint32_t bucket_count_log2 = 12);

  /// Schedules `fn` at absolute time `at` (>= now). Returns a token usable
  /// with cancel().
  EventToken schedule_at(SimTime at, Callback fn);
  /// Schedules `fn` `delay` after now.
  EventToken schedule_after(SimTime delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event; a no-op for tokens that already ran or were
  /// already cancelled (safe to call from inside the running event itself).
  void cancel(EventToken token);

  SimTime now() const noexcept { return now_; }
  bool empty() const noexcept { return pending_ == 0; }
  std::size_t pending() const noexcept { return pending_; }
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
  /// Where a pending event currently lives, so cancel() can find it:
  /// `home` is a wheel bucket index or kHomeOverflow; `pos` is the
  /// position within that container (or the free-list link while idle).
  struct Slot {
    std::uint32_t home = 0;
    std::uint32_t pos = 0;
    std::uint32_t generation = 1;  // bumped on release; stale tokens miss
    bool busy = false;
  };
  /// (at, seq, index) triple used to order a bucket without moving the fat
  /// entries more than twice (sort the keys, then apply the permutation).
  struct SortKey {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t idx;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffU;
  static constexpr std::uint32_t kHomeOverflow = 0xfffffffeU;
  /// Sentinel cap for locate(): advance the cursor wherever the next event
  /// is (step/run); run_until caps at the deadline's bucket instead so the
  /// wheel never moves past a deadline nothing was executed at.
  static constexpr std::uint64_t kNoCap = ~std::uint64_t{0};

  static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  EventToken token_for(std::uint32_t slot) const noexcept {
    return (static_cast<EventToken>(slots_[slot].generation) << 32) | slot;
  }

  std::uint64_t bucket_of(SimTime at) const noexcept {
    return static_cast<std::uint64_t>(at) >> width_log2_;
  }
  std::uint32_t index_of(std::uint64_t abs_bucket) const noexcept {
    return static_cast<std::uint32_t>(abs_bucket & bucket_mask_);
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;

  void insert(Entry entry);
  void wheel_insert(std::uint32_t index, Entry entry);
  /// Swap-removes a (cancelled) wheel entry and cleans up the bucket if no
  /// live entries remain.
  void erase_from_wheel(std::uint32_t index, std::uint32_t pos);
  /// Empties a bucket and moves its heap buffer into the spare stash
  /// (largest-capacity buffers win) instead of leaving the capacity parked
  /// on the bucket. Period-aligned timer cohorts land in a *different*
  /// bucket every period, so without recycling every bucket that ever
  /// hosted a cohort retains a cohort-sized buffer — the dominant memory
  /// cost of a 10^6-process run. With it, a handful of big buffers cycle
  /// through the boundary buckets.
  void recycle_bucket(std::vector<Entry>& bucket);

  // Overflow heap (indexed, like ReferenceScheduler's).
  void heap_place(std::size_t i, Entry entry) noexcept;
  void heap_sift_up(std::size_t i) noexcept;
  void heap_sift_down(std::size_t i) noexcept;
  void heap_erase_at(std::size_t i) noexcept;

  /// Moves every overflow event whose bucket has entered the wheel window
  /// into its bucket.
  void drain_overflow();
  /// Sorts the unconsumed tail of the cursor bucket by (at, seq): one key
  /// sort + one permutation pass over the entries.
  void sort_active_tail();
  /// Positions the cursor on the next bucket with live entries, clearing
  /// exhausted buckets and draining the overflow as the window advances.
  /// Never advances the cursor past `cap` (an absolute bucket number);
  /// returns false when no event lives at or before it.
  bool locate(std::uint64_t cap);
  /// Pops the front of the (sorted) cursor bucket and runs it.
  void run_front();
  /// First occupied bucket index at circular distance >= 1 from `from`
  /// (the caller guarantees one exists).
  std::uint32_t scan_occupied(std::uint32_t from) const noexcept;

  void set_occupied(std::uint32_t index) noexcept {
    occupancy_[index >> 6] |= std::uint64_t{1} << (index & 63);
  }
  void clear_occupied(std::uint32_t index) noexcept {
    occupancy_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
  }

  std::uint32_t width_log2_;
  std::uint64_t bucket_mask_;  // bucket count - 1
  std::uint64_t bucket_count_;

  std::vector<std::vector<Entry>> buckets_;
  std::vector<std::uint64_t> occupancy_;  // one bit per bucket index
  std::uint64_t cursor_ = 0;    // absolute bucket number the wheel is at
  std::size_t active_pos_ = 0;  // consumed prefix of the cursor bucket
  bool active_dirty_ = false;   // cursor bucket's tail needs (re)sorting
  std::size_t wheel_count_ = 0;

  std::vector<Entry> overflow_;  // min-heap by (at, seq)

  std::vector<SortKey> sort_keys_;     // sort scratch, capacity reused
  std::vector<Entry> sorted_scratch_;  // permutation-apply scratch

  static constexpr std::size_t kMaxSpares = 4;
  std::vector<std::vector<Entry>> spares_;  // recycled bucket buffers,
                                            // ascending capacity

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t pending_ = 0;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

using Scheduler = CalendarScheduler;

}  // namespace pmc
