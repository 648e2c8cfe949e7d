// Whole-lifetime event deduplication for one process.
//
// Every protocol node remembers each event id it has received, so a
// duplicate (another gossip round, a recovery payload, a copy made by the
// network's duplication injector) is dropped before it is re-buffered or
// re-delivered, and it remembers which of those ids it handed to the
// application. EventDedup keeps both facts in one contiguous
// open-addressing table: one probe per receive, one 24-byte slot per id,
// no heap node per id. A first receipt returns its slot, so the caller
// sets the delivered bit without probing again.
//
// The table is never iterated: lookups are its only observable, so its
// slot order (hash order) cannot leak into any output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "event/event.hpp"

namespace pmc {

class EventDedup {
 public:
  /// One recorded id.
  struct Slot {
    EventId id;
    bool used = false;
    bool delivered = false;
  };

  /// Records `id` as received. Returns its slot on the first receipt, or
  /// nullptr for a duplicate. The slot stays valid until the next insert.
  Slot* insert(const EventId& id);

  bool received(const EventId& id) const { return find(id) != nullptr; }
  bool delivered(const EventId& id) const {
    const Slot* s = find(id);
    return s != nullptr && s->delivered;
  }

  /// Number of ids recorded.
  std::size_t size() const noexcept { return size_; }

 private:
  const Slot* find(const EventId& id) const;
  void grow();

  /// Power-of-two capacity (or empty), linear probing, load <= 3/4.
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace pmc
