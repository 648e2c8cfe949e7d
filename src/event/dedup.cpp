#include "event/dedup.hpp"

namespace pmc {

namespace {

constexpr std::size_t kMinCapacity = 4;

}  // namespace

EventDedup::Slot* EventDedup::insert(const EventId& id) {
  if (4 * (size_ + 1) > 3 * slots_.size()) {
    if (received(id)) return nullptr;  // a duplicate never grows the table
    grow();
  }
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = EventIdHash{}(id) & mask;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (!s.used) {
      s.id = id;
      s.used = true;
      ++size_;
      return &s;
    }
    if (s.id == id) return nullptr;
  }
}

const EventDedup::Slot* EventDedup::find(const EventId& id) const {
  if (slots_.empty()) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = EventIdHash{}(id) & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (!s.used) return nullptr;
    if (s.id == id) return &s;
  }
}

void EventDedup::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? kMinCapacity : 2 * old.size(), Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (!s.used) continue;
    std::size_t i = EventIdHash{}(s.id) & mask;
    while (slots_[i].used) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

}  // namespace pmc
