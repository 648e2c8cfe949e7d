#include "membership/view.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

namespace pmc {

std::size_t DepthView::find_index(AddrComponent infix) const noexcept {
  const auto it = std::lower_bound(infix_.begin(), infix_.end(), infix);
  if (it != infix_.end() && *it == infix)
    return static_cast<std::size_t>(it - infix_.begin());
  return npos;
}

bool DepthView::upsert_pooled(AddrComponent infix,
                              std::span<const AddrId> delegates,
                              std::shared_ptr<const InterestSummary> interests,
                              std::uint64_t process_count,
                              std::uint64_t version, bool alive) {
  const auto it = std::lower_bound(infix_.begin(), infix_.end(), infix);
  const auto i = static_cast<std::size_t>(it - infix_.begin());
  if (it != infix_.end() && *it == infix) {
    if (version <= version_[i]) return false;
    live_delegates_ -= del_len_[i];
    return store(i, delegates, std::move(interests), process_count, version,
                 alive);
  }
  infix_.insert(it, infix);
  version_.insert(version_.begin() + static_cast<std::ptrdiff_t>(i), 0);
  count_.insert(count_.begin() + static_cast<std::ptrdiff_t>(i), 0);
  alive_.insert(alive_.begin() + static_cast<std::ptrdiff_t>(i), 1);
  interests_.insert(interests_.begin() + static_cast<std::ptrdiff_t>(i),
                    nullptr);
  del_begin_.insert(del_begin_.begin() + static_cast<std::ptrdiff_t>(i), 0);
  del_len_.insert(del_len_.begin() + static_cast<std::ptrdiff_t>(i), 0);
  return store(i, delegates, std::move(interests), process_count, version,
               alive);
}

bool DepthView::store(std::size_t i, std::span<const AddrId> delegates,
                      std::shared_ptr<const InterestSummary> interests,
                      std::uint64_t process_count, std::uint64_t version,
                      bool alive) {
  set_delegates(i, delegates);
  interests_[i] = std::move(interests);
  count_[i] = process_count;
  version_[i] = version;
  alive_[i] = alive ? 1 : 0;
  ++mutations_.n;
  return true;
}

void DepthView::set_delegates(std::size_t i, std::span<const AddrId> ids) {
  // The new list may alias this view's own pool (a caller forwarding
  // delegates(j)); detach it before the pool reallocates or compacts.
  // detlint:allow(pointer-hash) aliasing check within one allocation; ordering never observable
  const std::less<const AddrId*> lt;
  if (!ids.empty() && !lt(ids.data(), del_pool_.data()) &&
      lt(ids.data(), del_pool_.data() + del_pool_.size())) {
    alias_scratch_.assign(ids.begin(), ids.end());
    ids = alias_scratch_;
  }
  // Reuse the row's slice when the new list fits (the common case: the
  // redundancy R is fixed), else append to the pool and reclaim once the
  // garbage outweighs the live entries.
  if (ids.size() > del_len_[i]) {
    del_begin_[i] = static_cast<std::uint32_t>(del_pool_.size());
    del_pool_.resize(del_pool_.size() + ids.size());
  }
  del_len_[i] = static_cast<std::uint32_t>(ids.size());
  std::copy(ids.begin(), ids.end(),
            del_pool_.begin() + del_begin_[i]);
  live_delegates_ += ids.size();
  if (del_pool_.size() > 2 * live_delegates_ + 64) compact_pool();
}

void DepthView::compact_pool() {
  std::vector<AddrId> packed;
  packed.reserve(live_delegates_);
  for (std::size_t i = 0; i < infix_.size(); ++i) {
    const auto begin = static_cast<std::uint32_t>(packed.size());
    packed.insert(packed.end(), del_pool_.begin() + del_begin_[i],
                  del_pool_.begin() + del_begin_[i] + del_len_[i]);
    del_begin_[i] = begin;
  }
  del_pool_ = std::move(packed);
}

bool DepthView::erase(AddrComponent infix) {
  const std::size_t i = find_index(infix);
  if (i == npos) return false;
  live_delegates_ -= del_len_[i];
  const auto d = static_cast<std::ptrdiff_t>(i);
  infix_.erase(infix_.begin() + d);
  version_.erase(version_.begin() + d);
  count_.erase(count_.begin() + d);
  alive_.erase(alive_.begin() + d);
  interests_.erase(interests_.begin() + d);
  del_begin_.erase(del_begin_.begin() + d);
  del_len_.erase(del_len_.begin() + d);
  ++mutations_.n;
  return true;
}

std::size_t DepthView::live_count() const noexcept {
  return static_cast<std::size_t>(
      std::count(alive_.begin(), alive_.end(), std::uint8_t{1}));
}

std::uint64_t DepthView::total_processes() const noexcept {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < count_.size(); ++i)
    if (alive_[i]) n += count_[i];
  return n;
}

std::string DepthView::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < infix_.size(); ++i) {
    os << "  " << infix_[i] << (alive_[i] ? "" : " (gone)") << " | "
       << interests_[i]->to_string() << " | count=" << count_[i] << " |";
    for (const AddrId id : delegates(i))
      os << " " << interns().addrs.resolve(id).to_string();
    os << "\n";
  }
  return os.str();
}

MembershipView::MembershipView(Address self, TreeConfig config,
                               Interns& interns)
    : self_(std::move(self)), config_(config), interns_(&interns) {
  config_.validate();
  PMC_EXPECTS(self_.depth() == config_.depth);
  self_id_ = interns_->addrs.intern(self_);
  depths_.resize(config_.depth);
  for (auto& dv : depths_) dv.bind(*interns_);
}

DepthView& MembershipView::view(std::size_t depth) {
  PMC_EXPECTS(depth >= 1 && depth <= depths_.size());
  return depths_[depth - 1];
}

const DepthView& MembershipView::view(std::size_t depth) const {
  PMC_EXPECTS(depth >= 1 && depth <= depths_.size());
  return depths_[depth - 1];
}

std::size_t MembershipView::known_processes() const noexcept {
  std::size_t n = 0;
  for (const auto& dv : depths_) {
    for (std::size_t i = 0; i < dv.size(); ++i)
      if (dv.alive(i)) n += dv.delegates(i).size();
  }
  return n;
}

std::string MembershipView::to_string() const {
  std::ostringstream os;
  os << "MembershipView(" << self_.to_string() << ")\n";
  for (std::size_t depth = 1; depth <= depths_.size(); ++depth) {
    os << " depth " << depth << ":\n" << depths_[depth - 1].to_string();
  }
  return os.str();
}

}  // namespace pmc
