// Per-depth membership view tables (paper Fig. 2).
//
// A process keeps one table per depth i of the tree. Each row describes one
// populated subgroup reachable by appending an infix x(i) to the process's
// prefix of length i-1: the subgroup's regrouped interests, its process
// count, and the R delegates representing it ("postfixes" in Fig. 2). At the
// leaf depth d a row is a single immediate-neighbor process. Rows carry a
// version for the gossip-pull anti-entropy of Sec. 2.3 (newer version wins)
// and an `alive` flag so departures/failures propagate as tombstones.
//
// Layout: DepthView is struct-of-arrays. A row is not a struct — it is index
// i into parallel arrays (infix, version, count, alive, pooled interest
// summary, CSR slice of interned delegate ids), so recompact_own_rows and
// digest construction are linear scans over flat memory and a row costs a
// few dozen bytes instead of a row object's several heap blocks.
//
// Rows cross messages as a RowBatch: the same handles (delegate ids,
// pooled summary pointers) copied out of the arrays, never materialized.
// Only the wire codec turns handles into components and back (decoding
// into the receiving runtime's tables), and a receiver compares (infix,
// version) before it touches any address or summary.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "addr/address.hpp"
#include "addr/intern.hpp"
#include "common/intern_pool.hpp"
#include "filter/regroup.hpp"
#include "membership/config.hpp"

namespace pmc {

/// The shared interning state of one simulation/runtime: every view, node
/// and directory hosted together binds to one Interns so AddrIds and pooled
/// summaries are comparable across them. Owned by the harness (ChurnSim /
/// ShardedSim / experiment population) or by the test itself.
struct Interns {
  AddrInternTable addrs;
  /// Anti-entropy converges whole subgroups onto structurally identical
  /// summaries; pooling stores each distinct value once per simulation.
  InternPool<InterestSummary> summaries;

  /// Pre-size for `processes` distinct addresses of depth `depth`
  /// (mirrors Network::reserve).
  void reserve(std::size_t processes, std::size_t depth) {
    addrs.reserve(processes, depth);
  }
};

/// The sender named by a membership-carrying message (digest, update,
/// view transfer, suspect query/reply, piggybacked gossip). Built in the
/// simulation, or decoded into a runtime's tables, it is a handle: an
/// AddrId of the Interns it belongs to, so no Address is copied per
/// message and a receiver on that runtime uses the id as it is. A
/// context-free decode (wire::decode_message(bytes)) has no table to name
/// it in and keeps the plain Address. components() reads the address
/// either way, and the wire codec encodes exactly those, so the bytes do
/// not depend on the form. Like RowBatch, the destructor never touches the
/// Interns.
class SenderRef {
 public:
  SenderRef() = default;
  SenderRef(const Interns& interns, AddrId id) noexcept
      : interns_(&interns), id_(id) {}
  /// The context-free form.
  SenderRef(Address address) noexcept  // NOLINT(google-explicit-constructor)
      : address_(std::move(address)) {}

  /// The table id() belongs to; null for the context-free form.
  const Interns* interns() const noexcept { return interns_; }
  /// The handle in interns(); kNoAddr for the context-free form.
  AddrId id() const noexcept { return id_; }

  std::span<const AddrComponent> components() const {
    if (interns_ != nullptr) return interns_->addrs.components(id_);
    return address_.components();
  }

  /// The sender's id in `table`: the handle itself when it is one of
  /// `table`, else the components interned there.
  AddrId id_in(Interns& table) const {
    return interns_ == &table ? id_ : table.addrs.intern(components());
  }

  /// Length of the common prefix with `self`, an id of `table` — integer
  /// compares when the sender is a handle of `table`, a component walk
  /// (interning nothing) otherwise.
  std::size_t common_prefix_length(const Interns& table, AddrId self) const {
    if (interns_ == &table)
      return table.addrs.common_prefix_length(self, id_);
    const auto mine = table.addrs.components(self);
    const auto theirs = components();
    return static_cast<std::size_t>(
        std::ranges::mismatch(mine, theirs).in1 - mine.begin());
  }

  /// Same address, whatever the form.
  friend bool operator==(const SenderRef& a, const SenderRef& b) {
    return std::ranges::equal(a.components(), b.components());
  }

 private:
  const Interns* interns_ = nullptr;
  AddrId id_ = kNoAddr;
  Address address_;  ///< used iff interns_ is null
};

/// One depth's table: rows sorted by infix, unique per infix, stored as
/// parallel arrays (see file comment). Must be bound to an Interns before
/// any row is inserted.
class DepthView {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  DepthView() = default;

  void bind(Interns& interns) noexcept { interns_ = &interns; }
  Interns& interns() const {
    PMC_EXPECTS(interns_ != nullptr);
    return *interns_;
  }

  std::size_t size() const noexcept { return infix_.size(); }
  bool empty() const noexcept { return infix_.empty(); }

  /// Index of the row with this infix, or npos.
  std::size_t find_index(AddrComponent infix) const noexcept;

  AddrComponent infix(std::size_t i) const { return infix_[i]; }
  std::uint64_t version(std::size_t i) const { return version_[i]; }
  std::uint64_t process_count(std::size_t i) const { return count_[i]; }
  bool alive(std::size_t i) const { return alive_[i] != 0; }
  const InterestSummary& interests(std::size_t i) const {
    return *interests_[i];
  }
  const std::shared_ptr<const InterestSummary>& interests_ptr(
      std::size_t i) const {
    return interests_[i];
  }
  /// The row's delegates, in their published order.
  std::span<const AddrId> delegates(std::size_t i) const {
    return {del_pool_.data() + del_begin_[i], del_len_[i]};
  }
  AddrId first_delegate(std::size_t i) const {
    PMC_EXPECTS(del_len_[i] > 0);
    return del_pool_[del_begin_[i]];
  }

  /// Inserts or replaces a row from already-interned inputs; on replace
  /// the higher version wins (ties keep the incumbent). Returns true if the
  /// table changed.
  bool upsert_pooled(AddrComponent infix, std::span<const AddrId> delegates,
                     std::shared_ptr<const InterestSummary> interests,
                     std::uint64_t process_count, std::uint64_t version,
                     bool alive);

  /// Removes a row outright (local maintenance; prefer tombstones for
  /// anti-entropy-visible departures).
  bool erase(AddrComponent infix);

  /// Bumped on every change (upsert that took effect, erase) and when
  /// another view is assigned over this one, so a view's address and this
  /// count together name its contents. Lets callers cache derived state —
  /// recompaction skips depths whose inputs did not change since the last
  /// pass, and PmcastNode reuses an event's row matches.
  std::uint64_t mutations() const noexcept { return mutations_.n; }

  /// Number of delegate ids over all rows (what a RowBatch copying the
  /// whole table holds).
  std::size_t delegate_total() const noexcept { return live_delegates_; }

  /// Number of live rows.
  std::size_t live_count() const noexcept;
  /// Sum of process_count over live rows.
  std::uint64_t total_processes() const noexcept;

  std::string to_string() const;

 private:
  bool store(std::size_t i, std::span<const AddrId> delegates,
             std::shared_ptr<const InterestSummary> interests,
             std::uint64_t process_count, std::uint64_t version, bool alive);
  void set_delegates(std::size_t i, std::span<const AddrId> delegates);
  void compact_pool();

  Interns* interns_ = nullptr;

  // Parallel arrays, index = row, sorted by infix_, unique infixes.
  std::vector<AddrComponent> infix_;
  std::vector<std::uint64_t> version_;
  std::vector<std::uint64_t> count_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::shared_ptr<const InterestSummary>> interests_;
  std::vector<std::uint32_t> del_begin_;  ///< offset into del_pool_
  std::vector<std::uint32_t> del_len_;

  /// CSR delegate-id pool. Replacements reuse the slice in place when the
  /// new list fits, else append; compact_pool() reclaims once garbage
  /// dominates.
  std::vector<AddrId> del_pool_;
  std::size_t live_delegates_ = 0;  ///< referenced entries of del_pool_
  std::vector<AddrId> alias_scratch_;  ///< set_delegates() detach buffer

  /// Assignment advances past both operands' counts instead of copying:
  /// GroupTree::rebuild_leaf move-assigns a fresh table over a live one.
  struct MutationCount {
    std::uint64_t n = 0;
    MutationCount() = default;
    MutationCount(const MutationCount&) = default;
    MutationCount& operator=(const MutationCount& other) noexcept {
      n = std::max(n, other.n) + 1;
      return *this;
    }
  };
  MutationCount mutations_;
};

/// A snapshot of view rows as they cross a message: the unit of membership
/// exchange (anti-entropy updates, view transfers, rows piggybacked on
/// event gossip). Rows are handles, not values — delegates are AddrIds in
/// one CSR pool, interests are pooled summary handles — so building a batch
/// from a DepthView copies integers and bumps reference counts.
///
/// The ids belong to one of two tables. A batch bound to an Interns
/// refers to that table: a batch built in the simulation is bound to the
/// sender's, which every node on the runtime shares, and a runtime's wire
/// transcoder decodes rows into its own (wire::decode_message(bytes,
/// interns)); a receiver on that runtime uses the handles as they are. A
/// batch decoded context-free (wire::decode_message(bytes)) is bound to no
/// Interns: its ids index a flat component list the batch owns, and a
/// receiver translates the rows it keeps into its own Interns. address()
/// resolves an id either way.
///
/// Piggybacked rows travel as a std::shared_ptr<const RowBatch>: one
/// immutable snapshot per gossip period and prefix level, shared by every
/// gossip that carries it (see GossipMsg).
///
/// The destructor never dereferences the Interns: a queued message may
/// outlive the Interns it was built against (a harness may tear its
/// Interns down before its Runtime).
class RowBatch {
 public:
  /// A batch over its own address list (see add_address).
  RowBatch() = default;
  /// A batch over a shared Interns.
  explicit RowBatch(const Interns& interns) noexcept : interns_(&interns) {}

  /// The shared table the delegate ids belong to; null when they index the
  /// batch's own address list.
  const Interns* interns() const noexcept { return interns_; }

  /// The components of the address behind a delegate id of this batch.
  std::span<const AddrComponent> address(AddrId id) const {
    if (interns_ != nullptr) return interns_->addrs.components(id);
    PMC_EXPECTS(id < comp_end_.size());
    const std::uint32_t begin = id == 0 ? 0 : comp_end_[id - 1];
    return {comps_.data() + begin, comp_end_[id] - begin};
  }

  /// Appends an address to the batch's own list (a batch bound to no
  /// Interns) and returns its id.
  AddrId add_address(std::span<const AddrComponent> components) {
    PMC_EXPECTS(interns_ == nullptr);
    comps_.insert(comps_.end(), components.begin(), components.end());
    comp_end_.push_back(static_cast<std::uint32_t>(comps_.size()));
    return static_cast<AddrId>(comp_end_.size() - 1);
  }

  std::size_t size() const noexcept { return rows_.size(); }
  bool empty() const noexcept { return rows_.empty(); }

  /// Pre-sizes for `rows` rows holding `delegates` delegate ids in all, so
  /// a batch of known size is built without regrowing.
  void reserve(std::size_t rows, std::size_t delegates) {
    rows_.reserve(rows);
    delegates_.reserve(delegates);
  }

  /// Appends row i of `view`, which must be bound to this batch's table.
  void push(std::uint32_t depth, const DepthView& view, std::size_t i) {
    PMC_EXPECTS(&view.interns() == interns_);
    push(depth, view.infix(i), view.delegates(i), view.interests_ptr(i),
         view.process_count(i), view.version(i), view.alive(i));
  }
  /// Appends a row from handles of this batch's table.
  void push(std::uint32_t depth, AddrComponent infix,
            std::span<const AddrId> delegates,
            std::shared_ptr<const InterestSummary> interests,
            std::uint64_t process_count, std::uint64_t version, bool alive) {
    PMC_EXPECTS(interests != nullptr);
    rows_.push_back(Row{depth, infix, alive,
                        static_cast<std::uint32_t>(delegates_.size()),
                        static_cast<std::uint32_t>(delegates.size()),
                        process_count, version, std::move(interests)});
    delegates_.insert(delegates_.end(), delegates.begin(), delegates.end());
  }

  std::uint32_t depth(std::size_t k) const { return row(k).depth; }
  AddrComponent infix(std::size_t k) const { return row(k).infix; }
  std::uint64_t version(std::size_t k) const { return row(k).version; }
  std::uint64_t process_count(std::size_t k) const {
    return row(k).process_count;
  }
  bool alive(std::size_t k) const { return row(k).alive; }
  const InterestSummary& interests(std::size_t k) const {
    return *row(k).interests;
  }
  const std::shared_ptr<const InterestSummary>& interests_ptr(
      std::size_t k) const {
    return row(k).interests;
  }
  /// The row's delegates (ids of this batch's table), in published order.
  std::span<const AddrId> delegates(std::size_t k) const {
    const Row& r = row(k);
    return {delegates_.data() + r.del_begin, r.del_len};
  }

 private:
  struct Row {
    std::uint32_t depth = 0;
    AddrComponent infix = 0;
    bool alive = true;
    std::uint32_t del_begin = 0;  ///< offset into delegates_
    std::uint32_t del_len = 0;
    std::uint64_t process_count = 0;
    std::uint64_t version = 0;
    std::shared_ptr<const InterestSummary> interests;
  };
  const Row& row(std::size_t k) const {
    PMC_EXPECTS(k < size());
    return rows_[k];
  }

  const Interns* interns_ = nullptr;
  std::vector<Row> rows_;
  std::vector<AddrId> delegates_;  ///< CSR pool of every row's delegates
  /// Own address list, used iff interns_ is null: id k's components are
  /// comps_[comp_end_[k-1], comp_end_[k]).
  std::vector<AddrComponent> comps_;
  std::vector<std::uint32_t> comp_end_;
};

/// The complete membership knowledge of one process: its address plus one
/// DepthView per depth 1..d. Depth i is indexed as view(i), 1-based to match
/// the paper.
class MembershipView {
 public:
  MembershipView(Address self, TreeConfig config, Interns& interns);

  const Address& self() const noexcept { return self_; }
  AddrId self_id() const noexcept { return self_id_; }
  const TreeConfig& config() const noexcept { return config_; }
  Interns& interns() const noexcept { return *interns_; }

  DepthView& view(std::size_t depth);
  const DepthView& view(std::size_t depth) const;

  /// Total processes known (Eq. 2): live delegates at depths < d plus live
  /// neighbors at depth d; a process appearing at several depths is counted
  /// once per appearance, as the paper does.
  std::size_t known_processes() const noexcept;

  std::string to_string() const;

 private:
  Address self_;
  AddrId self_id_ = kNoAddr;
  TreeConfig config_;
  Interns* interns_ = nullptr;
  std::vector<DepthView> depths_;
};

}  // namespace pmc
