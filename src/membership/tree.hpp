// GroupTree: the compound spanning tree of paper Sec. 2.
//
// Processes sharing a prefix of length i-1 form a subgroup of depth i; each
// populated subgroup elects R delegates that also populate the parent node.
// GroupTree maintains, per prefix, the child view table (one row per
// populated child subgroup: its delegates, regrouped interests and process
// count), the subgroup's own delegates, and its interest summary.
//
// The tree serves two roles:
//  * in simulation, it is the authoritative membership all processes share
//    (one DepthView per subgroup, shared by reference — what every member of
//    that subgroup would hold in its own table);
//  * in the dynamic-membership path it is the bootstrap source
//    (materialize_view) and the oracle that tests compare against.
//
// Incremental join/leave updates rebuild only the leaf subgroup and the
// O(d) ancestor rows on the path to the root, bumping row versions so
// anti-entropy picks the changes up.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "addr/address.hpp"
#include "addr/space.hpp"
#include "filter/subscription.hpp"
#include "membership/config.hpp"
#include "membership/election.hpp"
#include "membership/view.hpp"

namespace pmc {

struct Member {
  Address address;
  Subscription subscription;
};

/// Optional behaviours of the tree beyond the paper's core scheme.
struct GroupTreeOptions {
  /// Sec. 6's per-depth mechanism (2): "approximating the filters applied
  /// by delegates closer to the root to reduce computation". Rows in
  /// tables of depth <= this value carry *coarsened* interest summaries
  /// (bounding intervals / projections): cheaper to store and evaluate,
  /// never losing an interested process, at the cost of some extra
  /// uninterested subtrees being infected near the root. 0 disables.
  std::size_t coarsen_depth_leq = 0;
};

class GroupTree {
 public:
  /// Builds the tree for an initial population. Addresses must be unique and
  /// all of depth config.depth. All views the tree hands out intern through
  /// `interns`, which must outlive the tree.
  GroupTree(TreeConfig config, std::vector<Member> members, Interns& interns,
            GroupTreeOptions options = {});

  const TreeConfig& config() const noexcept { return config_; }
  Interns& interns() const noexcept { return *interns_; }
  std::size_t process_count() const noexcept;

  /// Child view of the subgroup denoted by `prefix`
  /// (prefix length in [0, d-1]). This is the depth-(len+1) table of every
  /// process under that prefix.
  const DepthView& view_at(const Prefix& prefix) const;

  /// The depth-i table of process `self` (i in [1, d]):
  /// view_at(self.prefix(i-1)).
  const DepthView& view_for(const Address& self, std::size_t depth) const;

  /// Delegates representing `prefix` at its parent (R smallest addresses).
  const std::vector<Address>& delegates(const Prefix& prefix) const;

  /// Number of processes represented by `prefix` (paper Eq. 4).
  std::uint64_t represented(const Prefix& prefix) const;

  /// Regrouped interests of the whole subtree under `prefix`.
  const InterestSummary& summary(const Prefix& prefix) const;

  bool contains(const Address& a) const;
  /// Individual subscription; precondition: contains(a).
  const Subscription& subscription(const Address& a) const;

  std::vector<Address> all_members() const;

  /// Addresses of `space` not currently populated, in lexicographic order —
  /// the candidate slots a scripted Join action can fill. Precondition:
  /// space.depth() == config().depth.
  std::vector<Address> vacancies(const AddressSpace& space) const;

  /// True iff `a` is one of the delegates of its depth-(i+1) subgroup for
  /// some i <= depth-1, i.e. appears in the node of depth `depth`.
  bool is_delegate_at(const Address& a, std::size_t depth) const;

  /// Per-process membership knowledge (Eq. 2) as a standalone copy — the
  /// bootstrap a joining process receives.
  MembershipView materialize_view(const Address& self) const;

  // -- Dynamic membership --------------------------------------------------

  /// Adds a process; rebuilds its leaf subgroup and the ancestor path.
  void add_member(Address address, Subscription subscription);
  /// Removes a process (leave or crash observed); ancestors updated; an empty
  /// leaf subgroup disappears from its parent's table.
  void remove_member(const Address& address);
  /// Replaces a member's subscription; summaries on the path are refreshed.
  void update_subscription(const Address& address, Subscription subscription);

 private:
  struct Node {
    DepthView child_view;             // rows for populated children
    std::vector<Address> delegates;   // R smallest under this prefix
    InterestSummary summary;
    std::uint64_t process_count = 0;
    std::vector<Member> members;      // leaf-subgroup nodes only (len == d-1)
  };

  Node& node(const Prefix& p);
  const Node& node(const Prefix& p) const;
  /// try_emplace that binds a fresh node's child view to the intern state.
  Node& ensure_node(const Prefix& p);

  void rebuild_leaf(const Prefix& leaf_prefix);
  /// Writes (or erases, when empty) the row describing `child` in its
  /// parent's table.
  void push_row_to_parent(const Prefix& child);
  /// Recomputes count/summary/delegates from the node's child rows.
  void recompute_aggregates(Node& n);
  /// Refreshes the row for `child` inside its parent and recurses upward.
  void refresh_ancestors(const Prefix& child);

  TreeConfig config_;
  GroupTreeOptions options_;
  Interns* interns_ = nullptr;
  std::unordered_map<Prefix, Node, PrefixHash> nodes_;
  std::uint64_t version_counter_ = 1;
  std::vector<AddrId> candidate_scratch_;
  std::vector<AddrId> delegate_scratch_;
};

}  // namespace pmc
