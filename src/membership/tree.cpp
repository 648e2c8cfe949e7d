#include "membership/tree.hpp"

#include <algorithm>

#include "common/contract.hpp"

namespace pmc {

namespace {

bool member_less(const Member& a, const Member& b) {
  return a.address < b.address;
}

}  // namespace

GroupTree::GroupTree(TreeConfig config, std::vector<Member> members,
                     Interns& interns, GroupTreeOptions options)
    : config_(config), options_(options), interns_(&interns) {
  config_.validate();
  std::sort(members.begin(), members.end(), member_less);
  for (std::size_t i = 0; i < members.size(); ++i) {
    PMC_EXPECTS(members[i].address.depth() == config_.depth);
    if (i > 0) PMC_EXPECTS(!(members[i].address == members[i - 1].address));
  }

  // Distribute members into leaf-subgroup nodes (prefix length d-1), then
  // build every leaf and bubble the rows upward.
  const std::size_t leaf_len = config_.depth - 1;
  std::vector<Prefix> leaves;
  for (auto& m : members) {
    const Prefix lp = m.address.prefix(leaf_len);
    const bool fresh = !nodes_.contains(lp);
    Node& n = ensure_node(lp);
    if (fresh) leaves.push_back(lp);
    n.members.push_back(std::move(m));
  }
  // Ensure ancestor nodes exist (including the root even when empty).
  ensure_node(Prefix::root());
  for (const auto& lp : leaves) {
    for (Prefix p = lp; !p.is_root();) {
      p = p.parent();
      ensure_node(p);
    }
  }
  for (const auto& lp : leaves) rebuild_leaf(lp);

  // Bubble rows upward one level at a time so each ancestor's aggregates are
  // recomputed exactly once (refresh_ancestors per leaf would redo the root
  // once per leaf). The map walk is a sorted materialization: each level is
  // put in prefix order before any row is pushed, so version stamps and
  // push order never depend on hash-bucket layout.
  std::vector<std::vector<const Prefix*>> by_length(config_.depth);
  // detlint:allow(iteration-order) sorted materialization — levels sorted below
  for (const auto& [prefix, n] : nodes_)
    by_length[prefix.length()].push_back(&prefix);
  for (auto& level : by_length)
    std::sort(level.begin(), level.end(),
              [](const Prefix* a, const Prefix* b) { return *a < *b; });
  for (std::size_t len = config_.depth - 1; len >= 1; --len) {
    for (const Prefix* p : by_length[len]) push_row_to_parent(*p);
    for (const Prefix* q : by_length[len - 1]) recompute_aggregates(node(*q));
  }
}

GroupTree::Node& GroupTree::node(const Prefix& p) {
  const auto it = nodes_.find(p);
  PMC_EXPECTS(it != nodes_.end());
  return it->second;
}

const GroupTree::Node& GroupTree::node(const Prefix& p) const {
  const auto it = nodes_.find(p);
  PMC_EXPECTS(it != nodes_.end());
  return it->second;
}

GroupTree::Node& GroupTree::ensure_node(const Prefix& p) {
  const auto [it, inserted] = nodes_.try_emplace(p);
  if (inserted) it->second.child_view.bind(*interns_);
  return it->second;
}

std::size_t GroupTree::process_count() const noexcept {
  const auto it = nodes_.find(Prefix::root());
  return it == nodes_.end()
             ? 0
             : static_cast<std::size_t>(it->second.process_count);
}

const DepthView& GroupTree::view_at(const Prefix& prefix) const {
  PMC_EXPECTS(prefix.length() < config_.depth);
  return node(prefix).child_view;
}

const DepthView& GroupTree::view_for(const Address& self,
                                     std::size_t depth) const {
  PMC_EXPECTS(depth >= 1 && depth <= config_.depth);
  return view_at(self.prefix(depth - 1));
}

const std::vector<Address>& GroupTree::delegates(const Prefix& prefix) const {
  return node(prefix).delegates;
}

std::uint64_t GroupTree::represented(const Prefix& prefix) const {
  const auto it = nodes_.find(prefix);
  return it == nodes_.end() ? 0 : it->second.process_count;
}

const InterestSummary& GroupTree::summary(const Prefix& prefix) const {
  return node(prefix).summary;
}

bool GroupTree::contains(const Address& a) const {
  if (a.depth() != config_.depth) return false;
  const auto it = nodes_.find(a.prefix(config_.depth - 1));
  if (it == nodes_.end()) return false;
  const auto& members = it->second.members;
  const auto mit = std::lower_bound(
      members.begin(), members.end(), a,
      [](const Member& m, const Address& addr) { return m.address < addr; });
  return mit != members.end() && mit->address == a;
}

const Subscription& GroupTree::subscription(const Address& a) const {
  const auto& members = node(a.prefix(config_.depth - 1)).members;
  const auto it = std::lower_bound(
      members.begin(), members.end(), a,
      [](const Member& m, const Address& addr) { return m.address < addr; });
  PMC_EXPECTS(it != members.end() && it->address == a);
  return it->subscription;
}

std::vector<Address> GroupTree::all_members() const {
  std::vector<Address> out;
  // detlint:allow(iteration-order) sorted materialization — sort below erases bucket order
  for (const auto& [prefix, n] : nodes_) {
    if (prefix.length() == config_.depth - 1) {
      for (const auto& m : n.members) out.push_back(m.address);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Address> GroupTree::vacancies(const AddressSpace& space) const {
  PMC_EXPECTS(space.depth() == config_.depth);
  std::vector<Address> out;
  for (auto& a : space.enumerate()) {
    if (!contains(a)) out.push_back(std::move(a));
  }
  return out;
}

bool GroupTree::is_delegate_at(const Address& a, std::size_t depth) const {
  PMC_EXPECTS(depth >= 1 && depth <= config_.depth);
  if (depth == config_.depth) return contains(a);
  // `a` appears at depth i iff it is a delegate of its depth-(i+1) subgroup,
  // i.e. of the prefix of length i.
  const auto it = nodes_.find(a.prefix(depth));
  if (it == nodes_.end()) return false;
  const auto& del = it->second.delegates;
  return std::find(del.begin(), del.end(), a) != del.end();
}

MembershipView GroupTree::materialize_view(const Address& self) const {
  MembershipView mv(self, config_, *interns_);
  for (std::size_t depth = 1; depth <= config_.depth; ++depth) {
    const auto it = nodes_.find(self.prefix(depth - 1));
    if (it == nodes_.end()) continue;
    const DepthView& dv = it->second.child_view;
    for (std::size_t i = 0; i < dv.size(); ++i)
      mv.view(depth).upsert_pooled(dv.infix(i), dv.delegates(i),
                                   dv.interests_ptr(i), dv.process_count(i),
                                   dv.version(i), dv.alive(i));
  }
  return mv;
}

void GroupTree::rebuild_leaf(const Prefix& leaf_prefix) {
  PMC_EXPECTS(leaf_prefix.length() == config_.depth - 1);
  Node& n = node(leaf_prefix);
  std::sort(n.members.begin(), n.members.end(), member_less);

  DepthView view;
  view.bind(*interns_);
  InterestSummary summary;
  std::vector<Address> addrs;
  addrs.reserve(n.members.size());
  for (const auto& m : n.members) {
    const AddrId id = interns_->addrs.intern(m.address);
    auto interests =
        interns_->summaries.intern(InterestSummary::from(m.subscription));
    summary.merge(*interests);
    view.upsert_pooled(m.address.component(config_.depth - 1), {&id, 1},
                       std::move(interests), 1, version_counter_++, true);
    addrs.push_back(m.address);
  }
  n.child_view = std::move(view);
  n.summary = std::move(summary);
  n.process_count = n.members.size();
  n.delegates = elect_delegates(addrs, config_.redundancy);
}

void GroupTree::push_row_to_parent(const Prefix& child) {
  PMC_EXPECTS(!child.is_root());
  Node& parent = node(child.parent());
  const Node& c = node(child);
  if (c.process_count == 0) {
    parent.child_view.erase(child.infix());
    return;
  }
  delegate_scratch_.clear();
  for (const auto& d : c.delegates)
    delegate_scratch_.push_back(interns_->addrs.intern(d));
  InterestSummary interests = c.summary;
  // The row lives in the depth-(parent length + 1) tables; near the root it
  // may be coarsened (Sec. 6) — sound (only over-approximates) but cheaper.
  if (child.length() <= options_.coarsen_depth_leq) interests.coarsen();
  parent.child_view.upsert_pooled(
      child.infix(), delegate_scratch_,
      interns_->summaries.intern(std::move(interests)), c.process_count,
      version_counter_++, true);
}

void GroupTree::recompute_aggregates(Node& n) {
  n.process_count = n.child_view.total_processes();
  InterestSummary summary;
  candidate_scratch_.clear();
  const DepthView& dv = n.child_view;
  for (std::size_t i = 0; i < dv.size(); ++i) {
    if (!dv.alive(i)) continue;
    summary.merge(dv.interests(i));
    const auto ids = dv.delegates(i);
    candidate_scratch_.insert(candidate_scratch_.end(), ids.begin(),
                              ids.end());
  }
  n.summary = std::move(summary);
  // The R smallest addresses under a subgroup are among its children's
  // R-smallest (delegate sets), so electing from the union is exact.
  elect_delegate_ids(candidate_scratch_, config_.redundancy, interns_->addrs,
                     delegate_scratch_);
  n.delegates.clear();
  n.delegates.reserve(delegate_scratch_.size());
  for (const AddrId id : delegate_scratch_)
    n.delegates.push_back(interns_->addrs.resolve(id));
}

void GroupTree::refresh_ancestors(const Prefix& child) {
  if (child.is_root()) return;
  const Prefix parent_prefix = child.parent();
  push_row_to_parent(child);
  recompute_aggregates(node(parent_prefix));
  refresh_ancestors(parent_prefix);
}

void GroupTree::add_member(Address address, Subscription subscription) {
  PMC_EXPECTS(address.depth() == config_.depth);
  PMC_EXPECTS(!contains(address));
  const Prefix lp = address.prefix(config_.depth - 1);
  // Materialize any missing nodes on the path.
  ensure_node(lp);
  for (Prefix p = lp; !p.is_root();) {
    p = p.parent();
    ensure_node(p);
  }
  node(lp).members.push_back(
      Member{std::move(address), std::move(subscription)});
  rebuild_leaf(lp);
  refresh_ancestors(lp);
}

void GroupTree::remove_member(const Address& address) {
  PMC_EXPECTS(contains(address));
  const Prefix lp = address.prefix(config_.depth - 1);
  Node& n = node(lp);
  const auto it = std::find_if(
      n.members.begin(), n.members.end(),
      [&](const Member& m) { return m.address == address; });
  n.members.erase(it);
  rebuild_leaf(lp);
  refresh_ancestors(lp);
}

void GroupTree::update_subscription(const Address& address,
                                    Subscription subscription) {
  PMC_EXPECTS(contains(address));
  const Prefix lp = address.prefix(config_.depth - 1);
  Node& n = node(lp);
  const auto it = std::find_if(
      n.members.begin(), n.members.end(),
      [&](const Member& m) { return m.address == address; });
  it->subscription = std::move(subscription);
  rebuild_leaf(lp);
  refresh_ancestors(lp);
}

}  // namespace pmc
