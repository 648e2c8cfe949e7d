// Test helpers between ViewRow — a row's plain value form — and the handle
// forms the library stores and exchanges (DepthView rows, RowBatch rows).
#pragma once

#include <cstdint>
#include <vector>

#include "membership/view.hpp"

namespace pmc {

/// One view row as plain values: what a DepthView row or a RowBatch row
/// stands for once its handles are resolved.
struct ViewRow {
  AddrComponent infix = 0;          ///< subgroup's component at this depth
  std::vector<Address> delegates;   ///< R delegates; the process itself at depth d
  InterestSummary interests;        ///< regrouped interests of the subgroup
  std::uint64_t process_count = 0;  ///< processes represented by the row
  std::uint64_t version = 0;        ///< anti-entropy logical timestamp
  bool alive = true;                ///< false: tombstone (left or crashed)
};

/// `row`'s delegates, interned into `interns`.
inline std::vector<AddrId> intern_delegates(const ViewRow& row,
                                            Interns& interns) {
  std::vector<AddrId> ids;
  for (const auto& d : row.delegates) ids.push_back(interns.addrs.intern(d));
  return ids;
}

/// Interns `row`'s delegates and summary into the view's table, then
/// applies DepthView::upsert_pooled's merge rule.
inline bool upsert_row(DepthView& view, const ViewRow& row) {
  Interns& in = view.interns();
  return view.upsert_pooled(row.infix, intern_delegates(row, in),
                            in.summaries.intern(row.interests),
                            row.process_count, row.version, row.alive);
}

/// Row i of `view` as a value, delegates in their published order.
inline ViewRow materialize_row(const DepthView& view, std::size_t i) {
  ViewRow row;
  row.infix = view.infix(i);
  for (const AddrId id : view.delegates(i))
    row.delegates.push_back(view.interns().addrs.resolve(id));
  row.interests = view.interests(i);
  row.process_count = view.process_count(i);
  row.version = view.version(i);
  row.alive = view.alive(i);
  return row;
}

/// Row k of `batch` as a value, its delegate ids resolved through the
/// batch's table.
inline ViewRow batch_row(const RowBatch& batch, std::size_t k) {
  ViewRow row;
  row.infix = batch.infix(k);
  for (const AddrId id : batch.delegates(k)) {
    const auto comps = batch.address(id);
    row.delegates.emplace_back(
        std::vector<AddrComponent>(comps.begin(), comps.end()));
  }
  row.interests = batch.interests(k);
  row.process_count = batch.process_count(k);
  row.version = batch.version(k);
  row.alive = batch.alive(k);
  return row;
}

/// Appends `row` at `depth` to `batch`, whose table must be `interns`.
inline void push_row(RowBatch& batch, std::uint32_t depth, const ViewRow& row,
                     Interns& interns) {
  PMC_EXPECTS(batch.interns() == &interns);
  batch.push(depth, row.infix, intern_delegates(row, interns),
             interns.summaries.intern(row.interests), row.process_count,
             row.version, row.alive);
}

}  // namespace pmc
