#include "core/routing.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace maxutil::core {

using maxutil::util::ensure;
using maxutil::xform::CommodityIndex;

RoutingState::RoutingState(const ExtendedGraph& xg)
    : index_(xg.index_ptr()), phi_(index_->slot_count(), 0.0) {}

RoutingState RoutingState::initial(const ExtendedGraph& xg) {
  RoutingState state(xg);
  const CommodityIndex& idx = *state.index_;
  for (CommodityId j = 0; j < idx.commodity_count(); ++j) {
    for (std::size_t local = idx.node_begin(j); local < idx.node_end(j);
         ++local) {
      if (local == idx.sink_local(j)) continue;
      if (local == idx.dummy_source_local(j)) {
        state.phi_[idx.dummy_difference_slot(j)] = 1.0;
        continue;
      }
      const std::size_t begin = idx.out_begin(local);
      const std::size_t end = idx.out_end(local);
      ensure(begin < end,
             "RoutingState::initial: commodity node without usable out-edge");
      const double share = 1.0 / static_cast<double>(end - begin);
      for (std::size_t s = begin; s < end; ++s) state.phi_[s] = share;
    }
  }
  return state;
}

void RoutingState::set_phi(CommodityId j, EdgeId e, double value) {
  ensure(j < index_->commodity_count() && e < index_->global_edge_count(),
         "RoutingState::set_phi: out of range");
  // Values above 1 are tolerated so callers (finite-difference tests,
  // sensitivity analyses) may treat phi entries as free variables; the
  // per-node sum-to-1 invariant is what `is_valid` enforces.
  ensure(value >= -1e-12, "RoutingState::set_phi: negative fraction");
  const std::size_t slot = index_->slot_of(j, e);
  if (slot == CommodityIndex::kNoSlot) {
    // No storage outside the usable subgraph; writing 0 there is a no-op.
    ensure(value <= 1e-12,
           "RoutingState::set_phi: edge not usable by commodity");
    return;
  }
  phi_[slot] = std::max(value, 0.0);
}

void RoutingState::assign_commodity(CommodityId j, const RoutingState& src) {
  ensure(src.phi_.size() == phi_.size() &&
             src.index_->commodity_count() == index_->commodity_count(),
         "RoutingState::assign_commodity: shape mismatch");
  std::copy(src.phi_.begin() + index_->edge_begin(j),
            src.phi_.begin() + index_->edge_end(j),
            phi_.begin() + index_->edge_begin(j));
}

double RoutingState::max_invariant_violation(const ExtendedGraph& xg) const {
  const CommodityIndex& idx = xg.index();
  ensure(idx.slot_count() == phi_.size(),
         "RoutingState::max_invariant_violation: index shape mismatch");
  double worst = 0.0;
  for (const double value : phi_) {
    if (value < 0.0) worst = std::max(worst, -value);
  }
  for (CommodityId j = 0; j < idx.commodity_count(); ++j) {
    for (std::size_t local = idx.node_begin(j); local < idx.node_end(j);
         ++local) {
      if (local == idx.sink_local(j)) continue;
      double total = 0.0;
      for (std::size_t s = idx.out_begin(local); s < idx.out_end(local); ++s) {
        total += phi_[s];
      }
      worst = std::max(worst, std::abs(total - 1.0));
    }
  }
  return worst;
}

bool RoutingState::is_valid(const ExtendedGraph& xg, double tol) const {
  return max_invariant_violation(xg) <= tol;
}

double RoutingState::max_difference(const RoutingState& other) const {
  ensure(commodity_count() == other.commodity_count() &&
             phi_.size() == other.phi_.size(),
         "RoutingState::max_difference: shape mismatch");
  double worst = 0.0;
  for (std::size_t s = 0; s < phi_.size(); ++s) {
    worst = std::max(worst, std::abs(phi_[s] - other.phi_[s]));
  }
  return worst;
}

void RoutingState::blend_toward(const RoutingState& target, double alpha) {
  ensure(alpha >= 0.0 && alpha <= 1.0, "RoutingState::blend_toward: bad alpha");
  ensure(phi_.size() == target.phi_.size(),
         "RoutingState::blend_toward: shape mismatch");
  for (std::size_t s = 0; s < phi_.size(); ++s) {
    phi_[s] += alpha * (target.phi_[s] - phi_[s]);
  }
}

}  // namespace maxutil::core
