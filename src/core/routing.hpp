#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "util/check.hpp"
#include "xform/extended_graph.hpp"

namespace maxutil::core {

using maxutil::graph::EdgeId;
using maxutil::graph::NodeId;
using maxutil::stream::CommodityId;
using maxutil::xform::ExtendedGraph;

/// The routing decision phi of Section 4: phi_ik(j) is the fraction of node
/// i's commodity-j traffic t_i(j) processed over extended edge (i,k).
///
/// Invariants (enforced by `is_valid`):
///  * phi >= 0, and phi = 0 on edges not usable by the commodity;
///  * fractions at every non-sink node of the commodity's node set sum to 1;
///  * the support never leaves the commodity's usable subgraph, which is a
///    DAG by construction (commodity DAGs + dummy links), so routing is
///    structurally loop-free — the paper's loop-freedom requirement holds at
///    every iterate, while the blocked-set machinery (gamma.hpp) still rules
///    out the *latent* loops Gallager's update must avoid.
///
/// Storage is sparse SoA: one double per usable (commodity, edge) *slot* of
/// the graph's CommodityIndex — O(sum of usable subgraph sizes) instead of
/// the old dense [commodity][edge] matrix. Unusable pairs hold no storage;
/// `phi(j, e)` reports them as 0 and `set_phi` rejects nonzero mass on them.
/// The index is held by shared_ptr, so a RoutingState (e.g. a controller
/// snapshot) stays usable after its originating ExtendedGraph is destroyed.
class RoutingState {
 public:
  /// All-zero fractions (invalid until initialized); prefer `initial`.
  explicit RoutingState(const ExtendedGraph& xg);

  /// The paper's starting point: every commodity routes its entire offered
  /// load over the dummy difference link (admitted rate 0 — trivially
  /// feasible), and interior nodes spread uniformly over their usable
  /// out-edges so the first marginal-cost sweep is well defined everywhere.
  static RoutingState initial(const ExtendedGraph& xg);

  /// Fraction on (j, e); 0 for pairs outside the usable subgraph.
  double phi(CommodityId j, EdgeId e) const {
    const std::size_t slot = index_->slot_of(j, e);
    return slot == xform::CommodityIndex::kNoSlot ? 0.0 : phi_[slot];
  }
  void set_phi(CommodityId j, EdgeId e, double value);

  /// Slot-addressed hot-path accessors (slots from the CommodityIndex).
  double phi_slot(std::size_t slot) const { return phi_[slot]; }
  void set_phi_slot(std::size_t slot, double value) {
    maxutil::util::ensure(slot < phi_.size(),
                          "RoutingState::set_phi_slot: out of range");
    maxutil::util::ensure(value >= -1e-12,
                          "RoutingState::set_phi_slot: negative fraction");
    phi_[slot] = std::max(value, 0.0);
  }

  const xform::CommodityIndex& index() const { return *index_; }

  std::size_t commodity_count() const { return index_->commodity_count(); }
  std::size_t slot_count() const { return phi_.size(); }

  /// Copies commodity j's entire slot range from `src` (same index layout).
  void assign_commodity(CommodityId j, const RoutingState& src);

  /// Largest violation of the routing invariants (0 when valid): negative
  /// fractions or per-node sums away from 1 (mass on unusable edges is
  /// structurally impossible in the sparse layout).
  double max_invariant_violation(const ExtendedGraph& xg) const;

  /// True when `max_invariant_violation` is below `tol`.
  bool is_valid(const ExtendedGraph& xg, double tol = 1e-9) const;

  /// Largest |phi - other.phi| across all commodities/edges.
  double max_difference(const RoutingState& other) const;

  /// this = (1 - alpha) * this + alpha * target (used by the capacity
  /// safeguard to damp a Gamma step; preserves all invariants since the
  /// simplex of fractions is convex).
  void blend_toward(const RoutingState& target, double alpha);

 private:
  std::shared_ptr<const xform::CommodityIndex> index_;
  std::vector<double> phi_;  // [slot]
};

}  // namespace maxutil::core
