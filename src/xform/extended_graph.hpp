#pragma once

#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"
#include "stream/model.hpp"
#include "util/check.hpp"
#include "xform/commodity_index.hpp"
#include "xform/penalty.hpp"

namespace maxutil::xform {

using maxutil::graph::EdgeId;
using maxutil::graph::NodeId;
using maxutil::stream::CommodityId;

/// Role of a node in the extended graph G' = (V, L) of Section 3.
enum class NodeKind {
  kServer,       // physical processing node (capacity = computing power)
  kSink,         // physical sink (receives only; no resource constraint)
  kBandwidth,    // n_ik: models link (i,k)'s bandwidth as a node resource
  kDummySource,  // s-bar_j: admission-control dummy (no resource constraint)
};

/// Role of an edge in the extended graph.
enum class LinkKind {
  kProcessing,      // i -> n_ik : carries c_ik(j) and beta_ik(j)
  kTransfer,        // n_ik -> k : c = 1, beta = 1 (pure bandwidth spend)
  kDummyInput,      // s-bar_j -> s_j : admitted traffic a_j
  kDummyDifference  // s-bar_j -> sink_j : rejected traffic, costed by Y
};

/// The unified single-resource network of Section 3.
///
/// Construction performs both transformations of the paper:
///  1. **Bandwidth nodes**: every physical link (i,k) becomes a node n_ik of
///     capacity B_ik spliced between i and k, so that link bandwidth and
///     server computing power become one kind of per-node constraint.
///  2. **Dummy nodes**: every commodity j gains a dummy source s-bar_j
///     receiving the full offered load lambda_j, a dummy input link to the
///     real source (flow = admitted rate a_j), and a dummy difference link
///     straight to the sink whose cost is the utility loss
///     Y(x) = U_j(lambda_j) - U_j(lambda_j - x). Admission control thereby
///     becomes routing.
///
/// Node ids 0..N-1 coincide with the physical network's node ids; bandwidth
/// nodes and dummy sources follow. The referenced StreamNetwork must outlive
/// this object.
///
/// An instance also carries the cost model of the transformed problem
/// (penalty barriers D_i and utility-loss costs Y), so optimizers evaluate
/// all of A = Y + eps*D through this one interface.
class ExtendedGraph {
 public:
  /// Builds the extended graph; `network` must already pass
  /// stream::validate (construction re-validates cheaply via checks below).
  explicit ExtendedGraph(const stream::StreamNetwork& network,
                         PenaltyConfig penalty = {});

  const maxutil::graph::Digraph& graph() const { return graph_; }
  const stream::StreamNetwork& network() const { return *network_; }
  const PenaltyConfig& penalty_config() const { return penalty_; }

  std::size_t node_count() const { return graph_.node_count(); }
  std::size_t edge_count() const { return graph_.edge_count(); }
  std::size_t commodity_count() const { return network_->commodity_count(); }

  /// Re-reads every server's computing power and every bandwidth node's
  /// bandwidth from the network, after StreamNetwork::set_capacity /
  /// set_bandwidth. The structure, the CommodityIndex and
  /// finite_capacity_nodes() do not change, so no capacity may move between
  /// finite and +inf (checked; rebuild the graph instead).
  void refresh_capacities();

  // --- Node structure ---
  NodeKind node_kind(NodeId v) const;
  /// Resource budget C_v: computing power, bandwidth, or +inf.
  double capacity(NodeId v) const {
    maxutil::util::ensure(v < nodes_.size(),
                          "ExtendedGraph: node out of range");
    return nodes_[v].capacity;
  }
  bool has_finite_capacity(NodeId v) const {
    return std::isfinite(capacity(v));
  }
  /// Every node with a finite budget (servers and bandwidth nodes), in
  /// ascending id order: the only nodes whose penalty D_v can be nonzero,
  /// so cost sums and capacity guards visit these instead of all nodes.
  const std::vector<NodeId>& finite_capacity_nodes() const {
    return finite_capacity_nodes_;
  }
  /// The physical node behind a kServer/kSink node (the identity mapping).
  NodeId physical_node(NodeId v) const;
  /// The physical link behind a kBandwidth node.
  stream::LinkId physical_link_of_bandwidth_node(NodeId v) const;
  /// Bandwidth node spliced into physical link `l`.
  NodeId bandwidth_node(stream::LinkId l) const;
  /// The i -> n_ik edge of physical link `l` (carries c and beta).
  EdgeId processing_edge(stream::LinkId l) const;
  /// The n_ik -> k edge of physical link `l` (unit bandwidth spend).
  EdgeId transfer_edge(stream::LinkId l) const;
  /// Human-readable node label for reports/DOT dumps.
  std::string node_label(NodeId v) const;

  // --- Edge structure ---
  LinkKind link_kind(EdgeId e) const {
    maxutil::util::ensure(e < edges_.size(),
                          "ExtendedGraph: edge out of range");
    return edges_[e].kind;
  }
  /// Physical link behind a kProcessing/kTransfer edge.
  stream::LinkId physical_link(EdgeId e) const;
  /// Owning commodity of a dummy edge.
  CommodityId dummy_commodity(EdgeId e) const;

  // --- Per-commodity structure ---
  NodeId dummy_source(CommodityId j) const;
  NodeId source(CommodityId j) const { return network_->source(j); }
  NodeId sink(CommodityId j) const { return network_->sink(j); }
  double lambda(CommodityId j) const { return network_->lambda(j); }
  EdgeId dummy_input_link(CommodityId j) const;
  EdgeId dummy_difference_link(CommodityId j) const;

  /// True when commodity j may route over extended edge e.
  bool usable(CommodityId j, EdgeId e) const;

  /// Shrinkage beta_e(j); edge must be usable by j.
  double beta(CommodityId j, EdgeId e) const;

  /// Resource consumption c_e(j) at the tail node per unit of commodity-j
  /// flow; edge must be usable by j.
  double cost_rate(CommodityId j, EdgeId e) const;

  /// Filter over extended edges usable by commodity j.
  maxutil::graph::EdgeFilter commodity_filter(CommodityId j) const;

  /// Extended nodes that can carry commodity j (tail or head of a usable
  /// edge), in increasing id order.
  const std::vector<NodeId>& commodity_nodes(CommodityId j) const;

  /// The precomputed per-commodity CSR subgraph index: usable edges in
  /// topological order with cached beta/cost_rate, local ids, and O(1)
  /// (commodity, edge) -> slot lookup. Hot paths sweep this instead of
  /// filtering all edges through `usable`.
  const CommodityIndex& index() const { return *index_; }

  /// Shared handle to the index for state objects (routing/flow snapshots)
  /// that may outlive this graph.
  const std::shared_ptr<const CommodityIndex>& index_ptr() const {
    return index_;
  }

  // --- Cost model: A = Y + eps * D (Section 3) ---

  /// Utility-loss cost Y_e(x) of resource usage x on edge e: nonzero only on
  /// dummy difference links, where Y(x) = U_j(lambda_j) - U_j(lambda_j - x).
  double edge_cost(EdgeId e, double x) const;

  /// dY_e/dx = U_j'(lambda_j - x) on dummy difference links, else 0
  /// (eq. 11's first case).
  double edge_cost_derivative(EdgeId e, double x) const {
    maxutil::util::ensure(
        x >= -1e-9, "ExtendedGraph::edge_cost_derivative: negative usage");
    if (link_kind(e) != LinkKind::kDummyDifference) return 0.0;
    return utility_loss_derivative(edges_[e].ref, x);
  }

  /// eps * D_v(z) for usage z at node v; 0 for infinite-capacity nodes.
  double node_penalty(NodeId v, double z) const {
    return penalty_value(penalty_, capacity(v), z);
  }

  /// eps * dD_v/dz (eq. 11's second case).
  double node_penalty_derivative(NodeId v, double z) const {
    return penalty_derivative(penalty_, capacity(v), z);
  }

  /// d2Y_e/dx2 = -U_j''(lambda_j - x) on dummy difference links, else 0.
  double edge_cost_second_derivative(EdgeId e, double x) const {
    maxutil::util::ensure(
        x >= -1e-9, "ExtendedGraph::edge_cost_second_derivative: negative");
    if (link_kind(e) != LinkKind::kDummyDifference) return 0.0;
    return utility_loss_second_derivative(edges_[e].ref, x);
  }

  /// eps * d2D_v/dz2 (curvature for the second-derivative step variant).
  double node_penalty_second_derivative(NodeId v, double z) const {
    return penalty_second_derivative(penalty_, capacity(v), z);
  }

 private:
  struct NodeInfo {
    NodeKind kind;
    double capacity;
    std::size_t ref;  // physical node / physical link / commodity, per kind
  };
  struct EdgeInfo {
    LinkKind kind;
    std::size_t ref;  // physical link (processing/transfer) or commodity
  };

  /// Y' and Y'' of commodity j's dummy difference link at usage x: the
  /// out-of-line halves of the edge-cost derivatives, which are inline
  /// because every other edge costs nothing.
  double utility_loss_derivative(CommodityId j, double x) const;
  double utility_loss_second_derivative(CommodityId j, double x) const;

  const stream::StreamNetwork* network_;
  PenaltyConfig penalty_;
  maxutil::graph::Digraph graph_;
  std::vector<NodeInfo> nodes_;
  std::vector<EdgeInfo> edges_;
  std::vector<NodeId> bandwidth_node_;           // per physical link
  std::vector<NodeId> dummy_source_;             // per commodity
  std::vector<EdgeId> dummy_input_;              // per commodity
  std::vector<EdgeId> dummy_difference_;         // per commodity
  std::vector<std::vector<NodeId>> commodity_nodes_;
  std::vector<NodeId> finite_capacity_nodes_;    // ascending
  std::shared_ptr<const CommodityIndex> index_;
};

}  // namespace maxutil::xform
