#include "xform/extended_graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/check.hpp"

namespace maxutil::xform {

using maxutil::util::ensure;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

ExtendedGraph::ExtendedGraph(const stream::StreamNetwork& network,
                             PenaltyConfig penalty)
    : network_(&network), penalty_(penalty) {
  ensure(penalty.epsilon > 0.0, "ExtendedGraph: epsilon must be positive");
  const auto& g0 = network.graph();

  // Physical nodes keep their ids.
  for (NodeId n = 0; n < g0.node_count(); ++n) {
    graph_.add_node();
    if (network.is_sink(n)) {
      nodes_.push_back({NodeKind::kSink, kInf, n});
    } else {
      nodes_.push_back({NodeKind::kServer, network.capacity(n), n});
    }
  }

  // Bandwidth node n_ik per physical link, spliced as i -> n_ik -> k.
  bandwidth_node_.resize(network.link_count());
  for (stream::LinkId l = 0; l < network.link_count(); ++l) {
    const NodeId nik = graph_.add_node();
    nodes_.push_back({NodeKind::kBandwidth, network.bandwidth(l), l});
    bandwidth_node_[l] = nik;

    graph_.add_edge(g0.tail(l), nik);
    edges_.push_back({LinkKind::kProcessing, l});
    graph_.add_edge(nik, g0.head(l));
    edges_.push_back({LinkKind::kTransfer, l});
  }

  // Dummy source s-bar_j with input and difference links.
  dummy_source_.resize(network.commodity_count());
  dummy_input_.resize(network.commodity_count());
  dummy_difference_.resize(network.commodity_count());
  for (CommodityId j = 0; j < network.commodity_count(); ++j) {
    const NodeId sbar = graph_.add_node();
    nodes_.push_back({NodeKind::kDummySource, kInf, j});
    dummy_source_[j] = sbar;
    dummy_input_[j] = graph_.add_edge(sbar, network.source(j));
    edges_.push_back({LinkKind::kDummyInput, j});
    dummy_difference_[j] = graph_.add_edge(sbar, network.sink(j));
    edges_.push_back({LinkKind::kDummyDifference, j});
  }

  for (NodeId v = 0; v < nodes_.size(); ++v) {
    if (std::isfinite(nodes_[v].capacity)) finite_capacity_nodes_.push_back(v);
  }

  // The per-commodity CSR index; the sorted node sets fall out of it.
  index_ = std::make_shared<const CommodityIndex>(*this);
  commodity_nodes_.resize(network.commodity_count());
  for (CommodityId j = 0; j < network.commodity_count(); ++j) {
    auto& nodes = commodity_nodes_[j];
    nodes.reserve(index_->node_end(j) - index_->node_begin(j));
    for (std::size_t k = index_->node_begin(j); k < index_->node_end(j); ++k) {
      nodes.push_back(index_->node_sorted(k));
    }
  }
}

void ExtendedGraph::refresh_capacities() {
  for (NodeInfo& node : nodes_) {
    double capacity = node.capacity;
    if (node.kind == NodeKind::kServer) {
      capacity = network_->capacity(node.ref);
    } else if (node.kind == NodeKind::kBandwidth) {
      capacity = network_->bandwidth(node.ref);
    }
    ensure(std::isfinite(capacity) == std::isfinite(node.capacity),
           "refresh_capacities: a capacity crossed +inf");
    node.capacity = capacity;
  }
}

NodeKind ExtendedGraph::node_kind(NodeId v) const {
  ensure(v < nodes_.size(), "ExtendedGraph: node out of range");
  return nodes_[v].kind;
}

NodeId ExtendedGraph::physical_node(NodeId v) const {
  ensure(node_kind(v) == NodeKind::kServer || node_kind(v) == NodeKind::kSink,
         "ExtendedGraph: not a physical node");
  return nodes_[v].ref;
}

stream::LinkId ExtendedGraph::physical_link_of_bandwidth_node(NodeId v) const {
  ensure(node_kind(v) == NodeKind::kBandwidth,
         "ExtendedGraph: not a bandwidth node");
  return nodes_[v].ref;
}

NodeId ExtendedGraph::bandwidth_node(stream::LinkId l) const {
  ensure(l < bandwidth_node_.size(), "ExtendedGraph: link out of range");
  return bandwidth_node_[l];
}

EdgeId ExtendedGraph::processing_edge(stream::LinkId l) const {
  const NodeId nik = bandwidth_node(l);
  // A bandwidth node has exactly one in-edge: the processing edge.
  return graph_.in_edges(nik).front();
}

EdgeId ExtendedGraph::transfer_edge(stream::LinkId l) const {
  const NodeId nik = bandwidth_node(l);
  return graph_.out_edges(nik).front();
}

std::string ExtendedGraph::node_label(NodeId v) const {
  switch (node_kind(v)) {
    case NodeKind::kServer:
    case NodeKind::kSink:
      return network_->node_name(nodes_[v].ref);
    case NodeKind::kBandwidth: {
      const auto l = nodes_[v].ref;
      return "bw(" + network_->node_name(network_->graph().tail(l)) + "->" +
             network_->node_name(network_->graph().head(l)) + ")";
    }
    case NodeKind::kDummySource:
      return "dummy(" + network_->commodity_name(nodes_[v].ref) + ")";
  }
  return "?";
}

stream::LinkId ExtendedGraph::physical_link(EdgeId e) const {
  const LinkKind kind = link_kind(e);
  ensure(kind == LinkKind::kProcessing || kind == LinkKind::kTransfer,
         "ExtendedGraph: edge has no physical link");
  return edges_[e].ref;
}

CommodityId ExtendedGraph::dummy_commodity(EdgeId e) const {
  const LinkKind kind = link_kind(e);
  ensure(kind == LinkKind::kDummyInput || kind == LinkKind::kDummyDifference,
         "ExtendedGraph: not a dummy edge");
  return edges_[e].ref;
}

NodeId ExtendedGraph::dummy_source(CommodityId j) const {
  ensure(j < dummy_source_.size(), "ExtendedGraph: commodity out of range");
  return dummy_source_[j];
}

EdgeId ExtendedGraph::dummy_input_link(CommodityId j) const {
  ensure(j < dummy_input_.size(), "ExtendedGraph: commodity out of range");
  return dummy_input_[j];
}

EdgeId ExtendedGraph::dummy_difference_link(CommodityId j) const {
  ensure(j < dummy_difference_.size(), "ExtendedGraph: commodity out of range");
  return dummy_difference_[j];
}

bool ExtendedGraph::usable(CommodityId j, EdgeId e) const {
  ensure(e < edges_.size(), "ExtendedGraph: edge out of range");
  switch (edges_[e].kind) {
    case LinkKind::kProcessing:
    case LinkKind::kTransfer:
      return network_->uses_link(j, edges_[e].ref);
    case LinkKind::kDummyInput:
    case LinkKind::kDummyDifference:
      return edges_[e].ref == j;
  }
  return false;
}

double ExtendedGraph::beta(CommodityId j, EdgeId e) const {
  ensure(usable(j, e), "ExtendedGraph::beta: edge not usable by commodity");
  // The processing edge carries the whole physical shrinkage; transfer and
  // dummy edges are rate-preserving (beta = 1, Section 3).
  if (edges_[e].kind == LinkKind::kProcessing) {
    return network_->shrinkage(j, edges_[e].ref);
  }
  return 1.0;
}

double ExtendedGraph::cost_rate(CommodityId j, EdgeId e) const {
  ensure(usable(j, e), "ExtendedGraph::cost_rate: edge not usable by commodity");
  // Processing spends the physical c_ik(j); a bandwidth node spends one unit
  // of bandwidth per unit of (post-processing) flow; dummy nodes have
  // infinite capacity, so their unit rate only fixes the f = flow identity
  // that the difference-link cost Y relies on.
  if (edges_[e].kind == LinkKind::kProcessing) {
    return network_->consumption(j, edges_[e].ref);
  }
  return 1.0;
}

maxutil::graph::EdgeFilter ExtendedGraph::commodity_filter(
    CommodityId j) const {
  ensure(j < commodity_count(), "ExtendedGraph: commodity out of range");
  return [this, j](EdgeId e) { return usable(j, e); };
}

const std::vector<NodeId>& ExtendedGraph::commodity_nodes(CommodityId j) const {
  ensure(j < commodity_nodes_.size(), "ExtendedGraph: commodity out of range");
  return commodity_nodes_[j];
}

double ExtendedGraph::edge_cost(EdgeId e, double x) const {
  ensure(x >= -1e-9, "ExtendedGraph::edge_cost: negative usage");
  if (link_kind(e) != LinkKind::kDummyDifference) return 0.0;
  const CommodityId j = edges_[e].ref;
  const double lambda = network_->lambda(j);
  const auto& u = network_->utility(j);
  const double clamped = std::clamp(x, 0.0, lambda);
  return u.value(lambda) - u.value(lambda - clamped);
}

double ExtendedGraph::utility_loss_derivative(CommodityId j, double x) const {
  const double lambda = network_->lambda(j);
  const auto& u = network_->utility(j);
  return u.derivative(lambda - std::clamp(x, 0.0, lambda));
}

double ExtendedGraph::utility_loss_second_derivative(CommodityId j,
                                                     double x) const {
  const double lambda = network_->lambda(j);
  const auto& u = network_->utility(j);
  // Y(x) = U(l) - U(l - x)  =>  Y''(x) = -U''(l - x) >= 0.
  return -u.second_derivative(lambda - std::clamp(x, 0.0, lambda));
}

}  // namespace maxutil::xform
