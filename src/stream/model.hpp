#pragma once

#include <limits>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"
#include "stream/utility.hpp"

namespace maxutil::stream {

/// Index of a commodity (stream/query product) within a StreamNetwork.
using CommodityId = std::size_t;

/// Physical link identifier — same id space as the underlying Digraph edges.
using LinkId = maxutil::graph::EdgeId;

using maxutil::graph::NodeId;

/// The paper's Section 2 system model: a capacitated directed graph
/// G0 = (N0, E0) of processing nodes and sinks, plus J commodities.
///
/// * Each **server** u has computing power C_u; each **sink** only receives
///   data (modelled as infinite capacity, no outgoing processing).
/// * Each **link** (i, k) has communication bandwidth B_ik.
/// * Each **commodity** j has a unique source s_j (a server), a unique sink,
///   a maximum source rate lambda_j, and a concave increasing utility
///   U_j(a_j) of its admitted rate a_j.
/// * A commodity uses a subset of links (the task-to-server assignment is
///   given, per the paper); on each used link (i, k) node i spends
///   c_ik(j) units of computing power per unit of commodity-j flow and emits
///   beta_ik(j) units of output ("shrinkage factor").
///
/// Shrinkage factors are specified through per-node potentials g_n(j)
/// (beta_ik(j) = g_k(j) / g_i(j)), which makes the paper's Property 1
/// (path-independence of the beta product) hold by construction. The
/// potential of the source is normalized to 1 in validate().
class StreamNetwork {
 public:
  /// Adds a processing node with computing power `capacity` > 0.
  NodeId add_server(std::string name, double capacity);

  /// Adds a sink node (receives data only).
  NodeId add_sink(std::string name);

  /// Adds a physical link with bandwidth `bandwidth` > 0. Links out of sink
  /// nodes are rejected.
  LinkId add_link(NodeId from, NodeId to, double bandwidth);

  /// Declares commodity j with its source server, sink node, maximum source
  /// rate lambda > 0, and utility function.
  CommodityId add_commodity(std::string name, NodeId source, NodeId sink,
                            double lambda, Utility utility);

  /// Sets the potential g_n(j) > 0 used to derive shrinkage factors for
  /// commodity j at node n. Defaults to 1 everywhere (no shrinkage).
  void set_potential(CommodityId j, NodeId n, double g);

  /// Marks `link` usable by commodity j with per-unit computing cost
  /// `consumption` > 0 at the link's tail server.
  void enable_link(CommodityId j, LinkId link, double consumption);

  /// Updates the maximum source rate of commodity j (demand change at run
  /// time). Optimizers that hold an ExtendedGraph over this network observe
  /// the new rate on their next iteration — the mechanism behind the
  /// demand-tracking experiments.
  void set_lambda(CommodityId j, double lambda);

  /// Updates server n's computing power C_n (positive, as in add_server).
  /// Unlike a rate, a capacity is copied into the ExtendedGraph over this
  /// network, which sees the new value only after
  /// ExtendedGraph::refresh_capacities.
  void set_capacity(NodeId n, double capacity);

  /// Updates link `link`'s bandwidth B_ik (positive, as in add_link); same
  /// refresh contract as set_capacity.
  void set_bandwidth(LinkId link, double bandwidth);

  // --- Structure ---
  const maxutil::graph::Digraph& graph() const { return graph_; }
  std::size_t node_count() const { return graph_.node_count(); }
  std::size_t link_count() const { return graph_.edge_count(); }
  std::size_t commodity_count() const { return commodities_.size(); }

  const std::string& node_name(NodeId n) const;
  bool is_sink(NodeId n) const;

  /// Computing power of a server; +inf for sinks.
  double capacity(NodeId n) const;

  /// Bandwidth of a physical link.
  double bandwidth(LinkId link) const;

  // --- Commodity accessors ---
  const std::string& commodity_name(CommodityId j) const;
  NodeId source(CommodityId j) const;
  NodeId sink(CommodityId j) const;
  double lambda(CommodityId j) const;
  const Utility& utility(CommodityId j) const;

  /// True when commodity j may route over `link`.
  bool uses_link(CommodityId j, LinkId link) const;

  /// Links enabled for commodity j, in the order they were first enabled
  /// (not sorted, never with duplicates). Lets per-commodity consumers
  /// iterate O(|usable_j|) instead of probing every link with uses_link.
  const std::vector<LinkId>& enabled_links(CommodityId j) const;

  /// Computing cost c_ik(j) of `link` for commodity j; link must be enabled.
  double consumption(CommodityId j, LinkId link) const;

  /// Shrinkage factor beta_ik(j) = g_head / g_tail; link must be enabled.
  double shrinkage(CommodityId j, LinkId link) const;

  /// Potential g_n(j) (1 where unset or unreachable, per the paper).
  double potential(CommodityId j, NodeId n) const;

  /// Edge filter selecting commodity j's usable links, for graph algorithms.
  maxutil::graph::EdgeFilter commodity_filter(CommodityId j) const;

  /// Amount of commodity-j data delivered at the sink per unit admitted at
  /// the source: the beta product along any path (= g_sink / g_source).
  double delivery_gain(CommodityId j) const;

 private:
  friend class NetworkValidator;

  struct Node {
    std::string name;
    double capacity;  // +inf for sinks
    bool sink;
  };
  struct Commodity {
    std::string name;
    NodeId source;
    NodeId sink;
    double lambda;
    Utility utility;
    // Both arrays grow lazily on write: entries past the stored tail hold
    // their defaults, so add_server/add_sink/add_link stay O(1) instead of
    // re-growing every commodity's vectors.
    std::vector<double> potential;    // per node; default (unstored) is 1
    std::vector<double> consumption;  // per link; < 0 or unstored: unusable
    std::vector<LinkId> enabled;      // links usable by this commodity
  };

  void check_commodity(CommodityId j) const;
  void check_node(NodeId n) const;
  void check_link(LinkId link) const;

  maxutil::graph::Digraph graph_;
  std::vector<Node> nodes_;
  std::vector<double> bandwidth_;
  std::vector<Commodity> commodities_;
};

}  // namespace maxutil::stream
