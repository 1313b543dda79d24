#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace maxutil::graph {

/// Dense node identifier: nodes are numbered 0..node_count()-1 in creation
/// order, which lets algorithm state live in flat vectors indexed by node.
using NodeId = std::size_t;

/// Dense edge identifier, numbered 0..edge_count()-1 in creation order.
using EdgeId = std::size_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// Directed multigraph with O(1) access to a node's in- and out-edges.
///
/// This is the structural substrate for both the physical stream-processing
/// network and the extended graph of Section 3 (bandwidth + dummy nodes).
/// Parallel edges are allowed (the extended graph never creates them, but the
/// physical model does not forbid them); self-loops are rejected because no
/// graph in the formulation contains them and they would break the
/// loop-freedom machinery.
class Digraph {
 public:
  Digraph() = default;

  /// Creates `n` isolated nodes up front.
  explicit Digraph(std::size_t n);

  /// Adds one node and returns its id.
  NodeId add_node();

  /// Adds a directed edge from `from` to `to`; returns its id.
  /// Throws on out-of-range endpoints or a self-loop.
  EdgeId add_edge(NodeId from, NodeId to);

  std::size_t node_count() const { return out_edges_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  /// Tail (source endpoint) of an edge.
  NodeId tail(EdgeId e) const {
    maxutil::util::ensure(e < edge_count(), "Digraph::tail: edge out of range");
    return edges_[e].from;
  }

  /// Head (target endpoint) of an edge.
  NodeId head(EdgeId e) const {
    maxutil::util::ensure(e < edge_count(), "Digraph::head: edge out of range");
    return edges_[e].to;
  }

  /// Ids of edges leaving `n`, in insertion order.
  std::span<const EdgeId> out_edges(NodeId n) const;

  /// Ids of edges entering `n`, in insertion order.
  std::span<const EdgeId> in_edges(NodeId n) const;

  /// First edge from `from` to `to`, or the sentinel `edge_count()` when no
  /// such edge exists; linear in the out-degree of `from`.
  EdgeId find_edge(NodeId from, NodeId to) const;

  /// True if some edge runs from `from` to `to` (i.e. `find_edge` does not
  /// return its `edge_count()` sentinel).
  bool has_edge(NodeId from, NodeId to) const;

  /// Out-degree of `n`.
  std::size_t out_degree(NodeId n) const { return out_edges(n).size(); }

  /// In-degree of `n`.
  std::size_t in_degree(NodeId n) const { return in_edges(n).size(); }

  /// Graphviz DOT rendering; `node_label(n)` may be empty to use ids.
  std::string to_dot(
      const std::vector<std::string>& node_labels = {}) const;

 private:
  struct Edge {
    NodeId from;
    NodeId to;
  };
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_edges_;
  std::vector<std::vector<EdgeId>> in_edges_;
};

}  // namespace maxutil::graph
