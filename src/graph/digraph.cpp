#include "graph/digraph.hpp"

#include <sstream>

#include "util/check.hpp"

namespace maxutil::graph {

using maxutil::util::ensure;

Digraph::Digraph(std::size_t n) : out_edges_(n), in_edges_(n) {}

NodeId Digraph::add_node() {
  out_edges_.emplace_back();
  in_edges_.emplace_back();
  return out_edges_.size() - 1;
}

EdgeId Digraph::add_edge(NodeId from, NodeId to) {
  ensure(from < node_count() && to < node_count(),
         "Digraph::add_edge: endpoint out of range");
  ensure(from != to, "Digraph::add_edge: self-loops are not supported");
  const EdgeId id = edges_.size();
  edges_.push_back({from, to});
  out_edges_[from].push_back(id);
  in_edges_[to].push_back(id);
  return id;
}

std::span<const EdgeId> Digraph::out_edges(NodeId n) const {
  ensure(n < node_count(), "Digraph::out_edges: node out of range");
  return out_edges_[n];
}

std::span<const EdgeId> Digraph::in_edges(NodeId n) const {
  ensure(n < node_count(), "Digraph::in_edges: node out of range");
  return in_edges_[n];
}

EdgeId Digraph::find_edge(NodeId from, NodeId to) const {
  for (const EdgeId e : out_edges(from)) {
    if (edges_[e].to == to) return e;
  }
  return edge_count();
}

bool Digraph::has_edge(NodeId from, NodeId to) const {
  return find_edge(from, to) != edge_count();
}

std::string Digraph::to_dot(const std::vector<std::string>& node_labels) const {
  std::ostringstream os;
  os << "digraph G {\n";
  for (NodeId n = 0; n < node_count(); ++n) {
    os << "  n" << n;
    if (n < node_labels.size() && !node_labels[n].empty()) {
      os << " [label=\"" << node_labels[n] << "\"]";
    }
    os << ";\n";
  }
  for (const auto& e : edges_) {
    os << "  n" << e.from << " -> n" << e.to << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace maxutil::graph
