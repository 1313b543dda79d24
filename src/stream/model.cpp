#include "stream/model.hpp"

#include <limits>

#include "util/check.hpp"

namespace maxutil::stream {

using maxutil::util::ensure;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Per-commodity arrays grow lazily: entries past the stored tail hold their
// defaults (potential 1, link unusable), so adding a node or link is O(1)
// instead of touching every commodity. Without this, building a
// 5000-commodity / 50k-server instance spends seconds re-growing 5000 dense
// vectors on every add_sink/add_link.
double potential_at(const std::vector<double>& potential, NodeId n) {
  return n < potential.size() ? potential[n] : 1.0;
}

void grow_to(std::vector<double>& values, std::size_t index, double fill) {
  if (values.size() <= index) values.resize(index + 1, fill);
}

}  // namespace

NodeId StreamNetwork::add_server(std::string name, double capacity) {
  ensure(capacity > 0.0, "add_server: capacity must be positive");
  const NodeId n = graph_.add_node();
  nodes_.push_back({std::move(name), capacity, /*sink=*/false});
  return n;
}

NodeId StreamNetwork::add_sink(std::string name) {
  const NodeId n = graph_.add_node();
  nodes_.push_back({std::move(name), kInf, /*sink=*/true});
  return n;
}

LinkId StreamNetwork::add_link(NodeId from, NodeId to, double bandwidth) {
  check_node(from);
  check_node(to);
  ensure(!nodes_[from].sink, "add_link: sinks cannot originate links");
  ensure(bandwidth > 0.0, "add_link: bandwidth must be positive");
  const LinkId link = graph_.add_edge(from, to);
  bandwidth_.push_back(bandwidth);
  return link;
}

CommodityId StreamNetwork::add_commodity(std::string name, NodeId source,
                                         NodeId sink, double lambda,
                                         Utility utility) {
  check_node(source);
  check_node(sink);
  ensure(!nodes_[source].sink, "add_commodity: source must be a server");
  ensure(nodes_[sink].sink, "add_commodity: sink must be a sink node");
  ensure(source != sink, "add_commodity: source equals sink");
  ensure(lambda > 0.0, "add_commodity: lambda must be positive");
  commodities_.push_back({std::move(name), source, sink, lambda,
                          std::move(utility),
                          /*potential=*/{},
                          /*consumption=*/{},
                          /*enabled=*/{}});
  return commodities_.size() - 1;
}

void StreamNetwork::set_potential(CommodityId j, NodeId n, double g) {
  check_commodity(j);
  check_node(n);
  ensure(g > 0.0, "set_potential: potential must be positive");
  grow_to(commodities_[j].potential, n, 1.0);
  commodities_[j].potential[n] = g;
}

void StreamNetwork::enable_link(CommodityId j, LinkId link, double consumption) {
  check_commodity(j);
  check_link(link);
  ensure(consumption > 0.0, "enable_link: consumption must be positive");
  ensure(graph_.head(link) != commodities_[j].source,
         "enable_link: links into the commodity source would break the DAG");
  auto& c = commodities_[j];
  const bool newly_enabled =
      !(link < c.consumption.size() && c.consumption[link] > 0.0);
  grow_to(c.consumption, link, -1.0);
  c.consumption[link] = consumption;
  if (newly_enabled) c.enabled.push_back(link);
}

void StreamNetwork::set_lambda(CommodityId j, double lambda) {
  check_commodity(j);
  ensure(lambda > 0.0, "set_lambda: lambda must be positive");
  commodities_[j].lambda = lambda;
}

void StreamNetwork::set_capacity(NodeId n, double capacity) {
  check_node(n);
  ensure(!nodes_[n].sink, "set_capacity: sinks have no computing power");
  ensure(capacity > 0.0, "set_capacity: capacity must be positive");
  nodes_[n].capacity = capacity;
}

void StreamNetwork::set_bandwidth(LinkId link, double bandwidth) {
  check_link(link);
  ensure(bandwidth > 0.0, "set_bandwidth: bandwidth must be positive");
  bandwidth_[link] = bandwidth;
}

const std::string& StreamNetwork::node_name(NodeId n) const {
  check_node(n);
  return nodes_[n].name;
}

bool StreamNetwork::is_sink(NodeId n) const {
  check_node(n);
  return nodes_[n].sink;
}

double StreamNetwork::capacity(NodeId n) const {
  check_node(n);
  return nodes_[n].capacity;
}

double StreamNetwork::bandwidth(LinkId link) const {
  check_link(link);
  return bandwidth_[link];
}

const std::string& StreamNetwork::commodity_name(CommodityId j) const {
  check_commodity(j);
  return commodities_[j].name;
}

NodeId StreamNetwork::source(CommodityId j) const {
  check_commodity(j);
  return commodities_[j].source;
}

NodeId StreamNetwork::sink(CommodityId j) const {
  check_commodity(j);
  return commodities_[j].sink;
}

double StreamNetwork::lambda(CommodityId j) const {
  check_commodity(j);
  return commodities_[j].lambda;
}

const Utility& StreamNetwork::utility(CommodityId j) const {
  check_commodity(j);
  return commodities_[j].utility;
}

bool StreamNetwork::uses_link(CommodityId j, LinkId link) const {
  check_commodity(j);
  check_link(link);
  const auto& consumption = commodities_[j].consumption;
  return link < consumption.size() && consumption[link] > 0.0;
}

const std::vector<LinkId>& StreamNetwork::enabled_links(CommodityId j) const {
  check_commodity(j);
  return commodities_[j].enabled;
}

double StreamNetwork::consumption(CommodityId j, LinkId link) const {
  ensure(uses_link(j, link), "consumption: link not enabled for commodity");
  return commodities_[j].consumption[link];
}

double StreamNetwork::shrinkage(CommodityId j, LinkId link) const {
  ensure(uses_link(j, link), "shrinkage: link not enabled for commodity");
  const auto& c = commodities_[j];
  return potential_at(c.potential, graph_.head(link)) /
         potential_at(c.potential, graph_.tail(link));
}

double StreamNetwork::potential(CommodityId j, NodeId n) const {
  check_commodity(j);
  check_node(n);
  return potential_at(commodities_[j].potential, n);
}

maxutil::graph::EdgeFilter StreamNetwork::commodity_filter(
    CommodityId j) const {
  check_commodity(j);
  // Captures `this`; the filter must not outlive the network.
  return [this, j](maxutil::graph::EdgeId e) { return uses_link(j, e); };
}

double StreamNetwork::delivery_gain(CommodityId j) const {
  check_commodity(j);
  const auto& c = commodities_[j];
  return potential_at(c.potential, c.sink) /
         potential_at(c.potential, c.source);
}

void StreamNetwork::check_commodity(CommodityId j) const {
  ensure(j < commodities_.size(), "StreamNetwork: commodity out of range");
}

void StreamNetwork::check_node(NodeId n) const {
  ensure(n < node_count(), "StreamNetwork: node out of range");
}

void StreamNetwork::check_link(LinkId link) const {
  ensure(link < link_count(), "StreamNetwork: link out of range");
}

}  // namespace maxutil::stream
