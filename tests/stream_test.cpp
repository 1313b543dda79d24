#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "stream/model.hpp"
#include "stream/utility.hpp"
#include "stream/validate.hpp"
#include "util/check.hpp"

namespace {

using maxutil::stream::CommodityId;
using maxutil::stream::NodeId;
using maxutil::stream::StreamNetwork;
using maxutil::stream::Utility;
using maxutil::util::CheckError;

TEST(Utility, LinearValueAndDerivative) {
  const Utility u = Utility::linear(2.5);
  EXPECT_DOUBLE_EQ(u.value(4.0), 10.0);
  EXPECT_DOUBLE_EQ(u.derivative(4.0), 2.5);
  EXPECT_TRUE(u.is_linear());
  EXPECT_DOUBLE_EQ(u.weight(), 2.5);
}

TEST(Utility, LogarithmicConcave) {
  const Utility u = Utility::logarithmic();
  EXPECT_DOUBLE_EQ(u.value(0.0), 0.0);
  EXPECT_NEAR(u.value(std::exp(1.0) - 1.0), 1.0, 1e-12);
  EXPECT_GT(u.derivative(1.0), u.derivative(2.0));
  EXPECT_FALSE(u.is_linear());
}

TEST(Utility, SqrtDerivativeFiniteAtZero) {
  const Utility u = Utility::square_root();
  EXPECT_DOUBLE_EQ(u.value(9.0), 3.0);
  EXPECT_TRUE(std::isfinite(u.derivative(0.0)));
  EXPECT_NEAR(u.derivative(4.0), 0.25, 1e-12);
}

TEST(Utility, AlphaFairFamilies) {
  // alpha = 0 reduces to linear-like: U(a) = (1+a) - 1 = a.
  const Utility u0 = Utility::alpha_fair(0.0);
  EXPECT_NEAR(u0.value(3.0), 3.0, 1e-12);
  // alpha = 1 is the log family.
  const Utility u1 = Utility::alpha_fair(1.0);
  EXPECT_NEAR(u1.value(1.0), std::log(2.0), 1e-12);
  // alpha = 2: U(a) = 1 - 1/(1+a).
  const Utility u2 = Utility::alpha_fair(2.0);
  EXPECT_NEAR(u2.value(1.0), 0.5, 1e-12);
  EXPECT_NEAR(u2.derivative(1.0), 0.25, 1e-12);
}

TEST(Utility, DerivativeMatchesFiniteDifference) {
  const double h = 1e-6;
  for (const Utility u : {Utility::linear(2.0), Utility::logarithmic(3.0),
                          Utility::square_root(1.5), Utility::alpha_fair(2.0),
                          Utility::alpha_fair(0.5, 2.0)}) {
    for (const double a : {0.5, 1.0, 5.0, 20.0}) {
      const double fd = (u.value(a + h) - u.value(a - h)) / (2.0 * h);
      EXPECT_NEAR(u.derivative(a), fd, 1e-5) << u.describe() << " at " << a;
    }
  }
}

TEST(Utility, RejectsBadParameters) {
  EXPECT_THROW(Utility::linear(0.0), CheckError);
  EXPECT_THROW(Utility::linear(-1.0), CheckError);
  EXPECT_THROW(Utility::alpha_fair(-0.5), CheckError);
  EXPECT_THROW(Utility::linear().value(-1.0), CheckError);
}

TEST(Utility, DescribeNamesFamily) {
  EXPECT_NE(Utility::linear().describe().find("linear"), std::string::npos);
  EXPECT_NE(Utility::alpha_fair(2.0).describe().find("alpha"),
            std::string::npos);
}

// --- StreamNetwork structure ---

StreamNetwork tiny_network(NodeId* src = nullptr, NodeId* mid = nullptr,
                           NodeId* dst = nullptr, CommodityId* j = nullptr) {
  StreamNetwork net;
  const NodeId a = net.add_server("a", 10.0);
  const NodeId b = net.add_server("b", 20.0);
  const NodeId t = net.add_sink("t");
  const auto ab = net.add_link(a, b, 5.0);
  const auto bt = net.add_link(b, t, 6.0);
  const CommodityId c = net.add_commodity("c0", a, t, 3.0, Utility::linear());
  net.enable_link(c, ab, 2.0);
  net.enable_link(c, bt, 1.0);
  if (src) *src = a;
  if (mid) *mid = b;
  if (dst) *dst = t;
  if (j) *j = c;
  return net;
}

TEST(StreamNetwork, BasicAccessors) {
  NodeId a, b, t;
  CommodityId j;
  const StreamNetwork net = tiny_network(&a, &b, &t, &j);
  EXPECT_EQ(net.node_count(), 3u);
  EXPECT_EQ(net.link_count(), 2u);
  EXPECT_EQ(net.commodity_count(), 1u);
  EXPECT_EQ(net.node_name(a), "a");
  EXPECT_FALSE(net.is_sink(a));
  EXPECT_TRUE(net.is_sink(t));
  EXPECT_DOUBLE_EQ(net.capacity(a), 10.0);
  EXPECT_TRUE(std::isinf(net.capacity(t)));
  EXPECT_DOUBLE_EQ(net.bandwidth(0), 5.0);
  EXPECT_EQ(net.source(j), a);
  EXPECT_EQ(net.sink(j), t);
  EXPECT_DOUBLE_EQ(net.lambda(j), 3.0);
  EXPECT_EQ(net.commodity_name(j), "c0");
}

TEST(StreamNetwork, LinkUsageAndConsumption) {
  CommodityId j;
  const StreamNetwork net = tiny_network(nullptr, nullptr, nullptr, &j);
  EXPECT_TRUE(net.uses_link(j, 0));
  EXPECT_DOUBLE_EQ(net.consumption(j, 0), 2.0);
  EXPECT_DOUBLE_EQ(net.consumption(j, 1), 1.0);
}

TEST(StreamNetwork, ShrinkageFromPotentials) {
  NodeId a, b, t;
  CommodityId j;
  StreamNetwork net = tiny_network(&a, &b, &t, &j);
  net.set_potential(j, a, 1.0);
  net.set_potential(j, b, 0.5);   // a->b halves the stream
  net.set_potential(j, t, 1.5);   // b->t expands it threefold
  EXPECT_DOUBLE_EQ(net.shrinkage(j, 0), 0.5);
  EXPECT_DOUBLE_EQ(net.shrinkage(j, 1), 3.0);
  EXPECT_DOUBLE_EQ(net.delivery_gain(j), 1.5);
}

TEST(StreamNetwork, DefaultPotentialIsOne) {
  CommodityId j;
  const StreamNetwork net = tiny_network(nullptr, nullptr, nullptr, &j);
  EXPECT_DOUBLE_EQ(net.shrinkage(j, 0), 1.0);
  EXPECT_DOUBLE_EQ(net.delivery_gain(j), 1.0);
}

TEST(StreamNetwork, RejectsInvalidConstruction) {
  StreamNetwork net;
  EXPECT_THROW(net.add_server("bad", 0.0), CheckError);
  const NodeId a = net.add_server("a", 1.0);
  const NodeId t = net.add_sink("t");
  EXPECT_THROW(net.add_link(t, a, 1.0), CheckError);   // sinks cannot send
  EXPECT_THROW(net.add_link(a, t, 0.0), CheckError);   // zero bandwidth
  const auto l = net.add_link(a, t, 1.0);
  EXPECT_THROW(net.add_commodity("c", t, a, 1.0, Utility::linear()),
               CheckError);                            // swapped endpoints
  EXPECT_THROW(net.add_commodity("c", a, t, 0.0, Utility::linear()),
               CheckError);                            // zero lambda
  const CommodityId j = net.add_commodity("c", a, t, 1.0, Utility::linear());
  EXPECT_THROW(net.enable_link(j, l, -1.0), CheckError);
  EXPECT_THROW(net.set_potential(j, a, 0.0), CheckError);
  EXPECT_THROW(net.consumption(j, l), CheckError);     // not enabled yet
  EXPECT_THROW(net.set_capacity(a, 0.0), CheckError);
  EXPECT_THROW(net.set_capacity(a, std::nan("")), CheckError);
  EXPECT_THROW(net.set_capacity(t, 2.0), CheckError);  // sinks do not process
  EXPECT_THROW(net.set_bandwidth(l, -1.0), CheckError);
  net.set_capacity(a, 2.0);
  net.set_bandwidth(l, 3.0);
  EXPECT_EQ(net.capacity(a), 2.0);
  EXPECT_EQ(net.bandwidth(l), 3.0);
  // Like add_server / add_link, the setters accept an unbounded resource.
  net.set_bandwidth(l, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(net.bandwidth(l)));
}

TEST(StreamNetwork, RejectsLinkIntoCommoditySource) {
  StreamNetwork net;
  const NodeId a = net.add_server("a", 1.0);
  const NodeId b = net.add_server("b", 1.0);
  const NodeId t = net.add_sink("t");
  const auto ba = net.add_link(b, a, 1.0);
  net.add_link(a, t, 1.0);
  const CommodityId j = net.add_commodity("c", a, t, 1.0, Utility::linear());
  EXPECT_THROW(net.enable_link(j, ba, 1.0), CheckError);
}

// --- Validation ---

TEST(Validate, AcceptsTinyNetwork) {
  const StreamNetwork net = tiny_network();
  const auto report = maxutil::stream::validate(net);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_NO_THROW(maxutil::stream::validate_or_throw(net));
}

TEST(Validate, DetectsUnreachableSink) {
  StreamNetwork net;
  const NodeId a = net.add_server("a", 1.0);
  const NodeId b = net.add_server("b", 1.0);
  const NodeId t = net.add_sink("t");
  net.add_link(a, b, 1.0);
  net.add_link(b, t, 1.0);
  const CommodityId j = net.add_commodity("c", a, t, 1.0, Utility::linear());
  net.enable_link(j, 0, 1.0);  // a->b only; sink unreachable
  const auto report = maxutil::stream::validate(net);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("unreachable"), std::string::npos);
}

TEST(Validate, DetectsDeadEnd) {
  StreamNetwork net;
  const NodeId a = net.add_server("a", 1.0);
  const NodeId b = net.add_server("b", 1.0);  // dead end
  const NodeId t = net.add_sink("t");
  const auto ab = net.add_link(a, b, 1.0);
  const auto at = net.add_link(a, t, 1.0);
  const CommodityId j = net.add_commodity("c", a, t, 1.0, Utility::linear());
  net.enable_link(j, ab, 1.0);
  net.enable_link(j, at, 1.0);
  const auto report = maxutil::stream::validate(net);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("dead end"), std::string::npos);
}

TEST(Validate, DetectsCycle) {
  StreamNetwork net;
  const NodeId a = net.add_server("a", 1.0);
  const NodeId b = net.add_server("b", 1.0);
  const NodeId c = net.add_server("c", 1.0);
  const NodeId t = net.add_sink("t");
  const auto ab = net.add_link(a, b, 1.0);
  const auto bc = net.add_link(b, c, 1.0);
  const auto cb = net.add_link(c, b, 1.0);
  const auto bt = net.add_link(b, t, 1.0);
  const CommodityId j = net.add_commodity("s", a, t, 1.0, Utility::linear());
  for (const auto l : {ab, bc, cb, bt}) net.enable_link(j, l, 1.0);
  const auto report = maxutil::stream::validate(net);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("cycle"), std::string::npos);
}

TEST(Validate, DetectsForeignSink) {
  StreamNetwork net;
  const NodeId a = net.add_server("a", 1.0);
  const NodeId t1 = net.add_sink("t1");
  const NodeId t2 = net.add_sink("t2");
  const auto at1 = net.add_link(a, t1, 1.0);
  const auto at2 = net.add_link(a, t2, 1.0);
  const CommodityId j = net.add_commodity("c", a, t1, 1.0, Utility::linear());
  net.enable_link(j, at1, 1.0);
  net.enable_link(j, at2, 1.0);  // enters t2, not this commodity's sink
  const auto report = maxutil::stream::validate(net);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("foreign sink"), std::string::npos);
}

TEST(Validate, WarnsOnDisconnectedGraph) {
  StreamNetwork net;
  const NodeId a = net.add_server("a", 1.0);
  net.add_server("island", 1.0);
  const NodeId t = net.add_sink("t");
  const auto at = net.add_link(a, t, 1.0);
  const CommodityId j = net.add_commodity("c", a, t, 1.0, Utility::linear());
  net.enable_link(j, at, 1.0);
  const auto report = maxutil::stream::validate(net);
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].find("connected"), std::string::npos);
}

TEST(Property1, HoldsByConstructionOnDiamond) {
  // Diamond a -> {b, c} -> t with arbitrary potentials: both paths must
  // deliver the same beta product.
  StreamNetwork net;
  const NodeId a = net.add_server("a", 1.0);
  const NodeId b = net.add_server("b", 1.0);
  const NodeId c = net.add_server("c", 1.0);
  const NodeId t = net.add_sink("t");
  const auto ab = net.add_link(a, b, 1.0);
  const auto ac = net.add_link(a, c, 1.0);
  const auto bt = net.add_link(b, t, 1.0);
  const auto ct = net.add_link(c, t, 1.0);
  const CommodityId j = net.add_commodity("s", a, t, 1.0, Utility::linear());
  for (const auto l : {ab, ac, bt, ct}) net.enable_link(j, l, 1.0);
  net.set_potential(j, a, 2.0);
  net.set_potential(j, b, 7.0);
  net.set_potential(j, c, 3.0);
  net.set_potential(j, t, 5.0);
  EXPECT_TRUE(maxutil::stream::verify_path_independence(net, j));
  // Path via b: (7/2)*(5/7) = 5/2; via c: (3/2)*(5/3) = 5/2 = gain.
  EXPECT_DOUBLE_EQ(net.delivery_gain(j), 2.5);
}

}  // namespace
