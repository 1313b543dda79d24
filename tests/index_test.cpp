// CommodityIndex differential tests: the precomputed per-commodity CSR index
// must agree exactly with the usable(j,e) scan idiom it replaced — same edge
// sets and coefficients, a valid (identical) topological order, consistent
// transposes — and the SoA core built on it must be bit-identical to the
// dense pre-index implementation on the Figure-1 instance.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/gamma.hpp"
#include "core/marginals.hpp"
#include "core/optimizer.hpp"
#include "core/routing.hpp"
#include "gen/figure1.hpp"
#include "gen/random_instance.hpp"
#include "graph/algorithms.hpp"
#include "util/rng.hpp"
#include "xform/extended_graph.hpp"

namespace {

using maxutil::graph::EdgeId;
using maxutil::graph::NodeId;
using maxutil::stream::CommodityId;
using maxutil::xform::CommodityIndex;
using maxutil::xform::ExtendedGraph;

constexpr std::size_t kNoSlot = CommodityIndex::kNoSlot;

void check_index(const ExtendedGraph& xg) {
  const auto& g = xg.graph();
  const auto& idx = xg.index();
  ASSERT_EQ(idx.commodity_count(), xg.commodity_count());
  ASSERT_EQ(idx.global_edge_count(), xg.edge_count());
  ASSERT_EQ(idx.global_node_count(), xg.node_count());
  for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
    // Same edge set, same beta/cost, O(1) lookup agrees.
    std::size_t count = 0;
    for (EdgeId e = 0; e < xg.edge_count(); ++e) {
      const std::size_t slot = idx.slot_of(j, e);
      if (xg.usable(j, e)) {
        ASSERT_NE(slot, kNoSlot);
        ASSERT_GE(slot, idx.edge_begin(j));
        ASSERT_LT(slot, idx.edge_end(j));
        ASSERT_EQ(idx.edge(slot), e);
        ASSERT_EQ(idx.beta(slot), xg.beta(j, e));
        ASSERT_EQ(idx.cost_rate(slot), xg.cost_rate(j, e));
        ASSERT_EQ(idx.node(idx.head_local(slot)), g.head(e));
        ++count;
      } else {
        ASSERT_EQ(slot, kNoSlot);
      }
    }
    ASSERT_EQ(count, idx.edge_end(j) - idx.edge_begin(j));
    // Node order matches the global filtered topological sort restricted to
    // commodity nodes (bit-parity requirement for the converted sweeps).
    const auto order =
        maxutil::graph::topological_sort(g, xg.commodity_filter(j));
    ASSERT_TRUE(order.has_value());
    std::vector<NodeId> restricted;
    for (const NodeId v : *order) {
      if (idx.local_of(j, v) != kNoSlot) restricted.push_back(v);
    }
    ASSERT_EQ(restricted.size(), idx.node_end(j) - idx.node_begin(j));
    for (std::size_t k = 0; k < restricted.size(); ++k) {
      ASSERT_EQ(idx.node(idx.node_begin(j) + k), restricted[k]);
    }
    // Out/in CSRs match the filtered adjacency scans, in order.
    for (std::size_t local = idx.node_begin(j); local < idx.node_end(j);
         ++local) {
      const NodeId v = idx.node(local);
      std::size_t s = idx.out_begin(local);
      for (const EdgeId e : g.out_edges(v)) {
        if (!xg.usable(j, e)) continue;
        ASSERT_LT(s, idx.out_end(local));
        ASSERT_EQ(idx.edge(s), e);
        ++s;
      }
      ASSERT_EQ(s, idx.out_end(local));
      std::size_t k = idx.in_begin(local);
      for (const EdgeId e : g.in_edges(v)) {
        if (!xg.usable(j, e)) continue;
        ASSERT_LT(k, idx.in_end(local));
        ASSERT_EQ(idx.edge(idx.in_slot(k)), e);
        ++k;
      }
      ASSERT_EQ(k, idx.in_end(local));
    }
    // slot_by_id enumerates ascending global edge ids; id_rank inverts it.
    EdgeId prev = 0;
    for (std::size_t k = 0; k < idx.edge_end(j) - idx.edge_begin(j); ++k) {
      const std::size_t slot = idx.slot_by_id(j, k);
      ASSERT_TRUE(k == 0 || idx.edge(slot) > prev);
      prev = idx.edge(slot);
      ASSERT_EQ(idx.id_rank(slot), k);
    }
    ASSERT_EQ(idx.edge(idx.dummy_input_slot(j)), xg.dummy_input_link(j));
    ASSERT_EQ(idx.edge(idx.dummy_difference_slot(j)),
              xg.dummy_difference_link(j));
    ASSERT_EQ(idx.node(idx.sink_local(j)), xg.sink(j));
    ASSERT_EQ(idx.node(idx.dummy_source_local(j)), xg.dummy_source(j));
    ASSERT_EQ(idx.depth(j),
              maxutil::graph::longest_path_length(g, xg.commodity_filter(j)));
  }
  // Transposes agree with dense scans, ascending commodity.
  for (EdgeId e = 0; e < xg.edge_count(); ++e) {
    std::size_t k = idx.edge_commodities_begin(e);
    for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
      if (!xg.usable(j, e)) continue;
      ASSERT_LT(k, idx.edge_commodities_end(e));
      ASSERT_EQ(idx.edge_commodity(k), j);
      ASSERT_EQ(idx.edge_commodity_slot(k), idx.slot_of(j, e));
      ++k;
    }
    ASSERT_EQ(k, idx.edge_commodities_end(e));
  }
  for (NodeId v = 0; v < xg.node_count(); ++v) {
    std::size_t k = idx.node_commodities_begin(v);
    for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
      if (idx.local_of(j, v) == kNoSlot) continue;
      ASSERT_LT(k, idx.node_commodities_end(v));
      ASSERT_EQ(idx.node_commodity(k), j);
      ASSERT_EQ(idx.node_commodity_local(k), idx.local_of(j, v));
      ++k;
    }
    ASSERT_EQ(k, idx.node_commodities_end(v));
  }
}

// The curvature recursion only feeds the curvature-scaled step; skipping it
// must leave dA/dr and the per-edge derivative table bit-for-bit unchanged.
TEST(CommodityIndex, MarginalsWithoutCurvatureKeepDrBitIdentical) {
  namespace core = maxutil::core;
  for (int seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE(seed);
    maxutil::util::Rng rng(static_cast<std::uint64_t>(seed) * 131 + 3);
    maxutil::gen::RandomInstanceParams p;
    p.servers = 20 + seed;
    p.commodities = 2 + seed % 4;
    const maxutil::stream::StreamNetwork net =
        maxutil::gen::random_instance(p, rng);
    const ExtendedGraph xg(net);
    // A partly converged state: some traffic admitted, most slots loaded.
    core::GradientOptions options;
    options.max_iterations = 60;
    options.record_history = false;
    core::GradientOptimizer opt(xg, options);
    opt.run();
    const core::RoutingState& routing = opt.routing();
    const core::FlowState& flows = opt.flows();
    ASSERT_TRUE(std::isfinite(flows.cost()));
    ASSERT_GT(flows.f_node[xg.source(0)], 0.0);
    const core::MarginalCosts full =
        core::compute_marginals(xg, routing, flows);
    core::MarginalCosts plain;
    core::compute_marginals(xg, routing, flows, /*with_curvature=*/false,
                            plain);
    EXPECT_TRUE(plain.curvature.empty());
    ASSERT_EQ(full.curvature.size(), full.d_cost_d_input.size());
    ASSERT_EQ(plain.d_cost_d_input.size(), full.d_cost_d_input.size());
    EXPECT_EQ(std::memcmp(plain.d_cost_d_input.data(),
                          full.d_cost_d_input.data(),
                          full.d_cost_d_input.size() * sizeof(double)),
              0);
    ASSERT_EQ(plain.d_cost_d_edge.size(), xg.edge_count());
    EXPECT_EQ(std::memcmp(plain.d_cost_d_edge.data(),
                          full.d_cost_d_edge.data(),
                          xg.edge_count() * sizeof(double)),
              0);
    // A reused output switches back to the full set on request.
    core::compute_marginals(xg, routing, flows, /*with_curvature=*/true,
                            plain);
    EXPECT_EQ(std::memcmp(plain.curvature.data(), full.curvature.data(),
                          full.curvature.size() * sizeof(double)),
              0);
  }
}

}  // namespace

TEST(CommodityIndex, MatchesUsableScanOnFigure1) {
  check_index(ExtendedGraph(maxutil::gen::figure1_example()));
}

TEST(CommodityIndex, MatchesUsableScanOnRandomInstances) {
  for (int seed = 0; seed < 50; ++seed) {
    SCOPED_TRACE(seed);
    maxutil::util::Rng rng(static_cast<std::uint64_t>(seed) * 97 + 11);
    maxutil::gen::RandomInstanceParams p;
    p.servers = 20 + seed;
    p.commodities = 2 + seed % 7;
    p.stages = 2 + seed % 3;
    check_index(ExtendedGraph(maxutil::gen::random_instance(p, rng)));
  }
}

// Captured from the pre-index implementation (dense [commodity][node] /
// [commodity][edge] state) on the Figure-1 instance; see the
// GoldenBitParity test below for the exact generating procedure.
constexpr const char* kFigure1Golden = R"gold(
// nodes=24 edges=28 commodities=2
utility_loss 0x1.266adb4a24a83p+2
penalty 0x1.9ec6b9be22254p-4
f_node 0 0x1.eccaaeaee2495p+2
f_node 1 0x1.8a3bf0351706fp+1
f_node 2 0x1.27acac3b78616p+3
f_node 3 0x1.3b6359d68b58cp+1
f_node 4 0x1.d9142d22b758bp+2
f_node 5 0x1.f89e650d31722p+1
f_node 6 0x1.ecca7606f90e6p+2
f_node 7 0x1.f89e2b09302fap+1
f_node 10 0x1.8a3bf0351706fp+1
f_node 11 0x1.8a3b8daf863b4p+1
f_node 12 0x1.3b6354d3f28bap+0
f_node 13 0x1.3b62f84dcbe6p+0
f_node 14 0x1.3b635ed92425fp+0
f_node 15 0x1.8a3b6f0f445f3p+2
f_node 16 0x1.f89ef6241227ap+0
f_node 17 0x1.f89dd3f650bcap+0
f_node 18 0x1.93b1ea70f45b4p+1
f_node 19 0x1.8a3b919f2da52p+2
f_node 20 0x1.f89e2b09302fap+1
f_node 21 0x1.93b1bc0759bfbp+1
f_node 22 0x1.4p+3
f_node 23 0x1.4p+3
f_edge 0 0x1.eccaec425cc8ap+1
f_edge 1 0x1.8a3bf0351706fp+1
f_edge 2 0x1.ecca711b67cap+1
f_edge 3 0x1.8a3b8daf863b4p+1
f_edge 4 0x1.8a3c2a08ef2e7p+0
f_edge 5 0x1.3b6354d3f28bap+0
f_edge 6 0x1.8a3bb6613edf7p+0
f_edge 7 0x1.3b62f84dcbe6p+0
f_edge 8 0x1.8a3c368f6d2f6p+0
f_edge 9 0x1.3b635ed92425fp+0
f_edge 10 0x1.ecca4ad31576fp+2
f_edge 11 0x1.8a3b6f0f445f3p+2
f_edge 12 0x1.3b6359d68b58cp+1
f_edge 13 0x1.f89ef6241227ap+0
f_edge 14 0x1.3b62a479f275ep+1
f_edge 15 0x1.f89dd3f650bcap+0
f_edge 16 0x1.f89e650d31722p+1
f_edge 17 0x1.93b1ea70f45b4p+1
f_edge 18 0x1.ecca7606f90e6p+2
f_edge 19 0x1.8a3b919f2da52p+2
f_edge 20 0x1.3b62dae5be1dcp+2
f_edge 21 0x1.f89e2b09302fap+1
f_edge 22 0x1.f89e2b09302fap+1
f_edge 23 0x1.93b1bc0759bfbp+1
f_edge 24 0x1.eccaaeaee2496p+2
f_edge 25 0x1.266aa2a23b6d2p+1
f_edge 26 0x1.ecca7606f90e6p+2
f_edge 27 0x1.266b13f20de34p+1
t 0 0 0x1.eccaaeaee2496p+2
dr 0 0 0x1.53fabea441c68p-11
kk 0 0 0x1.16597d32ad66ap-17
t 0 1 0x1.8a3bf0351706fp+1
dr 0 1 0x1.06b1692c3fdfep-11
kk 0 1 0x1.2bb7b3926f91bp-17
t 0 2 0x1.8a3b8daf863b4p+1
dr 0 2 0x1.1ee58592fda32p-11
kk 0 2 0x1.60686c37e5576p-17
t 0 3 0x1.3b6359d68b58cp+1
dr 0 3 0x1.82c480e1d79cap-12
kk 0 3 0x1.def5823150b68p-17
t 0 4 0x1.3b62a479f275ep+1
dr 0 4 0x1.9979f86e5c1c5p-12
kk 0 4 0x1.07c29cd696c77p-16
t 0 5 0x1.f89e650d31722p+1
dr 0 5 0x1.bce026040b9aep-13
kk 0 5 0x1.351757d2a1398p-17
t 0 8 0x1.5d0e468997e43p+2
t 0 10 0x1.8a3bf0351706fp+1
dr 0 10 0x1.539e9234c98bp-11
kk 0 10 0x1.1b3576ddb2a26p-16
t 0 11 0x1.8a3b8daf863b4p+1
dr 0 11 0x1.6bd2ab6669562p-11
kk 0 11 0x1.358dcad95937ap-16
t 0 12 0x1.3b6354d3f28bap+0
dr 0 12 0x1.0726b7364f21dp-11
kk 0 12 0x1.62a79e73bf5c2p-16
t 0 13 0x1.3b62f84dcbe6p+0
dr 0 13 0x1.128171af8d92fp-11
kk 0 13 0x1.7aef76f90b778p-16
t 0 14 0x1.3b635ed92425fp+0
dr 0 14 0x1.0726b75a5fd89p-11
kk 0 14 0x1.62a79ecd0e08fp-16
t 0 15 0x1.3b6250a61905dp+0
dr 0 15 0x1.284dfab96c995p-11
kk 0 15 0x1.b4ef4d3ebf16cp-16
t 0 16 0x1.f89ef6241227ap+0
dr 0 16 0x1.6f73290f82f9ep-12
kk 0 16 0x1.149185cd1986ap-16
t 0 17 0x1.f89dd3f650bcap+0
dr 0 17 0x1.6f73206a7c5cp-12
kk 0 17 0x1.14917ae3d16e2p-16
t 0 18 0x1.93b1ea70f45b4p+1
dr 0 18 0x1.34f0fdf49648p-13
kk 0 18 0x1.0c4eee0348658p-17
t 0 22 0x1.4p+3
dr 0 22 0x1.d816cbd7a9cc7p-3
kk 0 22 0x1.4a0e4b390c3c3p-18
y 0 0 0x1.eccaec425cc8ap+1
phi 0 0 0x1.00001ffcf51c2p-1
y 0 1 0x1.8a3bf0351706fp+1
phi 0 1 0x1p+0
y 0 2 0x1.ecca711b67cap+1
phi 0 2 0x1.ffffc00615c7ap-2
y 0 3 0x1.8a3b8daf863b4p+1
phi 0 3 0x1p+0
y 0 4 0x1.8a3c2a08ef2e7p+0
phi 0 4 0x1.0000258d076b1p-1
y 0 5 0x1.3b6354d3f28bap+0
phi 0 5 0x1p+0
y 0 6 0x1.8a3bb6613edf7p+0
phi 0 6 0x1.ffffb4e5f129ep-2
y 0 7 0x1.3b62f84dcbe6p+0
phi 0 7 0x1p+0
y 0 8 0x1.8a3c368f6d2f6p+0
phi 0 8 0x1.00006da930416p-1
y 0 9 0x1.3b635ed92425fp+0
phi 0 9 0x1p+0
y 0 10 0x1.8a3ae4cf9f473p+0
phi 0 10 0x1.ffff24ad9f7d5p-2
y 0 11 0x1.3b6250a61905dp+0
phi 0 11 0x1p+0
y 0 12 0x1.3b6359d68b58cp+1
phi 0 12 0x1p+0
y 0 13 0x1.f89ef6241227ap+0
phi 0 13 0x1p+0
y 0 14 0x1.3b62a479f275ep+1
phi 0 14 0x1p+0
y 0 15 0x1.f89dd3f650bcap+0
phi 0 15 0x1p+0
y 0 16 0x1.f89e650d31722p+1
phi 0 16 0x1p+0
y 0 17 0x1.93b1ea70f45b4p+1
phi 0 17 0x1p+0
y 0 24 0x1.eccaaeaee2496p+2
phi 0 24 0x1.8a3bbef24ea12p-1
y 0 25 0x1.266aa2a23b6d2p+1
phi 0 25 0x1.d7110436c57b7p-3
t 1 2 0x1.8a3b919f2da52p+2
dr 1 2 0x1.315ec47a2ebe8p-11
kk 1 2 0x1.8364154c82e57p-16
t 1 4 0x1.3b62dae5be1dcp+2
dr 1 4 0x1.a681c41da9453p-12
kk 1 4 0x1.1547da8f735d8p-16
t 1 6 0x1.ecca7606f90e6p+2
dr 1 6 0x1.7826dcaecf4b2p-11
kk 1 6 0x1.bf6d6daabcea2p-16
t 1 7 0x1.f89e2b09302fap+1
dr 1 7 0x1.bce01d4287c2fp-13
kk 1 7 0x1.35174eb296158p-17
t 1 9 0x1.5d0e67fcb3d18p+2
t 1 15 0x1.3b62dae5be1dcp+2
dr 1 15 0x1.2ed1e091132dcp-11
kk 1 15 0x1.c2748af79bacdp-16
t 1 19 0x1.8a3b919f2da52p+2
dr 1 19 0x1.8cefc5e89681cp-11
kk 1 19 0x1.184866ff8d4dep-15
t 1 20 0x1.f89e2b09302fap+1
dr 1 20 0x1.7fbcdf059ccf2p-12
kk 1 20 0x1.29b1ab54aa18ap-16
t 1 21 0x1.93b1bc0759bfbp+1
dr 1 21 0x1.34f0f7dffab93p-13
kk 1 21 0x1.0c4ee617779d6p-17
t 1 23 0x1.4p+3
dr 1 23 0x1.d8335b2e92526p-3
kk 1 23 0x1.09451840f87dap-16
y 1 10 0x1.8a3b919f2da52p+2
phi 1 10 0x1p+0
y 1 11 0x1.3b62dae5be1dcp+2
phi 1 11 0x1p+0
y 1 18 0x1.ecca7606f90e6p+2
phi 1 18 0x1p+0
y 1 19 0x1.8a3b919f2da52p+2
phi 1 19 0x1p+0
y 1 20 0x1.3b62dae5be1dcp+2
phi 1 20 0x1p+0
y 1 21 0x1.f89e2b09302fap+1
phi 1 21 0x1p+0
y 1 22 0x1.f89e2b09302fap+1
phi 1 22 0x1p+0
y 1 23 0x1.93b1bc0759bfbp+1
phi 1 23 0x1p+0
y 1 26 0x1.ecca7606f90e6p+2
phi 1 26 0x1.8a3b919f2da52p-1
y 1 27 0x1.266b13f20de34p+1
phi 1 27 0x1.d711b983496bap-3
)gold";

// Bit-for-bit parity with the pre-refactor dense implementation: the golden
// block above was printed by the [commodity][node]/[commodity][edge] code on
// a partially-admitted, partially-optimized Figure-1 state. The sparse SoA
// pipeline must reproduce every nonzero to the last bit — the refactor is a
// storage change, not a numerical one.
TEST(CommodityIndex, GoldenBitParityOnFigure1) {
  namespace core = maxutil::core;
  const maxutil::stream::StreamNetwork net = maxutil::gen::figure1_example();
  const ExtendedGraph xg(net);
  core::RoutingState routing = core::RoutingState::initial(xg);
  for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
    routing.set_phi(j, xg.dummy_difference_link(j), 0.25);
    routing.set_phi(j, xg.dummy_input_link(j), 0.75);
  }
  core::GammaOptions gopt;
  gopt.eta = 0.04;
  for (int it = 0; it < 5; ++it) {
    const core::FlowState f = core::compute_flows(xg, routing);
    const core::MarginalCosts m = core::compute_marginals(xg, routing, f);
    core::apply_gamma(xg, f, m, gopt, routing);
  }
  const core::FlowState flows = core::compute_flows(xg, routing);
  const core::MarginalCosts marg = core::compute_marginals(xg, routing, flows);

  char buf[128];
  std::ostringstream got;
  const auto line = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof buf, fmt, args...);
    got << buf;
  };
  line("// nodes=%zu edges=%zu commodities=%zu\n", xg.node_count(),
       xg.edge_count(), xg.commodity_count());
  line("utility_loss %a\npenalty %a\n", flows.utility_loss, flows.penalty);
  for (NodeId v = 0; v < xg.node_count(); ++v) {
    if (flows.f_node[v] != 0.0) line("f_node %zu %a\n", v, flows.f_node[v]);
  }
  for (EdgeId e = 0; e < xg.edge_count(); ++e) {
    if (flows.f_edge[e] != 0.0) line("f_edge %zu %a\n", e, flows.f_edge[e]);
  }
  for (CommodityId j = 0; j < xg.commodity_count(); ++j) {
    for (NodeId v = 0; v < xg.node_count(); ++v) {
      if (flows.t_at(j, v) != 0.0)
        line("t %zu %zu %a\n", j, v, flows.t_at(j, v));
      if (marg.dr_at(j, v) != 0.0)
        line("dr %zu %zu %a\n", j, v, marg.dr_at(j, v));
      if (marg.curvature_at(j, v) != 0.0)
        line("kk %zu %zu %a\n", j, v, marg.curvature_at(j, v));
    }
    for (EdgeId e = 0; e < xg.edge_count(); ++e) {
      if (flows.y_at(j, e) != 0.0)
        line("y %zu %zu %a\n", j, e, flows.y_at(j, e));
      if (routing.phi(j, e) != 0.0)
        line("phi %zu %zu %a\n", j, e, routing.phi(j, e));
    }
  }
  const std::string expected = std::string(kFigure1Golden).substr(1);  // leading \n
  EXPECT_EQ(got.str(), expected);
}
