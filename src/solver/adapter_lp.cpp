// Registry adapter for the centralized LP reference
// (xform::solve_reference): the transformed problem solved exactly on the
// sparse revised simplex, with concave utilities encoded piecewise-linearly
// and warm-started from the caller's SolveOptions::lp_basis. One solve is
// registered under two names, "lp" and "lp-sparse". It emits a routing
// recovered from the optimal vertex (core::routing_from_flows) so pipelines
// can warm-start iterative stages from the LP optimum; the LP itself never
// reads SolveOptions::warm_start.

#include <algorithm>
#include <string>
#include <utility>

#include "core/warm_start.hpp"
#include "solver/adapters.hpp"
#include "solver/registry.hpp"
#include "xform/lp_reference.hpp"

namespace maxutil::solver {

namespace {

Status map_status(lp::LpStatus status) {
  switch (status) {
    case lp::LpStatus::kOptimal: return Status::kConverged;
    case lp::LpStatus::kInfeasible: return Status::kInfeasible;
    case lp::LpStatus::kUnbounded: return Status::kUnbounded;
    case lp::LpStatus::kIterationLimit: return Status::kFailed;
  }
  return Status::kFailed;
}

SolveResult solve_lp(const Problem& problem, const SolveOptions& options) {
  xform::ReferenceOptions ro;
  ro.pwl_segments = static_cast<std::size_t>(
      options.extra_number("pwl_segments", static_cast<double>(ro.pwl_segments)));
  ro.warm_basis = options.lp_basis;

  const auto reference = xform::solve_reference(problem.extended(), ro);
  SolveResult result;
  result.status = map_status(reference.status);
  result.iterations = reference.iterations;
  if (reference.status != lp::LpStatus::kOptimal) {
    result.message =
        std::string("LP solve failed: ") + lp::to_string(reference.status);
    return result;
  }
  result.admitted = reference.admitted;
  result.utility = reference.optimal_utility;
  result.node_usage = reference.node_usage;
  // The optimal vertex saturates capacities; routing_from_flows repairs it
  // to a strictly guard-feasible warm start (finite barrier cost).
  result.routing = core::routing_from_flows(
      problem.extended(), reference.flows,
      options.extra_number("capacity_guard", 0.999));
  double max_price = 0.0;
  for (const double p : reference.node_shadow_price) {
    max_price = std::max(max_price, p);
  }
  result.metrics = {{"max_shadow_price", max_price}};
  return result;
}

}  // namespace

void register_lp_solver(SolverRegistry& registry, const char* name) {
  SolverInfo info;
  info.name = name;
  info.description =
      "centralized LP reference: sparse revised simplex on the transformed "
      "problem (PWL-encoded concave utilities), warm-startable via "
      "SolveOptions::lp_basis";
  info.emits_routing = true;
  info.solve = solve_lp;
  registry.add(std::move(info));
}

}  // namespace maxutil::solver
