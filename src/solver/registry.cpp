#include "solver/registry.hpp"

#include <chrono>
#include <utility>

#include "solver/adapters.hpp"
#include "util/check.hpp"

namespace maxutil::solver {

using maxutil::util::ensure;

SolverRegistry& SolverRegistry::instance() {
  // Built-ins register lazily here (in the README's presentation order)
  // rather than via static-initializer registrar objects: the adapters live
  // in a static library, and the linker would drop object files nothing
  // references, silently losing backends.
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    register_gradient_solver(*r);
    register_distributed_solver(*r);
    register_backpressure_solver(*r);
    register_lp_solver(*r, "lp");
    register_frank_wolfe_solver(*r);
    register_lp_solver(*r, "lp-sparse");
    return r;
  }();
  return *registry;
}

void SolverRegistry::add(SolverInfo info) {
  ensure(!info.name.empty(), "SolverRegistry: empty solver name");
  ensure(static_cast<bool>(info.solve),
         "SolverRegistry: solver '" + info.name + "' has no solve function");
  ensure(find(info.name) == nullptr,
         "SolverRegistry: duplicate solver '" + info.name + "'");
  solvers_.push_back(std::move(info));
}

const SolverInfo* SolverRegistry::find(std::string_view name) const {
  for (const SolverInfo& info : solvers_) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(solvers_.size());
  for (const SolverInfo& info : solvers_) out.push_back(info.name);
  return out;
}

std::string SolverRegistry::names_joined() const {
  std::string out;
  for (const SolverInfo& info : solvers_) {
    if (!out.empty()) out += ", ";
    out += info.name;
  }
  return out;
}

SolveResult SolverRegistry::solve(const std::string& name,
                                  const Problem& problem,
                                  const SolveOptions& options) const {
  const SolverInfo* info = find(name);
  ensure(info != nullptr, "unknown solver '" + name +
                              "' (registered: " + names_joined() + ")");
  const auto start = std::chrono::steady_clock::now();
  SolveResult result;
  try {
    result = info->solve(problem, options);
  } catch (const maxutil::util::CheckError& e) {
    // Malformed inputs (an unreachable sink, an invalid warm start, ...)
    // surface as a failed *result* rather than an exception, so callers that
    // drive many solves — the churn controller, pipelines, the CLI — can
    // inspect and continue instead of unwinding.
    result = SolveResult{};
    result.status = Status::kFailed;
    result.message = e.what();
    result.warnings.push_back(result.message);
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ensure(result.admitted.size() == problem.commodity_count() ||
             !is_usable(result.status),
         "solver '" + name + "' returned " +
             std::to_string(result.admitted.size()) +
             " admitted rates for " +
             std::to_string(problem.commodity_count()) + " commodities");
  return result;
}

}  // namespace maxutil::solver
