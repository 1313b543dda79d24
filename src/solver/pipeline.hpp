#pragma once

#include <string>
#include <vector>

#include "solver/registry.hpp"
#include "solver/solver.hpp"

namespace maxutil::solver {

/// A warm-start chain of registered solvers, written "lp,gradient" (the
/// pipeline grammar: a comma-separated list of registry names; docs/
/// SOLVERS.md). Each stage runs on the shared Problem with the shared
/// SolveOptions; when a stage emits a routing and the next stage supports
/// warm starts, the routing is threaded through SolveOptions::warm_start —
/// e.g. `lp,gradient` seeds the gradient from the (guard-repaired) LP
/// vertex, and `gradient,distributed` initializes the actor runtime from
/// the centralized fixed point.
///
/// A single name is the degenerate one-stage pipeline, so all dispatch
/// (CLI, benches) can go through Pipeline uniformly.
class Pipeline {
 public:
  /// Parses a spec against the registry; throws util::CheckError on an
  /// empty spec, an empty stage, or an unknown solver name (the message
  /// lists the live registry names).
  static Pipeline parse(const std::string& spec,
                        const SolverRegistry& registry =
                            SolverRegistry::instance());

  const std::vector<std::string>& stages() const { return stages_; }

  /// The spec in canonical "a,b,c" form.
  std::string spec() const;

  /// True when any stage's backend has the given capability flag set
  /// (member pointer into SolverInfo, e.g. &SolverInfo::supports_observation).
  bool any_stage(bool SolverInfo::* capability) const;

  /// Runs the stages in order. The returned result is the last completed
  /// stage's, with `stages` filled with every stage's summary, `warnings`
  /// accumulated across stages, and `wall_seconds` the sum over every stage
  /// that ran; a stage with a non-usable status stops the chain (its result
  /// is returned).
  SolveResult run(const Problem& problem,
                  const SolveOptions& options = {}) const;

 private:
  Pipeline(std::vector<std::string> stages, const SolverRegistry& registry);

  std::vector<std::string> stages_;
  const SolverRegistry* registry_;
};

}  // namespace maxutil::solver
