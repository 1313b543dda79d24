#pragma once

// Registration entry points of the built-in backend adapters (one per
// translation unit under src/solver/). SolverRegistry::instance() calls
// each exactly once; they are not part of the public API — user code reaches
// every backend through the registry by name.

namespace maxutil::solver {

class SolverRegistry;

void register_gradient_solver(SolverRegistry& registry);
void register_distributed_solver(SolverRegistry& registry);
void register_backpressure_solver(SolverRegistry& registry);
/// The LP reference, registered once per name it answers to ("lp" and
/// "lp-sparse" run the identical solve).
void register_lp_solver(SolverRegistry& registry, const char* name);
void register_frank_wolfe_solver(SolverRegistry& registry);

}  // namespace maxutil::solver
