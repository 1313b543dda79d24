#pragma once

#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace maxutil::xform {

/// Convex increasing barrier penalties D_i(z) for per-node resource usage,
/// with D(z) -> +inf as z -> C (Section 3). The paper's example is the
/// reciprocal barrier D(z) = 1/(C - z); the log barrier is the classic
/// interior-point alternative evaluated in the safeguard/barrier ablation
/// bench.
enum class BarrierKind { kReciprocal, kLog };

/// Configuration of the penalty term eps * sum_i D_i(f_i) added to the
/// utility-loss objective (the paper's tunable epsilon, Section 3; the
/// evaluation uses eps = 0.2).
struct PenaltyConfig {
  BarrierKind barrier = BarrierKind::kReciprocal;
  double epsilon = 0.2;
};

/// eps * D(z) for capacity c; +inf when z >= c. Infinite-capacity nodes
/// (dummy nodes, sinks) always cost 0, matching the paper's D_i = 0 there.
/// Inline: the optimizer evaluates these per node every iteration.
inline double penalty_value(const PenaltyConfig& config, double capacity,
                            double z) {
  maxutil::util::ensure(z >= 0.0, "penalty_value: negative usage");
  if (std::isinf(capacity)) return 0.0;
  if (z >= capacity) return std::numeric_limits<double>::infinity();
  switch (config.barrier) {
    case BarrierKind::kReciprocal:
      return config.epsilon / (capacity - z);
    case BarrierKind::kLog:
      return -config.epsilon * std::log((capacity - z) / capacity);
  }
  return 0.0;
}

/// eps * D'(z); +inf when z >= c, 0 for infinite-capacity nodes.
inline double penalty_derivative(const PenaltyConfig& config, double capacity,
                                 double z) {
  maxutil::util::ensure(z >= 0.0, "penalty_derivative: negative usage");
  if (std::isinf(capacity)) return 0.0;
  if (z >= capacity) return std::numeric_limits<double>::infinity();
  const double slack = capacity - z;
  switch (config.barrier) {
    case BarrierKind::kReciprocal:
      return config.epsilon / (slack * slack);
    case BarrierKind::kLog:
      return config.epsilon / slack;
  }
  return 0.0;
}

/// eps * D''(z); +inf when z >= c, 0 for infinite-capacity nodes. Strictly
/// positive on the feasible region (both barriers are strictly convex) —
/// the curvature behind the second-derivative step variant.
inline double penalty_second_derivative(const PenaltyConfig& config,
                                        double capacity, double z) {
  maxutil::util::ensure(z >= 0.0, "penalty_second_derivative: negative usage");
  if (std::isinf(capacity)) return 0.0;
  if (z >= capacity) return std::numeric_limits<double>::infinity();
  const double slack = capacity - z;
  switch (config.barrier) {
    case BarrierKind::kReciprocal:
      return 2.0 * config.epsilon / (slack * slack * slack);
    case BarrierKind::kLog:
      return config.epsilon / (slack * slack);
  }
  return 0.0;
}

}  // namespace maxutil::xform
