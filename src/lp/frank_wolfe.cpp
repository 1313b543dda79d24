#include "lp/frank_wolfe.hpp"

#include <cmath>

#include "lp/revised_simplex.hpp"
#include "util/check.hpp"

namespace maxutil::lp {

using maxutil::util::ensure;

namespace {

/// Golden-section maximization of f on [0, 1] (f concave along the segment,
/// so unimodal).
double golden_section(const std::function<double(double)>& f) {
  constexpr double kInvPhi = 0.6180339887498949;
  double lo = 0.0, hi = 1.0;
  double m1 = hi - kInvPhi * (hi - lo);
  double m2 = lo + kInvPhi * (hi - lo);
  double f1 = f(m1), f2 = f(m2);
  for (int i = 0; i < 60 && hi - lo > 1e-12; ++i) {
    if (f1 < f2) {
      lo = m1;
      m1 = m2;
      f1 = f2;
      m2 = lo + kInvPhi * (hi - lo);
      f2 = f(m2);
    } else {
      hi = m2;
      m2 = m1;
      f2 = f1;
      m1 = hi - kInvPhi * (hi - lo);
      f1 = f(m1);
    }
  }
  // Consider the endpoints too (the maximizer may sit at 0 or 1).
  const double mid = (lo + hi) / 2.0;
  double best = mid, best_value = f(mid);
  for (const double candidate : {0.0, 1.0}) {
    const double v = f(candidate);
    if (v > best_value) {
      best_value = v;
      best = candidate;
    }
  }
  return best;
}

}  // namespace

FrankWolfeSolution maximize_concave(
    const LpProblem& feasible_region,
    const std::function<double(const std::vector<double>&)>& value,
    const std::function<std::vector<double>(const std::vector<double>&)>&
        gradient,
    const FrankWolfeOptions& options) {
  ensure(value != nullptr && gradient != nullptr,
         "maximize_concave: callbacks required");
  const std::size_t n = feasible_region.variable_count();

  // Working copy whose objective we overwrite with the current gradient.
  LpProblem oracle = feasible_region;
  oracle.set_sense(Sense::kMaximize);

  FrankWolfeSolution out;

  // Initial point: any vertex (maximize the zero objective).
  for (VarId v = 0; v < n; ++v) oracle.set_objective_coefficient(v, 0.0);
  const LpSolution start = solve_revised(oracle);
  if (start.status != LpStatus::kOptimal) {
    out.status = start.status;
    return out;
  }
  std::vector<double> x = start.x;

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    const std::vector<double> grad = gradient(x);
    ensure(grad.size() == n, "maximize_concave: gradient dimension mismatch");
    for (VarId v = 0; v < n; ++v) oracle.set_objective_coefficient(v, grad[v]);
    const LpSolution vertex = solve_revised(oracle);
    if (vertex.status != LpStatus::kOptimal) {
      out.status = vertex.status;
      return out;
    }
    // Duality gap g = grad' (s - x) >= f* - f(x) for concave f.
    double gap = 0.0;
    for (VarId v = 0; v < n; ++v) gap += grad[v] * (vertex.x[v] - x[v]);
    out.gap = gap;
    out.iterations = it + 1;
    if (gap <= options.gap_tolerance) break;

    // Exact line search on the segment x -> s.
    const auto along = [&](double t) {
      std::vector<double> point(n);
      for (VarId v = 0; v < n; ++v) {
        point[v] = x[v] + t * (vertex.x[v] - x[v]);
      }
      return point;
    };
    const double step =
        golden_section([&](double t) { return value(along(t)); });
    x = along(step);
    if (step <= 1e-14) break;  // stuck at the boundary of improvement
  }

  out.status = LpStatus::kOptimal;
  out.objective = value(x);
  out.x = std::move(x);
  return out;
}

}  // namespace maxutil::lp
