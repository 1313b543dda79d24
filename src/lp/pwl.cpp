#include "lp/pwl.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace maxutil::lp {

using maxutil::util::ensure;

PwlConcave PwlConcave::from_function(const std::function<double(double)>& fn,
                                     double hi, std::size_t segments) {
  ensure(hi > 0.0, "PwlConcave: hi must be positive");
  ensure(segments >= 1, "PwlConcave: at least one segment required");
  PwlConcave out;
  out.base_value_ = fn(0.0);
  out.breakpoints_.resize(segments + 1);
  for (std::size_t k = 0; k <= segments; ++k) {
    out.breakpoints_[k] =
        hi * static_cast<double>(k) / static_cast<double>(segments);
  }
  out.slopes_.resize(segments);
  for (std::size_t k = 0; k < segments; ++k) {
    const double x0 = out.breakpoints_[k];
    const double x1 = out.breakpoints_[k + 1];
    out.slopes_[k] = (fn(x1) - fn(x0)) / (x1 - x0);
  }
  for (std::size_t k = 1; k < segments; ++k) {
    ensure(out.slopes_[k] <= out.slopes_[k - 1] + 1e-9,
           "PwlConcave: function is not concave on the sampling grid");
  }
  return out;
}

double PwlConcave::evaluate(double x) const {
  const double hi = breakpoints_.back();
  x = std::clamp(x, 0.0, hi);
  double value = base_value_;
  for (std::size_t k = 0; k < slopes_.size(); ++k) {
    const double seg_lo = breakpoints_[k];
    const double seg_hi = breakpoints_[k + 1];
    if (x <= seg_lo) break;
    value += slopes_[k] * (std::min(x, seg_hi) - seg_lo);
  }
  return value;
}

double PwlConcave::max_gap(const std::function<double(double)>& fn,
                           std::size_t probes) const {
  ensure(probes >= 2, "PwlConcave::max_gap: probes too small");
  const double hi = breakpoints_.back();
  double worst = 0.0;
  for (std::size_t i = 0; i <= probes; ++i) {
    const double x = hi * static_cast<double>(i) / static_cast<double>(probes);
    worst = std::max(worst, std::abs(evaluate(x) - fn(x)));
  }
  return worst;
}

VarId add_pwl_admission_variable(LpProblem& problem, double lambda,
                                 const PwlConcave& pwl,
                                 const std::string& prefix) {
  ensure(lambda > 0.0, "add_pwl_admission_variable: lambda must be positive");
  ensure(std::abs(pwl.breakpoints().back() - lambda) < 1e-9 * (1.0 + lambda),
         "add_pwl_admission_variable: pwl domain must equal [0, lambda]");
  // An empty prefix means "no names": building one string per segment
  // would dominate assembly for the fine PWL grids the LP reference uses.
  const bool named = !prefix.empty();
  const VarId admitted = problem.add_variable(
      named ? prefix + ".admitted" : std::string(), 0.0, lambda, 0.0);
  std::vector<std::pair<VarId, double>> link{{admitted, -1.0}};
  for (std::size_t k = 0; k < pwl.slopes().size(); ++k) {
    const double width = pwl.breakpoints()[k + 1] - pwl.breakpoints()[k];
    const VarId seg = problem.add_variable(
        named ? prefix + ".seg" + std::to_string(k) : std::string(), 0.0,
        width, pwl.slopes()[k]);
    link.emplace_back(seg, 1.0);
  }
  // sum of segments == admitted rate
  problem.add_constraint(std::move(link), Relation::kEq, 0.0);
  return admitted;
}

}  // namespace maxutil::lp
