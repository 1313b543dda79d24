#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "lp/model.hpp"

namespace maxutil::lp {

/// Piecewise-linear over-approximation of a concave increasing function on
/// [0, hi], as breakpoints plus per-segment slopes.
///
/// Because the function is concave, the slopes are non-increasing, so an LP
/// that maximizes a sum of such segments fills them greedily in order — the
/// standard exact-for-concave PWL trick that lets the simplex reference
/// solver handle the paper's general concave utilities U_j.
class PwlConcave {
 public:
  /// Samples `fn` at `segments`+1 equally spaced breakpoints on [0, hi].
  /// Requires hi > 0 and segments >= 1; slope monotonicity is validated
  /// (throws util::CheckError if `fn` is not concave on the grid).
  static PwlConcave from_function(const std::function<double(double)>& fn,
                                  double hi, std::size_t segments);

  /// Breakpoints 0 = b_0 < b_1 < ... < b_K = hi.
  const std::vector<double>& breakpoints() const { return breakpoints_; }

  /// Slopes of the K segments, non-increasing.
  const std::vector<double>& slopes() const { return slopes_; }

  /// Value of the PWL interpolant at x in [0, hi] (clamped outside).
  double evaluate(double x) const;

  /// Worst-case gap between the PWL interpolant and `fn` on a fine grid —
  /// used by tests to bound the approximation error of the LP reference.
  double max_gap(const std::function<double(double)>& fn,
                 std::size_t probes = 1000) const;

 private:
  std::vector<double> breakpoints_;
  std::vector<double> slopes_;
  double base_value_ = 0.0;  // fn(0), so evaluate matches fn not just shape
};

/// Adds to `problem` an admission variable a in [0, lambda] whose utility
/// U(a) enters the (maximize) objective through `pwl` segment variables.
/// Returns the VarId of the admission variable, named "<prefix>.admitted";
/// the segment variables are named "<prefix>.seg<k>". An empty prefix
/// leaves every name empty.
VarId add_pwl_admission_variable(LpProblem& problem, double lambda,
                                 const PwlConcave& pwl,
                                 const std::string& prefix);

}  // namespace maxutil::lp
