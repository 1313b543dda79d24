#include "lp/model.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace maxutil::lp {

using maxutil::util::ensure;

const char* to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

VarId LpProblem::add_variable(std::string name, double lower, double upper,
                              double objective) {
  ensure(lower <= upper, "LpProblem: variable bounds inverted");
  ensure(!std::isnan(lower) && !std::isnan(upper) && !std::isnan(objective),
         "LpProblem: NaN in variable definition");
  names_.push_back(std::move(name));
  lower_.push_back(lower);
  upper_.push_back(upper);
  objective_.push_back(objective);
  return names_.size() - 1;
}

void LpProblem::add_constraint(std::vector<std::pair<VarId, double>> terms,
                               Relation rel, double rhs) {
  for (const auto& [v, coeff] : terms) {
    ensure(v < variable_count(), "LpProblem: constraint references unknown variable");
    ensure(!std::isnan(coeff), "LpProblem: NaN coefficient");
  }
  ensure(!std::isnan(rhs), "LpProblem: NaN rhs");
  rows_.push_back({std::move(terms), rel, rhs});
}

const std::string& LpProblem::variable_name(VarId v) const {
  ensure(v < variable_count(), "LpProblem: variable out of range");
  return names_[v];
}

double LpProblem::lower(VarId v) const {
  ensure(v < variable_count(), "LpProblem: variable out of range");
  return lower_[v];
}

double LpProblem::upper(VarId v) const {
  ensure(v < variable_count(), "LpProblem: variable out of range");
  return upper_[v];
}

double LpProblem::objective_coefficient(VarId v) const {
  ensure(v < variable_count(), "LpProblem: variable out of range");
  return objective_[v];
}

void LpProblem::set_objective_coefficient(VarId v, double coeff) {
  ensure(v < variable_count(), "LpProblem: variable out of range");
  objective_[v] = coeff;
}

const LpProblem::Row& LpProblem::row(std::size_t i) const {
  ensure(i < constraint_count(), "LpProblem: row out of range");
  return rows_[i];
}

double LpProblem::objective_value(const std::vector<double>& x) const {
  ensure(x.size() == variable_count(), "LpProblem: solution size mismatch");
  double total = 0.0;
  for (VarId v = 0; v < x.size(); ++v) total += objective_[v] * x[v];
  return total;
}

double LpProblem::max_violation(const std::vector<double>& x) const {
  ensure(x.size() == variable_count(), "LpProblem: solution size mismatch");
  double worst = 0.0;
  for (VarId v = 0; v < x.size(); ++v) {
    worst = std::max(worst, lower_[v] - x[v]);
    worst = std::max(worst, x[v] - upper_[v]);
  }
  for (const Row& r : rows_) {
    double lhs = 0.0;
    for (const auto& [v, coeff] : r.terms) lhs += coeff * x[v];
    switch (r.rel) {
      case Relation::kLessEq:
        worst = std::max(worst, lhs - r.rhs);
        break;
      case Relation::kGreaterEq:
        worst = std::max(worst, r.rhs - lhs);
        break;
      case Relation::kEq:
        worst = std::max(worst, std::abs(lhs - r.rhs));
        break;
    }
  }
  return worst;
}

}  // namespace maxutil::lp
