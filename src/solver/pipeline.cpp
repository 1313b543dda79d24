#include "solver/pipeline.hpp"

#include <utility>

#include "util/check.hpp"

namespace maxutil::solver {

using maxutil::util::ensure;

Pipeline::Pipeline(std::vector<std::string> stages,
                   const SolverRegistry& registry)
    : stages_(std::move(stages)), registry_(&registry) {}

Pipeline Pipeline::parse(const std::string& spec,
                         const SolverRegistry& registry) {
  std::vector<std::string> stages;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    std::string name = spec.substr(begin, end - begin);
    // Trim surrounding spaces so "lp, gradient" parses.
    while (!name.empty() && name.front() == ' ') name.erase(name.begin());
    while (!name.empty() && name.back() == ' ') name.pop_back();
    ensure(!name.empty(), "pipeline '" + spec + "': empty stage (registered: " +
                              registry.names_joined() + ")");
    ensure(registry.find(name) != nullptr,
           "unknown solver '" + name + "' in pipeline '" + spec +
               "' (registered: " + registry.names_joined() + ")");
    stages.push_back(std::move(name));
    begin = end + 1;
  }
  ensure(!stages.empty(), "empty pipeline spec");
  return Pipeline(std::move(stages), registry);
}

std::string Pipeline::spec() const {
  std::string out;
  for (const std::string& stage : stages_) {
    if (!out.empty()) out += ",";
    out += stage;
  }
  return out;
}

bool Pipeline::any_stage(bool SolverInfo::* capability) const {
  for (const std::string& stage : stages_) {
    const SolverInfo* info = registry_->find(stage);
    if (info != nullptr && info->*capability) return true;
  }
  return false;
}

SolveResult Pipeline::run(const Problem& problem,
                          const SolveOptions& options) const {
  SolveResult result;
  double wall_seconds = 0.0;
  std::vector<StageSummary> summaries;
  std::vector<std::string> warnings;
  std::optional<core::RoutingState> carry;
  for (const std::string& stage : stages_) {
    const SolverInfo* info = registry_->find(stage);
    ensure(info != nullptr, "pipeline stage '" + stage + "' vanished from "
                            "the registry");
    SolveOptions stage_options = options;
    if (carry.has_value() && info->supports_warm_start) {
      stage_options.warm_start = carry;
    }
    try {
      result = registry_->solve(stage, problem, stage_options);
    } catch (const maxutil::util::CheckError& e) {
      // The registry already converts adapter CheckErrors into failed
      // results; this guards the dispatch itself (and future registries) so
      // a pipeline never unwinds past a stage boundary.
      result = SolveResult{};
      result.status = Status::kFailed;
      result.message = e.what();
      result.warnings.push_back(result.message);
    }
    summaries.push_back({stage, result.status, result.utility,
                         result.iterations, result.wall_seconds});
    wall_seconds += result.wall_seconds;
    for (const std::string& w : result.warnings) {
      warnings.push_back(stage + ": " + w);
    }
    if (!is_usable(result.status)) break;
    if (result.routing.has_value()) carry = result.routing;
  }
  result.wall_seconds = wall_seconds;
  result.stages = std::move(summaries);
  if (stages_.size() > 1) result.warnings = std::move(warnings);
  return result;
}

}  // namespace maxutil::solver
