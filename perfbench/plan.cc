// The plan pass: the paper's "what to support next" questions over the
// artifact of an audited study, as lapis_plan and the figure benches ask
// them. One sweep computes an audit-informed greedy plan for greenfield
// and for every Table 6 system, the importance-order baseline,
// EvaluateSystem per system, the Fig 3 greedy completeness path and its
// Table 4 stages. serve_mix's traced run makes two sweeps over the
// artifact it serves, so the planner and completeness-path layers get
// per-call times; their output is checked like any other operation.

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/cache/content_hash.h"
#include "src/core/completeness.h"
#include "src/core/systems.h"
#include "src/corpus/dataset_io.h"
#include "src/corpus/system_profiles.h"
#include "src/plan/cost_model.h"
#include "src/plan/planner.h"
#include "src/plan/profiles.h"
#include "src/util/prng.h"

namespace lapis::perfbench {

namespace {

struct Target {
  const char* span;  // "plan.greedy.<key>"
  core::SystemProfile profile;
};

std::string PlanTsv(const plan::SupportPlan& plan,
                    const corpus::StudyArtifact& artifact) {
  std::ostringstream os;
  plan::WritePlanTsv(plan, artifact.path_interner, artifact.libc_interner,
                     os);
  return os.str();
}

// completeness_after at a few seeded actions (and the last one) against
// core::WeightedCompleteness of the cumulative supported set.
bool CheckCompleteness(const plan::SupportPlan& plan,
                       const plan::PlannerInput& input, Prng& prng,
                       Tracer& tracer) {
  if (plan.actions.empty()) {
    return true;
  }
  std::vector<size_t> sampled = {plan.actions.size() - 1};
  for (int i = 0; i < 3; ++i) {
    sampled.push_back(prng.NextBelow(plan.actions.size()));
  }
  core::CompletenessOptions options;
  options.evaluated_kinds = input.evaluated_kinds;
  for (size_t index : sampled) {
    std::set<core::ApiId> supported = input.already_supported;
    for (size_t i = 0; i <= index; ++i) {
      supported.insert(plan.actions[i].api);
    }
    const double recomputed =
        Traced(tracer, "core.weighted_completeness", [&] {
          return core::WeightedCompleteness(*input.dataset, supported, options);
        });
    if (std::abs(recomputed - plan.actions[index].completeness_after) >
        1e-9) {
      return false;
    }
  }
  return true;
}

}  // namespace

Status RunPlanPass(const corpus::StudyArtifact& artifact, uint64_t seed,
                   Tracer& tracer, Report& report) {
  const core::StudyDataset& dataset = *artifact.dataset;
  static constexpr const char* kSystemSpans[] = {
      "plan.greedy.uml", "plan.greedy.l4linux", "plan.greedy.freebsd_emu",
      "plan.greedy.graphene", "plan.greedy.graphene_sched"};
  std::vector<Target> targets;
  LAPIS_ASSIGN_OR_RETURN(auto none,
                         plan::ResolveSystemProfile(dataset, "none"));
  targets.push_back({"plan.greedy.none", std::move(none)});
  const auto& rows = corpus::LinuxSystemPlans();
  if (rows.size() != std::size(kSystemSpans)) {
    return InternalError("Table 6 no longer has five systems");
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    targets.push_back(
        {kSystemSpans[i], corpus::BuildSystemProfile(dataset, rows[i])});
  }
  const plan::CostModel costs = plan::CostModel::Defaults();
  auto input_for = [&](const core::SystemProfile& profile) {
    plan::PlannerInput input;
    input.dataset = &dataset;
    input.costs = &costs;
    input.already_supported = profile.supported;
    input.evaluated_kinds = profile.evaluated_kinds;
    input.evidence.kinds_mask = artifact.evidence_kinds_mask;
    input.evidence.observed = artifact.evidence_observed;
    return input;
  };
  report.Check(artifact.evidence_kinds_mask != 0,
               "audited artifact carries no evidence");

  // One sweep, every call's output rendered to bytes for the checks.
  struct SweepResult {
    double seconds = 0.0;
    std::vector<plan::SupportPlan> plans;
    std::vector<std::string> outputs;
  };
  auto sweep = [&](uint64_t request) {
    SweepResult out;
    std::vector<core::SystemEvaluation> evaluations;
    std::vector<core::PathPoint> path;
    std::vector<core::Stage> stages;
    plan::SupportPlan baseline;
    const int64_t start = NowNs();
    {
      Span span(&tracer, "plan.sweep", request);
      for (const auto& target : targets) {
        const plan::PlannerInput input = input_for(target.profile);
        out.plans.push_back(Traced(tracer, target.span,
                                   [&] { return plan::GreedyPlan(input); }));
      }
      baseline = Traced(tracer, "plan.importance_order", [&] {
        return plan::ImportanceOrderPlan(input_for(targets[0].profile));
      });
      for (size_t i = 1; i < targets.size(); ++i) {
        evaluations.push_back(Traced(tracer, "core.evaluate_system", [&] {
          return core::EvaluateSystem(dataset, targets[i].profile);
        }));
      }
      path = Traced(tracer, "core.greedy_path", [&] {
        return core::GreedyCompletenessPath(dataset, core::ApiKind::kSyscall,
                                            corpus::FullSyscallUniverse());
      });
      stages = Traced(tracer, "core.decompose_stages", [&] {
        return core::DecomposeStages(path, {0.01, 0.10, 0.50, 0.90, 1.00},
                                     path.front().weighted_completeness);
      });
    }
    out.seconds = static_cast<double>(NowNs() - start) * 1e-9;
    for (const auto& plan : out.plans) {
      out.outputs.push_back(PlanTsv(plan, artifact));
    }
    out.outputs.push_back(PlanTsv(baseline, artifact));
    for (const auto& evaluation : evaluations) {
      std::ostringstream os;
      os << evaluation.name << ' ' << evaluation.supported_count << ' '
         << evaluation.weighted_completeness;
      for (core::ApiId api : evaluation.suggested) {
        os << ' ' << api.Encode();
      }
      out.outputs.push_back(os.str());
    }
    std::ostringstream path_os;
    for (const auto& point : path) {
      path_os << point.api.Encode() << ' ' << point.weighted_completeness
              << '\n';
    }
    out.outputs.push_back(path_os.str());
    std::ostringstream stages_os;
    for (const auto& stage : stages) {
      stages_os << stage.threshold << ' ' << stage.cumulative_apis << ' '
                << stage.weighted_completeness << '\n';
    }
    out.outputs.push_back(stages_os.str());
    return out;
  };

  // Two sweeps: every call's output must match across them, and each
  // greedy plan must state its completeness correctly.
  Prng prng(seed ^ 0x91a2b3c4ULL);
  std::vector<double> sweep_s;
  std::vector<std::string> reference;
  for (uint64_t request = 1; request <= 2; ++request) {
    const SweepResult result = sweep(request);
    sweep_s.push_back(result.seconds);
    if (reference.empty()) {
      reference = result.outputs;
    }
    for (size_t i = 0; i < result.outputs.size(); ++i) {
      bool ok = result.outputs[i] == reference[i];
      if (i < result.plans.size()) {
        ok = ok && CheckCompleteness(result.plans[i],
                                     input_for(targets[i].profile), prng,
                                     tracer);
      }
      report.Check(ok, "plan call " + std::to_string(i) +
                           " output differs or misstates completeness");
      report.Attempt(ok, "plan call " + std::to_string(i));
    }
  }
  report.Timing("plan_s", sweep_s, "s");
  uint64_t digest = 0;
  for (const auto& output : reference) {
    digest = cache::HashString(output, digest ^ 0x51);
  }
  report.Digest("plans", digest);
  return Status::Ok();
}

}  // namespace lapis::perfbench
