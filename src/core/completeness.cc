#include "src/core/completeness.h"

#include <algorithm>

namespace lapis::core {

namespace {

constexpr uint32_t kAllKinds = (1u << kApiKindCount) - 1;

uint32_t MaskOf(const std::set<ApiKind>& kinds) {
  uint32_t mask = 0;
  for (ApiKind kind : kinds) {
    mask |= 1u << static_cast<uint32_t>(kind);
  }
  return mask;
}

// Calls `fn(ordinal)` for every API ordinal of the kinds in `mask`.
template <typename Fn>
void ForEachOrdinal(const StudyDataset& dataset, uint32_t mask, Fn fn) {
  for (int k = 0; k < kApiKindCount; ++k) {
    if ((mask & (1u << k)) != 0) {
      auto [first, last] = dataset.KindOrdinals(static_cast<ApiKind>(k));
      for (uint32_t ordinal = first; ordinal < last; ++ordinal) {
        fn(ordinal);
      }
    }
  }
}

// Applies dependency poisoning through the closures to per-package
// "self-supported" flags and sums, in package-id order, the install
// probability of every package left supported.
SupportSummary Summarize(const StudyDataset& dataset,
                         const std::vector<uint8_t>& self_ok,
                         std::vector<bool>* flags) {
  const std::span<const double> weight = dataset.InstallProbabilities();
  SupportSummary summary;
  double supported_weight = 0.0;
  double total_weight = 0.0;
  if (flags != nullptr) {
    flags->assign(dataset.package_count(), false);
  }
  for (PackageId id = 0; id < dataset.package_count(); ++id) {
    uint8_t ok = 1;
    for (PackageId member : dataset.DependencyClosure(id)) {
      ok &= self_ok[member];
    }
    // Branch-free: adding +0.0 for an unsupported package leaves the sum's
    // bits unchanged, since the sum starts at +0.0 and never goes negative.
    total_weight += weight[id];
    supported_weight += weight[id] * ok;
    summary.supported_packages += ok;
    if (flags != nullptr) {
      (*flags)[id] = ok != 0;
    }
  }
  if (total_weight != 0.0) {
    summary.weighted_completeness = supported_weight / total_weight;
  }
  return summary;
}

std::vector<uint8_t> OrdinalFlags(const StudyDataset& dataset,
                                  const std::set<ApiId>& supported) {
  std::vector<uint8_t> flags(dataset.Apis().size(), 0);
  for (const ApiId& api : supported) {
    uint32_t ordinal = dataset.ApiOrdinal(api);
    if (ordinal != kNoApiOrdinal) {
      flags[ordinal] = 1;
    }
  }
  return flags;
}

// Adds the APIs of `order` one at a time and records the weighted
// completeness after each, counting a package as self-supported once all
// its APIs of the `mask` kinds are in. The sum is redone only when some
// package became self-supported; otherwise the previous value stands.
std::vector<PathPoint> WalkPath(const StudyDataset& dataset,
                                const std::vector<ApiId>& order,
                                uint32_t mask) {
  // missing[pkg] = APIs of the `mask` kinds in the footprint not yet added.
  std::vector<uint32_t> missing(dataset.package_count(), 0);
  ForEachOrdinal(dataset, mask, [&](uint32_t ordinal) {
    for (PackageId pkg : dataset.DependentsAt(ordinal)) {
      ++missing[pkg];
    }
  });
  std::vector<PathPoint> path;
  path.reserve(order.size());
  std::vector<uint8_t> self_ok(dataset.package_count());
  double completeness = 0.0;
  for (const ApiId& api : order) {
    bool changed = path.empty();
    uint32_t ordinal = dataset.ApiOrdinal(api);
    if (ordinal != kNoApiOrdinal) {
      for (PackageId pkg : dataset.DependentsAt(ordinal)) {
        changed |= --missing[pkg] == 0;
      }
    }
    if (changed) {
      for (PackageId id = 0; id < dataset.package_count(); ++id) {
        self_ok[id] = missing[id] == 0;
      }
      completeness =
          Summarize(dataset, self_ok, nullptr).weighted_completeness;
    }
    path.push_back(PathPoint{api, dataset.ApiImportance(api), completeness});
  }
  return path;
}

}  // namespace

SupportSummary EvaluateSupport(const StudyDataset& dataset,
                               std::span<const uint8_t> supported,
                               uint32_t kinds_mask,
                               std::vector<bool>* flags) {
  kinds_mask &= kAllKinds;
  std::vector<uint8_t> self_ok(dataset.package_count(), 1);
  ForEachOrdinal(dataset, kinds_mask == 0 ? kAllKinds : kinds_mask,
                 [&](uint32_t ordinal) {
                   if (supported[ordinal] == 0) {
                     for (PackageId pkg : dataset.DependentsAt(ordinal)) {
                       self_ok[pkg] = 0;
                     }
                   }
                 });
  return Summarize(dataset, self_ok, flags);
}

std::vector<bool> SupportedPackages(const StudyDataset& dataset,
                                    const std::set<ApiId>& supported,
                                    const CompletenessOptions& options) {
  std::vector<bool> flags;
  EvaluateSupport(dataset, OrdinalFlags(dataset, supported),
                  MaskOf(options.evaluated_kinds), &flags);
  return flags;
}

double WeightedCompleteness(const StudyDataset& dataset,
                            const std::set<ApiId>& supported,
                            const CompletenessOptions& options) {
  return EvaluateSupport(dataset, OrdinalFlags(dataset, supported),
                         MaskOf(options.evaluated_kinds))
      .weighted_completeness;
}

std::vector<PathPoint> GreedyCompletenessPath(
    const StudyDataset& dataset, ApiKind kind,
    const std::vector<ApiId>& universe) {
  return WalkPath(dataset, dataset.RankByImportance(kind, universe),
                  MaskOf({kind}));
}

std::vector<PathPoint> GreedyCompletenessPathMultiKind(
    const StudyDataset& dataset, const std::set<ApiKind>& kinds,
    const std::vector<ApiId>& universe) {
  // Merge the per-kind rankings into one importance-ordered list.
  std::vector<ApiId> order;
  for (ApiKind kind : kinds) {
    auto ranked = dataset.RankByImportance(kind, universe);
    order.insert(order.end(), ranked.begin(), ranked.end());
  }
  std::stable_sort(order.begin(), order.end(),
                   [&dataset](const ApiId& a, const ApiId& b) {
                     double ia = dataset.ApiImportance(a);
                     double ib = dataset.ApiImportance(b);
                     if (ia != ib) {
                       return ia > ib;
                     }
                     double ua = dataset.UnweightedImportance(a);
                     double ub = dataset.UnweightedImportance(b);
                     if (ua != ub) {
                       return ua > ub;
                     }
                     return a < b;
                   });
  return WalkPath(dataset, order, MaskOf(kinds));
}

std::vector<Stage> DecomposeStages(const std::vector<PathPoint>& path,
                                   const std::vector<double>& thresholds,
                                   double baseline) {
  std::vector<Stage> stages;
  size_t cursor = 0;
  for (double raw_threshold : thresholds) {
    double threshold = std::min(1.0, raw_threshold + baseline);
    while (cursor < path.size() &&
           path[cursor].weighted_completeness + 1e-12 < threshold) {
      ++cursor;
    }
    Stage stage;
    stage.threshold = raw_threshold;
    if (cursor < path.size()) {
      stage.cumulative_apis = cursor + 1;
      stage.weighted_completeness = path[cursor].weighted_completeness;
    } else {
      stage.cumulative_apis = path.size();
      stage.weighted_completeness =
          path.empty() ? 0.0 : path.back().weighted_completeness;
    }
    stages.push_back(stage);
  }
  return stages;
}

std::vector<ApiId> SuggestNextApis(const StudyDataset& dataset,
                                   const std::set<ApiId>& supported,
                                   ApiKind kind, size_t count) {
  std::vector<ApiId> suggestions;
  for (const ApiId& api : dataset.RankByImportance(kind)) {
    if (supported.find(api) == supported.end()) {
      suggestions.push_back(api);
      if (suggestions.size() >= count) {
        break;
      }
    }
  }
  return suggestions;
}

}  // namespace lapis::core
