#include "src/core/dataset.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <unordered_map>

namespace lapis::core {

StudyDataset::StudyDataset(size_t package_count, uint64_t total_installations)
    : total_installations_(total_installations),
      names_(package_count),
      install_counts_(package_count, 0),
      footprints_(package_count),
      depends_(package_count),
      footprint_begin_(package_count + 1, 0),
      closure_begin_(package_count + 1, 0) {}

Status StudyDataset::CheckConstruction(PackageId id) {
  if (finalized_) {
    return FailedPreconditionError("dataset already finalized");
  }
  if (id >= names_.size()) {
    return InvalidArgumentError("package id out of range");
  }
  return Status::Ok();
}

Status StudyDataset::SetPackageName(PackageId id, std::string name) {
  LAPIS_RETURN_IF_ERROR(CheckConstruction(id));
  names_[id] = std::move(name);
  return Status::Ok();
}

Status StudyDataset::SetInstallCount(PackageId id, uint64_t count) {
  LAPIS_RETURN_IF_ERROR(CheckConstruction(id));
  if (count > total_installations_) {
    return InvalidArgumentError("install count exceeds survey size");
  }
  install_counts_[id] = count;
  return Status::Ok();
}

Status StudyDataset::SetFootprint(PackageId id, std::vector<ApiId> footprint) {
  LAPIS_RETURN_IF_ERROR(CheckConstruction(id));
  std::sort(footprint.begin(), footprint.end());
  footprint.erase(std::unique(footprint.begin(), footprint.end()),
                  footprint.end());
  footprints_[id] = std::move(footprint);
  return Status::Ok();
}

Status StudyDataset::SetDependencies(PackageId id,
                                     std::vector<PackageId> depends) {
  LAPIS_RETURN_IF_ERROR(CheckConstruction(id));
  for (PackageId dep : depends) {
    if (dep >= names_.size()) {
      return InvalidArgumentError("dependency id out of range");
    }
  }
  depends_[id] = std::move(depends);
  return Status::Ok();
}

Status StudyDataset::Finalize() {
  if (finalized_) {
    return FailedPreconditionError("dataset already finalized");
  }
  const size_t n = names_.size();
  install_probability_.resize(n);
  for (PackageId id = 0; id < n; ++id) {
    install_probability_[id] = InstallProbability(id);
  }

  // API ordinals: give each distinct footprint API a provisional id in
  // first-seen order, then renumber the ids in sorted-API order.
  for (PackageId id = 0; id < n; ++id) {
    footprint_begin_[id + 1] = footprint_begin_[id] +
                               static_cast<uint32_t>(footprints_[id].size());
  }
  footprint_ordinals_.reserve(footprint_begin_[n]);
  std::unordered_map<int64_t, uint32_t> provisional;
  for (const auto& footprint : footprints_) {
    for (const ApiId& api : footprint) {
      auto [it, added] = provisional.try_emplace(
          api.Encode(), static_cast<uint32_t>(apis_.size()));
      if (added) {
        apis_.push_back(api);
      }
      footprint_ordinals_.push_back(it->second);
    }
  }
  footprints_ = {};
  std::vector<uint32_t> ordinal_of(apis_.size());  // by provisional id
  {
    std::vector<uint32_t> by_ordinal(apis_.size());  // provisional ids
    std::iota(by_ordinal.begin(), by_ordinal.end(), 0u);
    std::sort(by_ordinal.begin(), by_ordinal.end(),
              [this](uint32_t a, uint32_t b) { return apis_[a] < apis_[b]; });
    std::vector<ApiId> sorted(apis_.size());
    for (uint32_t ordinal = 0; ordinal < sorted.size(); ++ordinal) {
      sorted[ordinal] = apis_[by_ordinal[ordinal]];
      ordinal_of[by_ordinal[ordinal]] = ordinal;
    }
    apis_ = std::move(sorted);
  }
  for (int k = 0; k <= kApiKindCount; ++k) {
    kind_begin_[static_cast<size_t>(k)] = static_cast<uint32_t>(
        std::lower_bound(apis_.begin(), apis_.end(),
                         ApiId{static_cast<ApiKind>(k), 0}) -
        apis_.begin());
  }

  // Dependents CSR, filled in package order so each list ascends.
  // Renumbering keeps each footprint ascending: ordinals follow API order.
  dependent_begin_.assign(apis_.size() + 1, 0);
  for (uint32_t& ordinal : footprint_ordinals_) {
    ordinal = ordinal_of[ordinal];
    ++dependent_begin_[ordinal + 1];
  }
  std::partial_sum(dependent_begin_.begin(), dependent_begin_.end(),
                   dependent_begin_.begin());
  dependents_.resize(footprint_ordinals_.size());
  {
    std::vector<uint32_t> cursor(dependent_begin_.begin(),
                                 dependent_begin_.end() - 1);
    for (PackageId id = 0; id < n; ++id) {
      for (uint32_t ordinal : FootprintOrdinals(id)) {
        dependents_[cursor[ordinal]++] = id;
      }
    }
  }

  // Importance per ordinal, multiplied in dependents order as
  // ApiImportance has always been.
  importance_.resize(apis_.size());
  unweighted_.resize(apis_.size());
  for (uint32_t ordinal = 0; ordinal < apis_.size(); ++ordinal) {
    double prob_none = 1.0;
    for (PackageId pkg : DependentsAt(ordinal)) {
      prob_none *= 1.0 - install_probability_[pkg];
    }
    importance_[ordinal] = 1.0 - prob_none;
    unweighted_[ordinal] = static_cast<double>(DependentsAt(ordinal).size()) /
                           static_cast<double>(n);
  }

  // Dependency closures (BFS, cycle-safe): `seen[p] == id + 1` marks p as
  // reached from `id`.
  closure_begin_.assign(n + 1, 0);
  std::vector<uint32_t> seen(n, 0);
  for (PackageId id = 0; id < n; ++id) {
    size_t head = closures_.size();
    closures_.push_back(id);
    seen[id] = id + 1;
    for (; head < closures_.size(); ++head) {
      for (PackageId dep : depends_[closures_[head]]) {
        if (seen[dep] != id + 1) {
          seen[dep] = id + 1;
          closures_.push_back(dep);
        }
      }
    }
    closure_begin_[id + 1] = static_cast<uint32_t>(closures_.size());
  }
  // Name lookup.
  for (PackageId id = 0; id < n; ++id) {
    if (!names_[id].empty()) {
      by_name_.emplace(names_[id], id);
    }
  }
  finalized_ = true;
  return Status::Ok();
}

PackageId StudyDataset::FindPackage(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? UINT32_MAX : it->second;
}

double StudyDataset::InstallProbability(PackageId id) const {
  if (total_installations_ == 0) {
    return 0.0;
  }
  return static_cast<double>(install_counts_[id]) /
         static_cast<double>(total_installations_);
}

std::vector<ApiId> StudyDataset::Footprint(PackageId id) const {
  if (!finalized_) {
    return footprints_[id];
  }
  std::vector<ApiId> footprint;
  footprint.reserve(FootprintOrdinals(id).size());
  for (uint32_t ordinal : FootprintOrdinals(id)) {
    footprint.push_back(apis_[ordinal]);
  }
  return footprint;
}

uint32_t StudyDataset::ApiOrdinal(ApiId api) const {
  auto it = std::lower_bound(apis_.begin(), apis_.end(), api);
  return it != apis_.end() && *it == api
             ? static_cast<uint32_t>(it - apis_.begin())
             : kNoApiOrdinal;
}

std::span<const PackageId> StudyDataset::Dependents(ApiId api) const {
  uint32_t ordinal = ApiOrdinal(api);
  if (ordinal == kNoApiOrdinal) {
    return {};
  }
  return DependentsAt(ordinal);
}

double StudyDataset::ApiImportance(ApiId api) const {
  uint32_t ordinal = ApiOrdinal(api);
  return ordinal == kNoApiOrdinal ? 0.0 : importance_[ordinal];
}

double StudyDataset::UnweightedImportance(ApiId api) const {
  uint32_t ordinal = ApiOrdinal(api);
  return ordinal == kNoApiOrdinal ? 0.0 : unweighted_[ordinal];
}

std::vector<ApiId> StudyDataset::ApisOfKind(ApiKind kind) const {
  auto [first, last] = KindOrdinals(kind);
  return {apis_.begin() + first, apis_.begin() + last};
}

namespace {

std::vector<ApiId> RankHelper(const StudyDataset& dataset, ApiKind kind,
                              const std::vector<ApiId>& universe,
                              bool weighted) {
  std::set<ApiId> all;
  for (const ApiId& api : dataset.ApisOfKind(kind)) {
    all.insert(api);
  }
  for (const ApiId& api : universe) {
    if (api.kind == kind) {
      all.insert(api);
    }
  }
  // Primary score: the requested importance. Secondary: the other metric —
  // installations saturate the weighted importance of every widely-used API
  // at exactly 1.0 (any dependent with install probability 1 does), so ties
  // are broken by breadth of use, then by code for stability.
  struct Scored {
    double primary;
    double secondary;
    ApiId api;
  };
  std::vector<Scored> scored;
  scored.reserve(all.size());
  for (const ApiId& api : all) {
    double importance = dataset.ApiImportance(api);
    double unweighted = dataset.UnweightedImportance(api);
    if (weighted) {
      scored.push_back(Scored{importance, unweighted, api});
    } else {
      scored.push_back(Scored{unweighted, importance, api});
    }
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     if (a.primary != b.primary) {
                       return a.primary > b.primary;
                     }
                     if (a.secondary != b.secondary) {
                       return a.secondary > b.secondary;
                     }
                     return a.api < b.api;
                   });
  std::vector<ApiId> out;
  out.reserve(scored.size());
  for (const auto& entry : scored) {
    out.push_back(entry.api);
  }
  return out;
}

}  // namespace

std::vector<ApiId> StudyDataset::RankByImportance(
    ApiKind kind, const std::vector<ApiId>& universe) const {
  return RankHelper(*this, kind, universe, /*weighted=*/true);
}

std::vector<ApiId> StudyDataset::RankByUnweightedImportance(
    ApiKind kind, const std::vector<ApiId>& universe) const {
  return RankHelper(*this, kind, universe, /*weighted=*/false);
}

StudyDataset::FootprintUniqueness StudyDataset::ComputeFootprintUniqueness()
    const {
  FootprintUniqueness result;
  // Ordinals stand for APIs one to one, so equal ordinal lists are equal
  // footprints.
  std::map<std::vector<uint32_t>, size_t> counts;
  for (PackageId id = 0; id < package_count(); ++id) {
    std::span<const uint32_t> fp = FootprintOrdinals(id);
    if (fp.empty()) {
      continue;
    }
    ++result.packages_with_footprint;
    ++counts[std::vector<uint32_t>(fp.begin(), fp.end())];
  }
  result.distinct = counts.size();
  for (const auto& [fp, count] : counts) {
    (void)fp;
    if (count == 1) {
      ++result.unique;
    }
  }
  return result;
}

}  // namespace lapis::core
