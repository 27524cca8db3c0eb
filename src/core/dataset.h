// StudyDataset: the joined measurement data (paper §2, Appendix A).
//
// Combines, per package: the API footprint (from static analysis), the
// installation count (from the popularity-contest survey), and the APT
// dependency edges. All metrics — API importance, unweighted API importance,
// weighted completeness — are computed from this one structure.
//
// Finalize builds one dense index over it. Every API that appears in some
// footprint gets an ordinal: its position in the sorted API list, so each
// kind is one contiguous ordinal range. Footprints (as ordinals),
// dependents and dependency closures are CSR arrays, and each ordinal's
// importance and unweighted importance are precomputed, so a point lookup
// is a binary search plus a load and a completeness evaluation is a pass
// over flat arrays (completeness.h).

#ifndef LAPIS_SRC_CORE_DATASET_H_
#define LAPIS_SRC_CORE_DATASET_H_

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/api_id.h"
#include "src/util/status.h"

namespace lapis::core {

using PackageId = uint32_t;

// StudyDataset::ApiOrdinal of an API no footprint mentions.
inline constexpr uint32_t kNoApiOrdinal = UINT32_MAX;

class StudyDataset {
 public:
  StudyDataset(size_t package_count, uint64_t total_installations);

  // ---- Construction ----
  Status SetPackageName(PackageId id, std::string name);
  Status SetInstallCount(PackageId id, uint64_t count);
  Status SetFootprint(PackageId id, std::vector<ApiId> footprint);
  // Direct dependency edges (closure is computed in Finalize).
  Status SetDependencies(PackageId id, std::vector<PackageId> depends);
  // Builds the dense index (ordinals, dependents, closures, importance).
  // Must be called before any query; construction calls afterwards are
  // rejected.
  Status Finalize();

  // ---- Basic accessors ----
  size_t package_count() const { return names_.size(); }
  uint64_t total_installations() const { return total_installations_; }
  const std::string& PackageName(PackageId id) const { return names_[id]; }
  PackageId FindPackage(std::string_view name) const;  // UINT32_MAX if absent
  double InstallProbability(PackageId id) const;
  // InstallProbability of every package, by id (built by Finalize).
  std::span<const double> InstallProbabilities() const {
    return install_probability_;
  }
  uint64_t InstallCount(PackageId id) const { return install_counts_[id]; }
  // The package's footprint, ascending; built from the index once
  // finalized (the per-package vectors are only kept until then).
  std::vector<ApiId> Footprint(PackageId id) const;
  // The API ordinals of Footprint(id), ascending.
  std::span<const uint32_t> FootprintOrdinals(PackageId id) const {
    return {footprint_ordinals_.data() + footprint_begin_[id],
            footprint_ordinals_.data() + footprint_begin_[id + 1]};
  }
  // `id` first, then its transitive dependencies in breadth-first order.
  std::span<const PackageId> DependencyClosure(PackageId id) const {
    return {closures_.data() + closure_begin_[id],
            closures_.data() + closure_begin_[id + 1]};
  }
  // The direct dependency edges as set (closure is derived in Finalize).
  const std::vector<PackageId>& DirectDependencies(PackageId id) const {
    return depends_[id];
  }
  bool finalized() const { return finalized_; }

  // ---- Dense API index ----
  // Every API in at least one footprint, sorted (kind-major); an API's
  // ordinal is its position here.
  std::span<const ApiId> Apis() const { return apis_; }
  // kNoApiOrdinal when no footprint mentions `api`.
  uint32_t ApiOrdinal(ApiId api) const;
  // The ordinals of `kind`: [first, second).
  std::pair<uint32_t, uint32_t> KindOrdinals(ApiKind kind) const {
    const auto k = static_cast<size_t>(kind);
    return {kind_begin_[k], kind_begin_[k + 1]};
  }
  // Packages whose footprint contains the API at `ordinal`, ascending.
  std::span<const PackageId> DependentsAt(uint32_t ordinal) const {
    return {dependents_.data() + dependent_begin_[ordinal],
            dependents_.data() + dependent_begin_[ordinal + 1]};
  }

  // ---- Metrics ----
  // Packages whose footprint contains `api` (paper: Dependents(api)),
  // ascending.
  std::span<const PackageId> Dependents(ApiId api) const;

  // API importance (§A.1): probability a random installation contains at
  // least one package requiring `api`, assuming independent installs:
  //   1 - prod_{pkg in dependents} (1 - p_pkg)
  double ApiImportance(ApiId api) const;

  // Unweighted API importance (§5): fraction of packages using `api`.
  double UnweightedImportance(ApiId api) const;

  // Every API of `kind` appearing in at least one footprint, ascending.
  std::vector<ApiId> ApisOfKind(ApiKind kind) const;

  // APIs of `kind` ranked by descending importance (stable tie-break on
  // code). `universe` may add zero-importance APIs absent from footprints.
  std::vector<ApiId> RankByImportance(
      ApiKind kind, const std::vector<ApiId>& universe = {}) const;
  std::vector<ApiId> RankByUnweightedImportance(
      ApiKind kind, const std::vector<ApiId>& universe = {}) const;

  // Count of distinct / unique footprints among packages with non-empty
  // footprints (paper §6: 11,680 distinct, 9,133 unique of 31,433).
  struct FootprintUniqueness {
    size_t packages_with_footprint = 0;
    size_t distinct = 0;
    size_t unique = 0;
  };
  FootprintUniqueness ComputeFootprintUniqueness() const;

 private:
  Status CheckConstruction(PackageId id);

  uint64_t total_installations_;
  bool finalized_ = false;
  std::vector<std::string> names_;
  std::map<std::string, PackageId, std::less<>> by_name_;
  std::vector<uint64_t> install_counts_;
  std::vector<std::vector<ApiId>> footprints_;  // until Finalize
  std::vector<std::vector<PackageId>> depends_;
  std::vector<double> install_probability_;

  // The dense index; see the file comment.
  std::vector<ApiId> apis_;
  std::array<uint32_t, kApiKindCount + 1> kind_begin_{};
  std::vector<uint32_t> footprint_begin_;  // per package, plus an end
  std::vector<uint32_t> footprint_ordinals_;
  std::vector<uint32_t> dependent_begin_;  // per ordinal, plus an end
  std::vector<PackageId> dependents_;
  std::vector<double> importance_;  // ApiImportance per ordinal
  std::vector<double> unweighted_;  // UnweightedImportance per ordinal
  std::vector<uint32_t> closure_begin_;  // per package, plus an end
  std::vector<PackageId> closures_;
};

}  // namespace lapis::core

#endif  // LAPIS_SRC_CORE_DATASET_H_
