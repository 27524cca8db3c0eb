// Weighted completeness (paper §2.2, §A.2) and the greedy implementation
// path (§3.2, Fig 3, Table 4).
//
// A package is supported iff its footprint (restricted to the evaluated API
// kinds) is contained in the supported set AND every package in its APT
// dependency closure is supported ("if a supported package depends on an
// unsupported package, both are marked unsupported").

#ifndef LAPIS_SRC_CORE_COMPLETENESS_H_
#define LAPIS_SRC_CORE_COMPLETENESS_H_

#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "src/core/dataset.h"

namespace lapis::core {

struct CompletenessOptions {
  // API kinds the target system is evaluated on; footprint entries of other
  // kinds are assumed supported. Empty means "all kinds evaluated".
  std::set<ApiKind> evaluated_kinds;
};

// WeightedCompleteness and the supported-package count from one pass over
// the dataset's dense index. `supported` holds one flag per API ordinal
// (StudyDataset::ApiOrdinal; nonzero = supported). `kinds_mask` has bit k
// set for each evaluated ApiKind k; bits at or above kApiKindCount are
// ignored, and a mask with no bit below it evaluates every kind. `flags`,
// when given, receives the SupportedPackages vector.
struct SupportSummary {
  double weighted_completeness = 0.0;
  uint32_t supported_packages = 0;
};
SupportSummary EvaluateSupport(const StudyDataset& dataset,
                               std::span<const uint8_t> supported,
                               uint32_t kinds_mask,
                               std::vector<bool>* flags = nullptr);

// Expected fraction of an installation's packages that work on a system
// supporting exactly `supported` (§A.2 approximation).
double WeightedCompleteness(const StudyDataset& dataset,
                            const std::set<ApiId>& supported,
                            const CompletenessOptions& options = {});

// Per-package support vector (before weighting); exposed for tests and the
// system-evaluation report.
std::vector<bool> SupportedPackages(const StudyDataset& dataset,
                                    const std::set<ApiId>& supported,
                                    const CompletenessOptions& options = {});

// One point on the greedy path: after adding `api` (the N-th most important),
// the cumulative weighted completeness.
struct PathPoint {
  ApiId api;
  double importance = 0.0;
  double weighted_completeness = 0.0;
};

// Implements §3.2: rank APIs of `kind` by importance, add them one at a
// time, record cumulative weighted completeness. `universe` adds
// zero-importance APIs (they land at the tail). Runs incrementally over
// per-package missing counters; completeness is re-summed (O(packages +
// closure entries)) only at steps where some package's last missing API
// was added.
std::vector<PathPoint> GreedyCompletenessPath(
    const StudyDataset& dataset, ApiKind kind,
    const std::vector<ApiId>& universe = {});

// The paper's §3.2 note: "one can construct a similar path including other
// APIs, such as vectored system calls, pseudo-files and library APIs".
// Ranks every API of the given kinds in one merged importance order and
// walks the combined path. Packages must have ALL their APIs of these
// kinds supported to count.
std::vector<PathPoint> GreedyCompletenessPathMultiKind(
    const StudyDataset& dataset, const std::set<ApiKind>& kinds,
    const std::vector<ApiId>& universe = {});

// Table 4 stage decomposition: slice the greedy path at completeness
// thresholds (default: 1%, 10%, 50%, 90%, 100%). `baseline` is added to
// each threshold — pass the path's starting completeness so packages with
// no programs at all (always "supported") don't trivially satisfy the
// first stage.
struct Stage {
  double threshold = 0.0;
  size_t cumulative_apis = 0;         // N needed to reach the threshold
  double weighted_completeness = 0.0; // value actually reached at that N
};
std::vector<Stage> DecomposeStages(
    const std::vector<PathPoint>& path,
    const std::vector<double>& thresholds = {0.01, 0.10, 0.50, 0.90, 1.00},
    double baseline = 0.0);

// The most important APIs of `kind` missing from `supported` (the paper's
// "suggested APIs to add", Table 6).
std::vector<ApiId> SuggestNextApis(const StudyDataset& dataset,
                                   const std::set<ApiId>& supported,
                                   ApiKind kind, size_t count);

}  // namespace lapis::core

#endif  // LAPIS_SRC_CORE_COMPLETENESS_H_
