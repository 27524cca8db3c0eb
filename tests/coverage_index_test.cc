// Differential oracle for StudyDataset's dense API index and the
// completeness passes built on it.
//
// The reference functions below are the set-based implementations the
// index replaced: they probe a std::set<ApiId> for every footprint entry,
// rescan every package's closure, and recompute importance products from
// the raw footprints. The indexed versions must agree with them bit for bit
// (doubles compared with memcmp) on hand-built datasets with a dependency
// cycle, empty footprints and APIs no footprint mentions, on seeded random
// datasets over every API kind, and on a small end-to-end study.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "src/core/api_id.h"
#include "src/core/completeness.h"
#include "src/core/dataset.h"
#include "src/corpus/study_runner.h"
#include "src/util/prng.h"

namespace lapis::core {
namespace {

// ---- Reference (set-based) implementations ----

// The dataset read once through its plain accessors (footprints, direct
// dependencies, install probabilities), with every metric recomputed from
// them the way the set-based code computed it.
class Reference {
 public:
  explicit Reference(const StudyDataset& dataset) {
    for (PackageId id = 0; id < dataset.package_count(); ++id) {
      footprints_.push_back(dataset.Footprint(id));
      depends_.push_back(dataset.DirectDependencies(id));
      probability_.push_back(dataset.InstallProbability(id));
    }
    for (PackageId id = 0; id < footprints_.size(); ++id) {
      closures_.push_back(BreadthFirstClosure(id));
    }
  }

  const std::vector<PackageId>& Closure(PackageId id) const {
    return closures_[id];
  }

  std::vector<bool> SupportedPackages(const std::set<ApiId>& supported,
                                      const CompletenessOptions& options) const {
    std::vector<bool> self_ok = SelfOk(supported, options);
    std::vector<bool> out(footprints_.size(), true);
    for (PackageId id = 0; id < footprints_.size(); ++id) {
      for (PackageId member : closures_[id]) {
        if (!self_ok[member]) {
          out[id] = false;
          break;
        }
      }
    }
    return out;
  }

  double WeightedCompleteness(const std::set<ApiId>& supported,
                              const CompletenessOptions& options) const {
    return CompletenessFromSelfOk(SelfOk(supported, options));
  }

  std::vector<PackageId> Dependents(ApiId api) const {
    std::vector<PackageId> out;
    for (PackageId id = 0; id < footprints_.size(); ++id) {
      if (std::binary_search(footprints_[id].begin(), footprints_[id].end(),
                             api)) {
        out.push_back(id);
      }
    }
    return out;
  }

  double Importance(ApiId api) const {
    double prob_none = 1.0;
    for (PackageId pkg : Dependents(api)) {
      prob_none *= 1.0 - probability_[pkg];
    }
    return 1.0 - prob_none;
  }

  double Unweighted(ApiId api) const {
    if (footprints_.empty()) {
      return 0.0;
    }
    return static_cast<double>(Dependents(api).size()) /
           static_cast<double>(footprints_.size());
  }

  // The greedy path as it was: every step re-derives every package's
  // self-support and re-sums the whole weight.
  std::vector<PathPoint> Walk(const std::vector<ApiId>& order,
                              const std::set<ApiKind>& kinds) const {
    std::vector<uint32_t> missing(footprints_.size(), 0);
    for (PackageId id = 0; id < footprints_.size(); ++id) {
      for (const ApiId& api : footprints_[id]) {
        if (kinds.contains(api.kind)) {
          ++missing[id];
        }
      }
    }
    std::vector<PathPoint> path;
    std::vector<bool> self_ok(footprints_.size());
    for (const ApiId& api : order) {
      for (PackageId pkg : Dependents(api)) {
        --missing[pkg];
      }
      for (PackageId id = 0; id < footprints_.size(); ++id) {
        self_ok[id] = missing[id] == 0;
      }
      path.push_back(PathPoint{api, Importance(api),
                               CompletenessFromSelfOk(self_ok)});
    }
    return path;
  }

 private:
  std::vector<PackageId> BreadthFirstClosure(PackageId id) const {
    std::vector<PackageId> closure;
    std::vector<bool> visited(footprints_.size());
    std::deque<PackageId> queue = {id};
    while (!queue.empty()) {
      PackageId current = queue.front();
      queue.pop_front();
      if (visited[current]) {
        continue;
      }
      visited[current] = true;
      closure.push_back(current);
      for (PackageId dep : depends_[current]) {
        if (!visited[dep]) {
          queue.push_back(dep);
        }
      }
    }
    return closure;
  }

  std::vector<bool> SelfOk(const std::set<ApiId>& supported,
                           const CompletenessOptions& options) const {
    std::vector<bool> self_ok(footprints_.size(), true);
    for (PackageId id = 0; id < footprints_.size(); ++id) {
      for (const ApiId& api : footprints_[id]) {
        const bool evaluated = options.evaluated_kinds.empty() ||
                               options.evaluated_kinds.contains(api.kind);
        if (evaluated && supported.find(api) == supported.end()) {
          self_ok[id] = false;
          break;
        }
      }
    }
    return self_ok;
  }

  double CompletenessFromSelfOk(const std::vector<bool>& self_ok) const {
    double supported_weight = 0.0;
    double total_weight = 0.0;
    for (PackageId id = 0; id < footprints_.size(); ++id) {
      double p = probability_[id];
      total_weight += p;
      bool ok = true;
      for (PackageId member : closures_[id]) {
        if (!self_ok[member]) {
          ok = false;
          break;
        }
      }
      if (ok) {
        supported_weight += p;
      }
    }
    if (total_weight == 0.0) {
      return 0.0;
    }
    return supported_weight / total_weight;
  }

  std::vector<std::vector<ApiId>> footprints_;
  std::vector<std::vector<PackageId>> depends_;
  std::vector<double> probability_;
  std::vector<std::vector<PackageId>> closures_;
};

// ---- Helpers ----

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

CompletenessOptions OptionsForMask(uint32_t mask) {
  CompletenessOptions options;
  for (int k = 0; k < kApiKindCount; ++k) {
    if ((mask & (1u << k)) != 0) {
      options.evaluated_kinds.insert(static_cast<ApiKind>(k));
    }
  }
  return options;
}

std::vector<uint8_t> OrdinalFlags(const StudyDataset& dataset,
                                  const std::set<ApiId>& supported) {
  std::vector<uint8_t> flags(dataset.Apis().size(), 0);
  for (uint32_t ordinal = 0; ordinal < flags.size(); ++ordinal) {
    flags[ordinal] = supported.contains(dataset.Apis()[ordinal]) ? 1 : 0;
  }
  return flags;
}

// APIs no footprint in any test dataset mentions.
const std::vector<ApiId>& AbsentApis() {
  static const std::vector<ApiId> absent = {
      SyscallApi(400), IoctlApi(0xdeadbeef), FcntlApi(99999),
      PrctlApi(77777), ApiId{ApiKind::kPseudoFile, 900000},
      ApiId{ApiKind::kLibcFn, 900000}};
  return absent;
}

// Every API the dataset indexes plus the absent ones.
std::vector<ApiId> Probes(const StudyDataset& dataset) {
  std::vector<ApiId> probes(dataset.Apis().begin(), dataset.Apis().end());
  probes.insert(probes.end(), AbsentApis().begin(), AbsentApis().end());
  return probes;
}

// A seeded supported set: each indexed API with probability `density`,
// plus a couple of absent ones.
std::set<ApiId> RandomSupported(const StudyDataset& dataset, Prng& prng,
                                double density) {
  std::set<ApiId> supported;
  for (const ApiId& api : dataset.Apis()) {
    if (prng.NextBool(density)) {
      supported.insert(api);
    }
  }
  for (const ApiId& api : AbsentApis()) {
    if (prng.NextBool(0.5)) {
      supported.insert(api);
    }
  }
  return supported;
}

// ---- Datasets ----

// Seven packages over 1,000 installations:
//   0 "base"   p=1.0   {read, write}
//   1 "cyc-a"  p=0.4   {read, ioctl 0x5401, /proc/self}, depends on cyc-b
//   2 "cyc-b"  p=0.3   {write, fcntl 1}, depends on cyc-a (a cycle)
//   3 "data"   p=0.9   {} (no programs), depends on base
//   4 "empty"  p=0.0   {}
//   5 "libc-u" p=0.25  {read, libc 3, prctl 15}, depends on data, cyc-a
//   6 "unused" p=0.0   {mmap}
std::unique_ptr<StudyDataset> HandBuilt() {
  auto ds = std::make_unique<StudyDataset>(7, 1000);
  const char* names[] = {"base",  "cyc-a",  "cyc-b", "data",
                         "empty", "libc-u", "unused"};
  const uint64_t installs[] = {1000, 400, 300, 900, 0, 250, 0};
  const ApiId proc_self{ApiKind::kPseudoFile, 4};
  const ApiId libc3{ApiKind::kLibcFn, 3};
  const std::vector<ApiId> footprints[] = {
      {SyscallApi(0), SyscallApi(1)},
      {SyscallApi(0), IoctlApi(0x5401), proc_self},
      {SyscallApi(1), FcntlApi(1)},
      {},
      {},
      {SyscallApi(0), libc3, PrctlApi(15)},
      {SyscallApi(9)}};
  const std::vector<PackageId> depends[] = {{}, {2}, {1}, {0}, {}, {3, 1}, {}};
  for (PackageId id = 0; id < 7; ++id) {
    EXPECT_TRUE(ds->SetPackageName(id, names[id]).ok());
    EXPECT_TRUE(ds->SetInstallCount(id, installs[id]).ok());
    EXPECT_TRUE(ds->SetFootprint(id, footprints[id]).ok());
    EXPECT_TRUE(ds->SetDependencies(id, depends[id]).ok());
  }
  EXPECT_TRUE(ds->Finalize().ok());
  return ds;
}

// `n` packages with footprints over every kind (codes drawn from small
// per-kind pools so APIs are shared), random dependency edges (cycles
// included), roughly one package in eight with no footprint, and install
// counts spanning zero to the whole survey.
std::unique_ptr<StudyDataset> RandomDataset(uint64_t seed, size_t n) {
  Prng prng(seed);
  const uint64_t total = 5000;
  auto ds = std::make_unique<StudyDataset>(n, total);
  for (PackageId id = 0; id < n; ++id) {
    EXPECT_TRUE(ds->SetPackageName(id, "pkg" + std::to_string(id)).ok());
    uint64_t count = prng.NextBool(0.1) ? total : prng.NextBelow(total + 1);
    EXPECT_TRUE(ds->SetInstallCount(id, count).ok());
    std::vector<ApiId> footprint;
    if (!prng.NextBool(0.125)) {
      size_t entries = 1 + prng.NextBelow(24);
      for (size_t i = 0; i < entries; ++i) {
        auto kind = static_cast<ApiKind>(prng.NextBelow(kApiKindCount));
        // Few codes per kind, skewed low, so popular APIs exist.
        uint32_t code = static_cast<uint32_t>(
            prng.NextBelow(1 + prng.NextBelow(40)));
        if (kind == ApiKind::kIoctlOp) {
          code = 0x5400 + code * 0x101;
        }
        footprint.push_back(ApiId{kind, code});
      }
    }
    EXPECT_TRUE(ds->SetFootprint(id, std::move(footprint)).ok());
    std::vector<PackageId> deps;
    size_t edges = prng.NextBelow(4);
    for (size_t i = 0; i < edges; ++i) {
      deps.push_back(static_cast<PackageId>(prng.NextBelow(n)));
    }
    EXPECT_TRUE(ds->SetDependencies(id, std::move(deps)).ok());
  }
  EXPECT_TRUE(ds->Finalize().ok());
  return ds;
}

const StudyDataset& SmallStudy() {
  static const corpus::StudyResult* study = [] {
    auto result = corpus::RunStudy(corpus::SmallStudyOptions());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return new corpus::StudyResult(result.take());
  }();
  return *study->dataset;
}

// ---- Checks ----

void ExpectIndexMatchesReference(const StudyDataset& dataset) {
  const Reference reference(dataset);
  // Ordinals: sorted, unique, exactly the footprint APIs, kind-major.
  std::set<ApiId> all;
  for (PackageId id = 0; id < dataset.package_count(); ++id) {
    const std::vector<ApiId> footprint = dataset.Footprint(id);
    all.insert(footprint.begin(), footprint.end());
  }
  ASSERT_TRUE(std::equal(all.begin(), all.end(), dataset.Apis().begin(),
                         dataset.Apis().end()));
  for (int k = 0; k < kApiKindCount; ++k) {
    auto kind = static_cast<ApiKind>(k);
    auto [first, last] = dataset.KindOrdinals(kind);
    std::vector<ApiId> of_kind;
    for (const ApiId& api : all) {
      if (api.kind == kind) {
        of_kind.push_back(api);
      }
    }
    EXPECT_EQ(dataset.ApisOfKind(kind), of_kind) << k;
    ASSERT_EQ(last - first, of_kind.size()) << k;
    for (uint32_t ordinal = first; ordinal < last; ++ordinal) {
      EXPECT_EQ(dataset.Apis()[ordinal].kind, kind);
      EXPECT_EQ(dataset.ApiOrdinal(dataset.Apis()[ordinal]), ordinal);
    }
  }
  for (const ApiId& api : Probes(dataset)) {
    const std::vector<PackageId> expected = reference.Dependents(api);
    auto dependents = dataset.Dependents(api);
    EXPECT_TRUE(std::equal(dependents.begin(), dependents.end(),
                           expected.begin(), expected.end()))
        << ApiKindName(api.kind) << ':' << api.code;
    EXPECT_TRUE(SameBits(dataset.ApiImportance(api),
                         reference.Importance(api)))
        << ApiKindName(api.kind) << ':' << api.code;
    EXPECT_TRUE(SameBits(dataset.UnweightedImportance(api),
                         reference.Unweighted(api)))
        << ApiKindName(api.kind) << ':' << api.code;
  }
  for (const ApiId& api : AbsentApis()) {
    EXPECT_EQ(dataset.ApiOrdinal(api), kNoApiOrdinal);
  }
  for (PackageId id = 0; id < dataset.package_count(); ++id) {
    const std::vector<PackageId>& expected = reference.Closure(id);
    auto closure = dataset.DependencyClosure(id);
    EXPECT_TRUE(std::equal(closure.begin(), closure.end(), expected.begin(),
                           expected.end()))
        << id;
  }
}

// Every kind mask over `rounds` seeded supported sets of mixed density.
void ExpectCompletenessMatchesReference(const StudyDataset& dataset,
                                        uint64_t seed, int rounds) {
  const Reference reference(dataset);
  Prng prng(seed);
  const double densities[] = {0.0, 0.3, 0.7, 0.95, 1.0};
  for (int round = 0; round < rounds; ++round) {
    const std::set<ApiId> supported =
        RandomSupported(dataset, prng, densities[round % 5]);
    const std::vector<uint8_t> flags = OrdinalFlags(dataset, supported);
    for (uint32_t mask = 0; mask < (1u << kApiKindCount); ++mask) {
      const CompletenessOptions options = OptionsForMask(mask);
      const double expected =
          reference.WeightedCompleteness(supported, options);
      const std::vector<bool> expected_flags =
          reference.SupportedPackages(supported, options);
      const uint32_t expected_count = static_cast<uint32_t>(
          std::count(expected_flags.begin(), expected_flags.end(), true));

      EXPECT_TRUE(SameBits(WeightedCompleteness(dataset, supported, options),
                           expected))
          << "round " << round << " mask " << mask;
      EXPECT_EQ(SupportedPackages(dataset, supported, options),
                expected_flags)
          << "round " << round << " mask " << mask;

      std::vector<bool> dense_flags;
      SupportSummary dense =
          EvaluateSupport(dataset, flags, mask, &dense_flags);
      EXPECT_TRUE(SameBits(dense.weighted_completeness, expected))
          << "round " << round << " mask " << mask;
      EXPECT_EQ(dense.supported_packages, expected_count);
      EXPECT_EQ(dense_flags, expected_flags);
      // Bits above the kinds are ignored, as the wire mask's are.
      SupportSummary high = EvaluateSupport(dataset, flags, mask | 0xc0);
      EXPECT_TRUE(SameBits(high.weighted_completeness, expected));
    }
  }
}

void ExpectPathsMatchReference(const StudyDataset& dataset) {
  const Reference reference(dataset);
  auto same = [](const std::vector<PathPoint>& got,
                 const std::vector<PathPoint>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].api, want[i].api) << i;
      EXPECT_TRUE(SameBits(got[i].importance, want[i].importance)) << i;
      EXPECT_TRUE(SameBits(got[i].weighted_completeness,
                           want[i].weighted_completeness))
          << i;
    }
  };
  const std::vector<ApiId> universe = {SyscallApi(400), SyscallApi(401),
                                       SyscallApi(0)};
  for (int k = 0; k < kApiKindCount; ++k) {
    auto kind = static_cast<ApiKind>(k);
    same(GreedyCompletenessPath(dataset, kind, universe),
         reference.Walk(dataset.RankByImportance(kind, universe), {kind}));
  }
  const std::set<ApiKind> combined = {ApiKind::kSyscall, ApiKind::kIoctlOp,
                                      ApiKind::kPseudoFile};
  std::vector<PathPoint> path =
      GreedyCompletenessPathMultiKind(dataset, combined, universe);
  std::vector<ApiId> order;
  for (const PathPoint& point : path) {
    order.push_back(point.api);
  }
  same(path, reference.Walk(order, combined));
}

// ---- Tests ----

TEST(CoverageIndex, HandBuiltIndexMatchesReference) {
  auto ds = HandBuilt();
  ASSERT_EQ(ds->Apis().size(), 8u);
  // The cycle: each side's closure holds both.
  EXPECT_EQ(ds->DependencyClosure(1).size(), 2u);
  EXPECT_EQ(ds->DependencyClosure(2).size(), 2u);
  ExpectIndexMatchesReference(*ds);
}

TEST(CoverageIndex, HandBuiltCompletenessMatchesReference) {
  auto ds = HandBuilt();
  ExpectCompletenessMatchesReference(*ds, 1, 10);
  // Supporting only ioctl 0x5401 under an ioctl-only mask: no other kind
  // is evaluated, so every package works.
  std::vector<uint8_t> flags(ds->Apis().size(), 0);
  flags[ds->ApiOrdinal(IoctlApi(0x5401))] = 1;
  const uint32_t ioctl_only = 1u << static_cast<uint32_t>(ApiKind::kIoctlOp);
  EXPECT_EQ(EvaluateSupport(*ds, flags, ioctl_only).supported_packages, 7u);
  // Unsupported fcntl 1 poisons cyc-b, then cyc-a through the cycle, then
  // libc-u through cyc-a.
  const uint32_t fcntl_only = 1u << static_cast<uint32_t>(ApiKind::kFcntlOp);
  std::vector<bool> supported;
  EvaluateSupport(*ds, flags, fcntl_only, &supported);
  EXPECT_EQ(supported, (std::vector<bool>{true, false, false, true, true,
                                          false, true}));
}

TEST(CoverageIndex, HandBuiltPathsMatchReference) {
  auto ds = HandBuilt();
  ExpectPathsMatchReference(*ds);
}

TEST(CoverageIndex, EmptyDataset) {
  StudyDataset ds(0, 0);
  ASSERT_TRUE(ds.Finalize().ok());
  EXPECT_TRUE(ds.Apis().empty());
  EXPECT_EQ(ds.ApiOrdinal(SyscallApi(0)), kNoApiOrdinal);
  EXPECT_TRUE(ds.Dependents(SyscallApi(0)).empty());
  EXPECT_EQ(ds.ApiImportance(SyscallApi(0)), 0.0);
  EXPECT_EQ(ds.UnweightedImportance(SyscallApi(0)), 0.0);
  SupportSummary summary = EvaluateSupport(ds, {}, 0);
  EXPECT_EQ(summary.weighted_completeness, 0.0);
  EXPECT_EQ(summary.supported_packages, 0u);
  EXPECT_TRUE(GreedyCompletenessPath(ds, ApiKind::kSyscall).empty());
}

TEST(CoverageIndex, RandomDatasetsMatchReference) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(seed);
    auto ds = RandomDataset(seed, 160);
    ExpectIndexMatchesReference(*ds);
    ExpectCompletenessMatchesReference(*ds, seed * 31, 10);
    ExpectPathsMatchReference(*ds);
  }
}

TEST(CoverageIndex, SmallStudyMatchesReference) {
  const StudyDataset& dataset = SmallStudy();
  ExpectIndexMatchesReference(dataset);
  ExpectCompletenessMatchesReference(dataset, 5, 5);
}

}  // namespace
}  // namespace lapis::core
