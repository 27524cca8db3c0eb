// The tentpole determinism guarantee: every study export is byte-identical
// at --jobs=1, 2, and 8, across seeds. Scheduling may differ; output from
// the ParallelMap + FoldInOrder reduction layer must not.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/cache/footprint_cache.h"
#include "src/core/report.h"
#include "src/corpus/binary_synth.h"
#include "src/corpus/study_runner.h"
#include "src/package/popcon.h"
#include "src/runtime/executor.h"

namespace lapis {
namespace {

struct Exports {
  std::string importance;
  std::string packages;
  std::string footprints;
  size_t analyzed_binaries = 0;
  size_t ground_truth_mismatches = 0;
  size_t jobs_used = 0;
  size_t analyses_from_cache = 0;
};

Exports RunAndExport(uint64_t seed, size_t jobs, bool use_dataflow = true,
                     cache::FootprintCache* cache = nullptr,
                     bool use_ipa = false, uint32_t profile_count = 0) {
  corpus::StudyOptions options = corpus::SmallStudyOptions();
  options.distro.seed = seed;
  options.popcon_profile_count = profile_count;
  options.jobs = jobs;
  options.analyzer.use_dataflow = use_dataflow;
  options.analyzer.use_ipa = use_ipa;
  options.cache = cache;
  auto study = corpus::RunStudy(options);
  EXPECT_TRUE(study.ok()) << study.status().ToString();
  Exports out;
  const auto& result = study.value();
  out.analyzed_binaries = result.analyzed_binaries;
  out.ground_truth_mismatches = result.ground_truth_mismatches;
  out.jobs_used = result.jobs_used;
  out.analyses_from_cache = result.analyses_from_cache;

  std::ostringstream importance;
  EXPECT_TRUE(core::ExportImportanceTsv(
                  *result.dataset,
                  {core::ApiKind::kSyscall, core::ApiKind::kIoctlOp,
                   core::ApiKind::kFcntlOp, core::ApiKind::kPrctlOp,
                   core::ApiKind::kPseudoFile, core::ApiKind::kLibcFn},
                  result.path_interner, result.libc_interner, importance)
                  .ok());
  out.importance = importance.str();

  std::ostringstream packages;
  EXPECT_TRUE(core::ExportPackagesTsv(*result.dataset, packages).ok());
  out.packages = packages.str();

  std::ostringstream footprints;
  EXPECT_TRUE(core::ExportFootprintsTsv(*result.dataset,
                                        result.path_interner,
                                        result.libc_interner, footprints)
                  .ok());
  out.footprints = footprints.str();
  return out;
}

class RuntimeDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RuntimeDeterminismTest, ExportsAreByteIdenticalAcrossJobCounts) {
  const uint64_t seed = GetParam();
  Exports sequential = RunAndExport(seed, 1);
  ASSERT_EQ(sequential.jobs_used, 1u);
  ASSERT_FALSE(sequential.importance.empty());
  ASSERT_FALSE(sequential.packages.empty());
  ASSERT_FALSE(sequential.footprints.empty());
  EXPECT_EQ(sequential.ground_truth_mismatches, 0u);

  for (size_t jobs : {size_t{2}, size_t{8}}) {
    Exports parallel = RunAndExport(seed, jobs);
    EXPECT_EQ(parallel.jobs_used, jobs);
    EXPECT_EQ(parallel.analyzed_binaries, sequential.analyzed_binaries);
    EXPECT_EQ(parallel.ground_truth_mismatches,
              sequential.ground_truth_mismatches);
    // Byte-for-byte: any scheduling leak (iteration order, interner ids,
    // counter drift) shows up here.
    EXPECT_EQ(parallel.importance, sequential.importance)
        << "api_importance.tsv differs at jobs=" << jobs;
    EXPECT_EQ(parallel.packages, sequential.packages)
        << "packages.tsv differs at jobs=" << jobs;
    EXPECT_EQ(parallel.footprints, sequential.footprints)
        << "footprints.tsv differs at jobs=" << jobs;
  }
}

INSTANTIATE_TEST_SUITE_P(TwoSeeds, RuntimeDeterminismTest,
                         ::testing::Values(uint64_t{20160418},
                                           uint64_t{424242}));

// The linear-ablation pipeline must hold the same guarantee: byte-identical
// exports at every worker count (the ablation switch changes what is
// recovered, not whether recovery is deterministic).
TEST(RuntimeDeterminism, LinearModeExportsAreByteIdenticalAcrossJobCounts) {
  const uint64_t seed = 20160418;
  Exports sequential = RunAndExport(seed, 1, /*use_dataflow=*/false);
  ASSERT_FALSE(sequential.footprints.empty());
  EXPECT_EQ(sequential.ground_truth_mismatches, 0u);
  Exports parallel = RunAndExport(seed, 8, /*use_dataflow=*/false);
  EXPECT_EQ(parallel.analyzed_binaries, sequential.analyzed_binaries);
  EXPECT_EQ(parallel.importance, sequential.importance);
  EXPECT_EQ(parallel.packages, sequential.packages);
  EXPECT_EQ(parallel.footprints, sequential.footprints);
}

// And the interprocedural tier: summary emission is callees-first over the
// SCC condensation, never scheduling order, so exports stay byte-identical
// at every worker count.
TEST(RuntimeDeterminism, IpaModeExportsAreByteIdenticalAcrossJobCounts) {
  const uint64_t seed = 20160418;
  Exports sequential = RunAndExport(seed, 1, /*use_dataflow=*/true,
                                    /*cache=*/nullptr, /*use_ipa=*/true);
  ASSERT_FALSE(sequential.footprints.empty());
  EXPECT_EQ(sequential.ground_truth_mismatches, 0u);
  Exports parallel = RunAndExport(seed, 8, /*use_dataflow=*/true,
                                  /*cache=*/nullptr, /*use_ipa=*/true);
  EXPECT_EQ(parallel.analyzed_binaries, sequential.analyzed_binaries);
  EXPECT_EQ(parallel.importance, sequential.importance);
  EXPECT_EQ(parallel.packages, sequential.packages);
  EXPECT_EQ(parallel.footprints, sequential.footprints);
}

// Install profiles reshape the survey per installation; the profile-aware
// sampler keeps exports byte-identical at every worker count.
TEST(RuntimeDeterminism, ProfiledSurveyExportsAreByteIdenticalAcrossJobCounts) {
  const uint64_t seed = 20160418;
  Exports sequential = RunAndExport(seed, 1, /*use_dataflow=*/true,
                                    /*cache=*/nullptr, /*use_ipa=*/false,
                                    /*profile_count=*/3);
  ASSERT_FALSE(sequential.packages.empty());
  Exports unprofiled = RunAndExport(seed, 1);
  EXPECT_NE(sequential.packages, unprofiled.packages);
  for (size_t jobs : {size_t{2}, size_t{8}}) {
    Exports parallel = RunAndExport(seed, jobs, /*use_dataflow=*/true,
                                    /*cache=*/nullptr, /*use_ipa=*/false,
                                    /*profile_count=*/3);
    EXPECT_EQ(parallel.importance, sequential.importance) << jobs;
    EXPECT_EQ(parallel.packages, sequential.packages) << jobs;
    EXPECT_EQ(parallel.footprints, sequential.footprints) << jobs;
  }
}

// The popcon survey itself, with and without profiles: no executor and
// executors of 1, 2, 4 and 8 threads give the same counts, reporting total
// and retained samples in the same order.
TEST(RuntimeDeterminism, PopconSurveyIsIdenticalAcrossExecutors) {
  corpus::StudyOptions study = corpus::SmallStudyOptions();
  auto spec = corpus::BuildDistroSpec(study.distro);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  corpus::DistroSynthesizer synthesizer(spec.value());
  auto repo = synthesizer.BuildRepository();
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  const std::vector<double> marginals = corpus::SurveyMarginals(spec.value());
  for (uint32_t profiles : {0u, 3u}) {
    package::PopconOptions options;
    options.installation_count = 20000;  // several blocks and waves
    options.report_rate = 0.9;
    options.retain_samples = 5000;
    options.profile_count = profiles;
    auto reference = package::PopconSimulator::Run(repo.value(), marginals,
                                                   options);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_EQ(reference.value().samples.size(), options.retain_samples);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      runtime::Executor executor(threads);
      auto survey = package::PopconSimulator::Run(repo.value(), marginals,
                                                  options, &executor);
      ASSERT_TRUE(survey.ok()) << survey.status().ToString();
      EXPECT_EQ(survey.value().install_counts,
                reference.value().install_counts)
          << "profiles=" << profiles << " threads=" << threads;
      EXPECT_EQ(survey.value().total_reporting,
                reference.value().total_reporting)
          << "profiles=" << profiles << " threads=" << threads;
      ASSERT_EQ(survey.value().samples.size(),
                reference.value().samples.size());
      for (size_t i = 0; i < survey.value().samples.size(); ++i) {
        ASSERT_EQ(survey.value().samples[i].words(),
                  reference.value().samples[i].words())
            << "profiles=" << profiles << " threads=" << threads
            << " sample=" << i;
      }
    }
  }
}

// The incremental cache must not pierce the determinism guarantee: for each
// seed, cold cache × warm cache × jobs ∈ {1, 8} all export byte-identical
// TSVs. A warm run replays decoded payloads through the same canonical-order
// folds, so neither cache state nor scheduling may leak into the output.
class CacheDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheDeterminismTest, ColdAndWarmExportsAreByteIdentical) {
  const uint64_t seed = GetParam();
  Exports reference = RunAndExport(seed, 1);  // no cache at all

  auto cache = cache::FootprintCache::Open("");
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  struct Config {
    const char* label;
    size_t jobs;
  };
  // First iteration populates the cache (cold); later ones run warm.
  for (const Config& config : {Config{"cold jobs=1", 1},
                               Config{"warm jobs=1", 1},
                               Config{"warm jobs=8", 8}}) {
    Exports run = RunAndExport(seed, config.jobs, /*use_dataflow=*/true,
                               cache.value().get());
    EXPECT_EQ(run.jobs_used, config.jobs) << config.label;
    EXPECT_EQ(run.analyzed_binaries, reference.analyzed_binaries)
        << config.label;
    EXPECT_EQ(run.importance, reference.importance)
        << "api_importance.tsv differs: " << config.label;
    EXPECT_EQ(run.packages, reference.packages)
        << "packages.tsv differs: " << config.label;
    EXPECT_EQ(run.footprints, reference.footprints)
        << "footprints.tsv differs: " << config.label;
  }
  // The last (warm, parallel) run must actually have exercised the cache.
  Exports warm = RunAndExport(seed, 8, /*use_dataflow=*/true,
                              cache.value().get());
  EXPECT_EQ(warm.analyses_from_cache, warm.analyzed_binaries);
  EXPECT_EQ(warm.footprints, reference.footprints);
}

INSTANTIATE_TEST_SUITE_P(TwoSeeds, CacheDeterminismTest,
                         ::testing::Values(uint64_t{20160418},
                                           uint64_t{424242}));

// Audit counters are folded in canonical order; the report must be
// identical at any worker count.
TEST(RuntimeDeterminism, AuditReportIsIdenticalAcrossJobCounts) {
  corpus::StudyOptions options = corpus::SmallStudyOptions();
  options.audit = true;
  options.jobs = 1;
  auto sequential = corpus::RunStudy(options);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  ASSERT_TRUE(sequential.value().audit.has_value());

  options.jobs = 8;
  auto parallel = corpus::RunStudy(options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_TRUE(parallel.value().audit.has_value());

  const auto& a = *sequential.value().audit;
  const auto& b = *parallel.value().audit;
  EXPECT_EQ(a.executables_audited, b.executables_audited);
  EXPECT_EQ(a.soundness_violations, b.soundness_violations);
  EXPECT_EQ(a.masked_by_unknown_sites, b.masked_by_unknown_sites);
  EXPECT_EQ(a.static_only_apis, b.static_only_apis);
  EXPECT_EQ(a.observed_apis, b.observed_apis);
  EXPECT_EQ(a.Summary(), b.Summary());
}

}  // namespace
}  // namespace lapis
