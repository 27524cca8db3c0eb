// Repository / dependency-closure / popcon-simulation tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/corpus/binary_synth.h"
#include "src/corpus/distro_spec.h"
#include "src/corpus/study_runner.h"
#include "src/package/popcon.h"
#include "src/package/repository.h"

namespace lapis::package {
namespace {

// The original sampler, kept as an oracle: one sequential stream, one
// Bernoulli draw per package per installation, skipping packages an earlier
// pick's closure already installed. O(installations x packages).
PopconSurvey ReferenceSurvey(const Repository& repository,
                             const std::vector<double>& target_marginals,
                             const PopconOptions& options) {
  const size_t n = repository.size();
  std::vector<std::vector<PackageId>> closures(n);
  for (PackageId id = 0; id < n; ++id) {
    closures[id] = repository.DependencyClosure(id);
  }
  const uint32_t profiles = options.profile_count;
  double boost = options.profile_boost;
  if (profiles > 1 && boost > static_cast<double>(profiles)) {
    boost = static_cast<double>(profiles);
  }
  const double dampen =
      profiles > 1 ? (static_cast<double>(profiles) - boost) /
                         (static_cast<double>(profiles) - 1.0)
                   : 1.0;
  PopconSurvey survey;
  survey.install_counts.assign(n, 0);
  Prng prng(options.seed);
  std::vector<uint8_t> installed(n, 0);
  for (uint64_t inst = 0; inst < options.installation_count; ++inst) {
    std::fill(installed.begin(), installed.end(), 0);
    uint32_t profile =
        profiles > 1 ? static_cast<uint32_t>(prng.NextBelow(profiles)) : 0;
    for (PackageId id = 0; id < n; ++id) {
      double marginal = target_marginals[id];
      if (profiles > 1 && marginal <= 0.5) {
        marginal = std::min(
            1.0, marginal * (id % profiles == profile ? boost : dampen));
      }
      if (installed[id] == 0 && prng.NextBool(marginal)) {
        for (PackageId member : closures[id]) {
          installed[member] = 1;
        }
      }
    }
    if (!prng.NextBool(options.report_rate)) {
      continue;
    }
    ++survey.total_reporting;
    for (PackageId id = 0; id < n; ++id) {
      if (installed[id] != 0) {
        ++survey.install_counts[id];
      }
    }
  }
  return survey;
}

// Two-sample z statistics of per-package install probabilities, over the
// packages whose pooled probability lies strictly inside (0, 1).
struct Agreement {
  double chi2_per_df = 0.0;
  double max_abs_z = 0.0;
  size_t df = 0;
};

Agreement CompareSurveys(const PopconSurvey& a, const PopconSurvey& b) {
  Agreement out;
  double chi2 = 0.0;
  const double na = static_cast<double>(a.total_reporting);
  const double nb = static_cast<double>(b.total_reporting);
  for (size_t id = 0; id < a.install_counts.size(); ++id) {
    const double ca = static_cast<double>(a.install_counts[id]);
    const double cb = static_cast<double>(b.install_counts[id]);
    const double pooled = (ca + cb) / (na + nb);
    if (pooled <= 0.0 || pooled >= 1.0) {
      continue;
    }
    const double z = (ca / na - cb / nb) /
                     std::sqrt(pooled * (1.0 - pooled) * (1.0 / na + 1.0 / nb));
    chi2 += z * z;
    out.max_abs_z = std::max(out.max_abs_z, std::abs(z));
    ++out.df;
  }
  out.chi2_per_df = out.df == 0 ? 0.0 : chi2 / static_cast<double>(out.df);
  return out;
}

Repository ChainRepo() {
  // libc <- libfoo <- app ; standalone "other".
  Repository repo;
  Package libc;
  libc.name = "libc";
  EXPECT_EQ(repo.AddPackage(libc).value(), 0u);
  Package libfoo;
  libfoo.name = "libfoo";
  libfoo.depends = {0};
  EXPECT_EQ(repo.AddPackage(libfoo).value(), 1u);
  Package app;
  app.name = "app";
  app.depends = {1};
  EXPECT_EQ(repo.AddPackage(app).value(), 2u);
  Package other;
  other.name = "other";
  EXPECT_EQ(repo.AddPackage(other).value(), 3u);
  return repo;
}

TEST(Repository, AddAndFind) {
  Repository repo = ChainRepo();
  EXPECT_EQ(repo.size(), 4u);
  EXPECT_EQ(repo.FindByName("app"), 2u);
  EXPECT_EQ(repo.FindByName("nope"), kInvalidPackage);
}

TEST(Repository, RejectsDuplicatesAndBadDeps) {
  Repository repo;
  Package a;
  a.name = "a";
  ASSERT_TRUE(repo.AddPackage(a).ok());
  Package dup;
  dup.name = "a";
  EXPECT_EQ(repo.AddPackage(dup).status().code(),
            StatusCode::kFailedPrecondition);
  Package forward;
  forward.name = "b";
  forward.depends = {7};  // not yet added
  EXPECT_EQ(repo.AddPackage(forward).status().code(),
            StatusCode::kInvalidArgument);
  Package anonymous;
  EXPECT_EQ(repo.AddPackage(anonymous).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Repository, DependencyClosure) {
  Repository repo = ChainRepo();
  auto closure = repo.DependencyClosure(2);
  EXPECT_EQ(std::set<PackageId>(closure.begin(), closure.end()),
            (std::set<PackageId>{0, 1, 2}));
  EXPECT_EQ(repo.DependencyClosure(3).size(), 1u);
}

TEST(Repository, ReverseDependencyClosure) {
  Repository repo = ChainRepo();
  auto rdeps = repo.ReverseDependencyClosure(0);
  EXPECT_EQ(std::set<PackageId>(rdeps.begin(), rdeps.end()),
            (std::set<PackageId>{0, 1, 2}));
}

TEST(Repository, InterpreterActsAsDependency) {
  Repository repo;
  Package python;
  python.name = "python";
  ASSERT_TRUE(repo.AddPackage(python).ok());
  Package script;
  script.name = "myscript";
  script.kind = ProgramKind::kPython;
  script.interpreter = 0;
  ASSERT_TRUE(repo.AddPackage(script).ok());
  auto closure = repo.DependencyClosure(1);
  EXPECT_EQ(std::set<PackageId>(closure.begin(), closure.end()),
            (std::set<PackageId>{0, 1}));
}

TEST(Repository, CountBinaries) {
  Repository repo;
  Package p;
  p.name = "p";
  p.executables = {"a", "b"};
  p.shared_libraries = {"libp.so"};
  ASSERT_TRUE(repo.AddPackage(p).ok());
  EXPECT_EQ(repo.CountBinaries(), 3u);
}

TEST(InstallationSet, BitOperations) {
  InstallationSet set(130);
  EXPECT_FALSE(set.Contains(0));
  set.Add(0);
  set.Add(64);
  set.Add(129);
  EXPECT_TRUE(set.Contains(0));
  EXPECT_TRUE(set.Contains(64));
  EXPECT_TRUE(set.Contains(129));
  EXPECT_FALSE(set.Contains(1));
  EXPECT_EQ(set.CountInstalled(), 3u);
}

TEST(Popcon, MarginalsApproximateTargets) {
  Repository repo;
  for (int i = 0; i < 4; ++i) {
    Package p;
    p.name = "p" + std::to_string(i);
    ASSERT_TRUE(repo.AddPackage(p).ok());
  }
  std::vector<double> marginals = {1.0, 0.5, 0.1, 0.0};
  PopconOptions options;
  options.installation_count = 40000;
  auto survey = PopconSimulator::Run(repo, marginals, options);
  ASSERT_TRUE(survey.ok());
  EXPECT_EQ(survey.value().total_reporting, 40000u);
  EXPECT_NEAR(survey.value().InstallProbability(0), 1.0, 1e-9);
  EXPECT_NEAR(survey.value().InstallProbability(1), 0.5, 0.02);
  EXPECT_NEAR(survey.value().InstallProbability(2), 0.1, 0.01);
  EXPECT_EQ(survey.value().install_counts[3], 0u);
}

TEST(Popcon, DependencyPullInflatesMarginal) {
  // dep has direct marginal 0, but app (0.5) always pulls it.
  Repository repo;
  Package dep;
  dep.name = "dep";
  ASSERT_TRUE(repo.AddPackage(dep).ok());
  Package app;
  app.name = "app";
  app.depends = {0};
  ASSERT_TRUE(repo.AddPackage(app).ok());
  PopconOptions options;
  options.installation_count = 20000;
  auto survey = PopconSimulator::Run(repo, {0.0, 0.5}, options);
  ASSERT_TRUE(survey.ok());
  EXPECT_NEAR(survey.value().InstallProbability(0),
              survey.value().InstallProbability(1), 1e-9);
}

TEST(Popcon, ReportRateSubsamples) {
  Repository repo;
  Package p;
  p.name = "p";
  ASSERT_TRUE(repo.AddPackage(p).ok());
  PopconOptions options;
  options.installation_count = 10000;
  options.report_rate = 0.5;
  auto survey = PopconSimulator::Run(repo, {1.0}, options);
  ASSERT_TRUE(survey.ok());
  EXPECT_NEAR(static_cast<double>(survey.value().total_reporting), 5000.0,
              200.0);
  // Probabilities stay calibrated because both counts shrink together.
  EXPECT_NEAR(survey.value().InstallProbability(0), 1.0, 1e-9);
}

TEST(Popcon, RetainedSamplesMatchCounts) {
  Repository repo;
  for (int i = 0; i < 3; ++i) {
    Package p;
    p.name = "p" + std::to_string(i);
    ASSERT_TRUE(repo.AddPackage(p).ok());
  }
  PopconOptions options;
  options.installation_count = 3000;
  options.retain_samples = 3000;
  auto survey = PopconSimulator::Run(repo, {1.0, 0.3, 0.05}, options);
  ASSERT_TRUE(survey.ok());
  ASSERT_EQ(survey.value().samples.size(), survey.value().total_reporting);
  // Recount installs from the samples; must equal the marginal counts.
  std::vector<uint64_t> recount(3, 0);
  for (const auto& sample : survey.value().samples) {
    for (PackageId id = 0; id < 3; ++id) {
      if (sample.Contains(id)) {
        ++recount[id];
      }
    }
  }
  EXPECT_EQ(recount, survey.value().install_counts);
}

TEST(Popcon, ProfilesPreserveMarginals) {
  Repository repo;
  for (int i = 0; i < 6; ++i) {
    Package p;
    p.name = "p" + std::to_string(i);
    ASSERT_TRUE(repo.AddPackage(p).ok());
  }
  std::vector<double> marginals = {0.2, 0.2, 0.2, 0.05, 0.05, 0.9};
  PopconOptions options;
  options.installation_count = 60000;
  options.profile_count = 3;
  options.profile_boost = 3.0;
  auto survey = PopconSimulator::Run(repo, marginals, options);
  ASSERT_TRUE(survey.ok());
  // Profiled packages keep their average marginal; the >0.5 package is
  // exempted from profiling entirely.
  for (PackageId id = 0; id < 6; ++id) {
    EXPECT_NEAR(survey.value().InstallProbability(id), marginals[id], 0.02)
        << id;
  }
}

TEST(Popcon, ProfilesInduceSameProfileCorrelation) {
  Repository repo;
  for (int i = 0; i < 6; ++i) {
    Package p;
    p.name = "p" + std::to_string(i);
    ASSERT_TRUE(repo.AddPackage(p).ok());
  }
  // Packages 0 and 3 share profile (id % 3 == 0); 0 and 1 do not.
  std::vector<double> marginals(6, 0.2);
  PopconOptions options;
  options.installation_count = 40000;
  options.retain_samples = 40000;
  options.profile_count = 3;
  options.profile_boost = 3.0;
  auto survey = PopconSimulator::Run(repo, marginals, options).take();
  auto joint = [&](PackageId a, PackageId b) {
    size_t both = 0;
    for (const auto& sample : survey.samples) {
      both += sample.Contains(a) && sample.Contains(b) ? 1 : 0;
    }
    return static_cast<double>(both) /
           static_cast<double>(survey.samples.size());
  };
  double same_profile = joint(0, 3);
  double cross_profile = joint(0, 1);
  double independent = survey.InstallProbability(0) *
                       survey.InstallProbability(3);
  EXPECT_GT(same_profile, independent * 1.5);  // strong positive corr.
  EXPECT_LT(cross_profile, independent * 1.2);
}

TEST(Popcon, Deterministic) {
  Repository repo;
  Package p;
  p.name = "p";
  ASSERT_TRUE(repo.AddPackage(p).ok());
  PopconOptions options;
  options.installation_count = 1000;
  auto a = PopconSimulator::Run(repo, {0.37}, options);
  auto b = PopconSimulator::Run(repo, {0.37}, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().install_counts, b.value().install_counts);
}

TEST(Popcon, ValidatesInputs) {
  Repository repo;
  Package p;
  p.name = "p";
  ASSERT_TRUE(repo.AddPackage(p).ok());
  PopconOptions options;
  EXPECT_FALSE(PopconSimulator::Run(repo, {0.5, 0.5}, options).ok());
  options.installation_count = 0;
  EXPECT_FALSE(PopconSimulator::Run(repo, {0.5}, options).ok());
}

// The sharded skip-ahead sampler against the per-package-scan oracle on
// the default-spec repository: per-package install probabilities must agree
// as independent samples of one distribution.
void ExpectAgreesWithReference(uint32_t profile_count) {
  auto spec = corpus::BuildDistroSpec(corpus::DistroOptions{});
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  corpus::DistroSynthesizer synthesizer(spec.value());
  auto repo = synthesizer.BuildRepository();
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  const std::vector<double> marginals = corpus::SurveyMarginals(spec.value());
  PopconOptions options;
  options.installation_count = 20000;
  options.report_rate = 0.97;
  options.profile_count = profile_count;
  auto sampled = PopconSimulator::Run(repo.value(), marginals, options);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
  PopconSurvey reference =
      ReferenceSurvey(repo.value(), marginals, options);

  Agreement agreement = CompareSurveys(reference, sampled.value());
  EXPECT_GT(agreement.df, 3000u);
  EXPECT_GT(agreement.chi2_per_df, 0.85);
  EXPECT_LT(agreement.chi2_per_df, 1.15);
  EXPECT_LT(agreement.max_abs_z, 5.0);
}

TEST(Popcon, AgreesWithReferenceSampler) { ExpectAgreesWithReference(0); }

TEST(Popcon, AgreesWithReferenceSamplerUnderProfiles) {
  ExpectAgreesWithReference(3);
}

TEST(Popcon, PackagePulledByDependantsIsCountedOnce) {
  // dep, and two apps that both depend on it: every pick is a coin flip.
  Repository repo;
  Package dep;
  dep.name = "dep";
  ASSERT_TRUE(repo.AddPackage(dep).ok());
  for (const char* name : {"app1", "app2"}) {
    Package app;
    app.name = name;
    app.depends = {0};
    ASSERT_TRUE(repo.AddPackage(app).ok());
  }
  PopconOptions options;
  options.installation_count = 5000;
  options.retain_samples = 5000;
  auto survey = PopconSimulator::Run(repo, {0.6, 0.6, 0.6}, options);
  ASSERT_TRUE(survey.ok());
  const PopconSurvey& result = survey.value();
  ASSERT_EQ(result.samples.size(), result.total_reporting);
  std::vector<uint64_t> recount(3, 0);
  for (const auto& sample : result.samples) {
    for (PackageId id = 0; id < 3; ++id) {
      recount[id] += sample.Contains(id) ? 1 : 0;
    }
    if (sample.Contains(1) || sample.Contains(2)) {
      EXPECT_TRUE(sample.Contains(0));
    }
  }
  EXPECT_EQ(recount, result.install_counts);
  EXPECT_LE(result.install_counts[0], result.total_reporting);
}

TEST(Popcon, CertainPackageClosureIsInEveryInstallation) {
  Repository repo = ChainRepo();  // libc <- libfoo <- app ; other
  for (uint32_t profiles : {0u, 3u}) {
    PopconOptions options;
    options.installation_count = 3000;
    options.retain_samples = 3000;
    options.report_rate = 0.9;
    options.profile_count = profiles;
    auto survey = PopconSimulator::Run(repo, {0.0, 0.0, 1.0, 0.0}, options);
    ASSERT_TRUE(survey.ok());
    const PopconSurvey& result = survey.value();
    for (PackageId id : {0u, 1u, 2u}) {
      EXPECT_EQ(result.install_counts[id], result.total_reporting) << id;
    }
    EXPECT_EQ(result.install_counts[3], 0u);
    ASSERT_EQ(result.samples.size(), result.total_reporting);
    for (const auto& sample : result.samples) {
      EXPECT_TRUE(sample.Contains(0) && sample.Contains(1) &&
                  sample.Contains(2));
      EXPECT_FALSE(sample.Contains(3));
    }
  }
}

TEST(ProgramKind, Names) {
  EXPECT_STREQ(ProgramKindName(ProgramKind::kElf), "ELF binary");
  EXPECT_STREQ(ProgramKindName(ProgramKind::kPython), "Python");
}

}  // namespace
}  // namespace lapis::package
