// Study-artifact persistence: a saved dataset must reload with identical
// metrics; corrupt artifacts are rejected cleanly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "src/core/completeness.h"
#include "src/corpus/dataset_io.h"
#include "src/corpus/study_runner.h"
#include "src/corpus/syscall_table.h"
#include "src/corpus/system_profiles.h"

namespace lapis::corpus {
namespace {

const StudyResult& Study() {
  static const StudyResult* study = [] {
    auto options = SmallStudyOptions();
    auto result = RunStudy(options);
    EXPECT_TRUE(result.ok());
    return new StudyResult(result.take());
  }();
  return *study;
}

std::vector<uint8_t> SerializedStudy() {
  ByteWriter writer;
  EXPECT_TRUE(SerializeStudy(Study(), writer).ok());
  return writer.Take();
}

TEST(DatasetIo, RoundTripPreservesEverything) {
  auto bytes = SerializedStudy();
  ByteReader reader(bytes);
  auto artifact = DeserializeStudy(reader);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();

  const auto& original = *Study().dataset;
  const auto& restored = *artifact.value().dataset;
  ASSERT_EQ(restored.package_count(), original.package_count());
  EXPECT_EQ(restored.total_installations(), original.total_installations());
  for (uint32_t pkg = 0; pkg < original.package_count(); ++pkg) {
    EXPECT_EQ(restored.PackageName(pkg), original.PackageName(pkg));
    EXPECT_EQ(restored.InstallCount(pkg), original.InstallCount(pkg));
    EXPECT_EQ(restored.Footprint(pkg), original.Footprint(pkg));
    EXPECT_TRUE(std::ranges::equal(restored.DependencyClosure(pkg),
                                   original.DependencyClosure(pkg)))
        << pkg;
  }
  // Interners preserved.
  EXPECT_EQ(artifact.value().libc_interner.size(),
            Study().libc_interner.size());
  EXPECT_EQ(artifact.value().path_interner.Find("/dev/null"),
            Study().path_interner.Find("/dev/null"));
}

TEST(DatasetIo, MetricsIdenticalAfterReload) {
  auto bytes = SerializedStudy();
  ByteReader reader(bytes);
  auto artifact = DeserializeStudy(reader).take();
  const auto& original = *Study().dataset;
  const auto& restored = *artifact.dataset;
  for (int nr : {0, 16, 157, 237, 317}) {
    core::ApiId api = core::SyscallApi(static_cast<uint32_t>(nr));
    EXPECT_DOUBLE_EQ(restored.ApiImportance(api),
                     original.ApiImportance(api));
    EXPECT_DOUBLE_EQ(restored.UnweightedImportance(api),
                     original.UnweightedImportance(api));
  }
  auto ranked = original.RankByImportance(core::ApiKind::kSyscall,
                                          FullSyscallUniverse());
  std::set<core::ApiId> supported(ranked.begin(),
                                  ranked.begin() + 150);
  core::CompletenessOptions options;
  options.evaluated_kinds = {core::ApiKind::kSyscall};
  EXPECT_DOUBLE_EQ(
      core::WeightedCompleteness(restored, supported, options),
      core::WeightedCompleteness(original, supported, options));
}

TEST(DatasetIo, FileRoundTrip) {
  std::string path = testing::TempDir() + "/lapis_study_artifact.bin";
  ASSERT_TRUE(SaveStudy(Study(), path).ok());
  auto loaded = LoadStudy(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().dataset->package_count(),
            Study().dataset->package_count());
  std::remove(path.c_str());
}

// Minimal finalized StudyResult (SerializeStudy only reads the dataset,
// the interners, and the evidence fields).
StudyResult TinyStudy() {
  StudyResult study;
  study.dataset = std::make_unique<core::StudyDataset>(1, 100);
  EXPECT_TRUE(study.dataset->SetPackageName(0, "p").ok());
  EXPECT_TRUE(study.dataset->SetInstallCount(0, 100).ok());
  EXPECT_TRUE(
      study.dataset->SetFootprint(0, {core::SyscallApi(0), core::SyscallApi(9)})
          .ok());
  EXPECT_TRUE(study.dataset->Finalize().ok());
  return study;
}

TEST(DatasetIo, EvidenceSurvivesRoundTrip) {
  StudyResult study = TinyStudy();
  study.evidence_kinds_mask =
      static_cast<uint8_t>(1u << static_cast<uint8_t>(core::ApiKind::kSyscall)) |
      static_cast<uint8_t>(1u << static_cast<uint8_t>(core::ApiKind::kIoctlOp));
  study.evidence_observed = {core::SyscallApi(0), core::SyscallApi(9),
                             core::IoctlApi(0x5401)};

  ByteWriter writer;
  ASSERT_TRUE(SerializeStudy(study, writer).ok());
  auto bytes = writer.Take();
  ByteReader reader(bytes);
  auto artifact = DeserializeStudy(reader);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact.value().evidence_kinds_mask, study.evidence_kinds_mask);
  EXPECT_EQ(artifact.value().evidence_observed, study.evidence_observed);
}

TEST(DatasetIo, V1ArtifactLoadsWithEmptyEvidence) {
  // A v1 artifact is a v2 one minus the trailing evidence section (1-byte
  // mask + u32 count) with the version field rewritten; loading it must
  // succeed with no evidence rather than be rejected.
  StudyResult study = TinyStudy();
  ByteWriter writer;
  ASSERT_TRUE(SerializeStudy(study, writer).ok());
  auto bytes = writer.Take();
  ASSERT_GE(bytes.size(), 5u + 4u);
  bytes.resize(bytes.size() - 5);  // empty evidence: u8 mask + u32 count
  bytes[4] = 1;                    // version field follows the magic
  ByteReader reader(bytes);
  auto artifact = DeserializeStudy(reader);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact.value().evidence_kinds_mask, 0u);
  EXPECT_TRUE(artifact.value().evidence_observed.empty());
  EXPECT_EQ(artifact.value().dataset->package_count(), 1u);
}

TEST(DatasetIo, RejectsBadMagicAndTruncation) {
  auto bytes = SerializedStudy();
  {
    auto corrupted = bytes;
    corrupted[0] ^= 0xff;
    ByteReader reader(corrupted);
    EXPECT_EQ(DeserializeStudy(reader).status().code(),
              StatusCode::kCorruptData);
  }
  for (size_t cut : {0u, 8u, 64u, 1024u}) {
    if (cut >= bytes.size()) {
      continue;
    }
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    ByteReader reader(truncated);
    EXPECT_FALSE(DeserializeStudy(reader).ok()) << cut;
  }
}

TEST(DatasetIo, RejectsUnknownVersion) {
  auto bytes = SerializedStudy();
  bytes[4] = 0x7f;  // version field
  ByteReader reader(bytes);
  EXPECT_EQ(DeserializeStudy(reader).status().code(),
            StatusCode::kUnimplemented);
}

TEST(DatasetIo, LoadMissingFileFails) {
  // io::ReadFileBytes distinguishes a missing artifact (kNotFound) from a
  // present-but-unreadable one (kIoError).
  EXPECT_EQ(LoadStudy("/nonexistent/path/study.bin").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace lapis::corpus
