// Footprint soundness auditor tests: the differential static-vs-replay
// comparison must hold zero violations on honest configurations, excuse
// observed APIs behind counted unknown sites, and detect configurations
// that silently drop facts (the regression the auditor exists for).

#include <gtest/gtest.h>

#include <memory>

#include "src/analysis/audit.h"
#include "src/codegen/function_builder.h"
#include "src/corpus/study_runner.h"
#include "src/elf/elf_builder.h"
#include "src/elf/elf_reader.h"

namespace lapis::analysis {
namespace {

using codegen::FunctionBuilder;
using elf::BinaryType;
using elf::ElfBuilder;
using elf::ElfImage;

ElfImage BuildVectoredExe() {
  // ioctl(fd, TCGETS) issued inline, then exit(60).
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRsi, 0x5401);
  fn.MovRegImm32(disasm::kRax, 16);
  fn.Syscall();
  fn.MovRegImm32(disasm::kRax, 60);
  fn.Syscall();
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  EXPECT_TRUE(builder.SetEntryFunction(idx).ok());
  auto bytes = builder.Build();
  EXPECT_TRUE(bytes.ok());
  auto image = elf::ElfReader::Parse(bytes.value());
  EXPECT_TRUE(image.ok());
  return image.take();
}

ElfImage BuildGuardedExe() {
  // mov eax, 39; jne L; nop; L: syscall -- constant survives only via the
  // CFG join; then exit(60).
  ElfBuilder builder(BinaryType::kExecutable);
  FunctionBuilder fn("_start");
  fn.MovRegImm32(disasm::kRax, 39);
  fn.JccShortForward(0x5, 1);
  fn.Nop(1);
  fn.Syscall();
  fn.MovRegImm32(disasm::kRax, 60);
  fn.Syscall();
  fn.Ret();
  uint32_t idx = builder.AddFunction(fn.Finish(false));
  EXPECT_TRUE(builder.SetEntryFunction(idx).ok());
  auto bytes = builder.Build();
  EXPECT_TRUE(bytes.ok());
  auto image = elf::ElfReader::Parse(bytes.value());
  EXPECT_TRUE(image.ok());
  return image.take();
}

TEST(FootprintAuditor, HonestAnalysisAuditsSound) {
  FootprintAuditor auditor;
  auto result = auditor.AuditExecutable(BuildVectoredExe(), "exe");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().sound());
  EXPECT_EQ(result.value().masked_by_unknown_sites, 0u);
  EXPECT_GT(result.value().observed_apis, 0u);
  EXPECT_GT(result.value().instructions_executed, 0u);
}

TEST(FootprintAuditor, DetectsSilentlyDroppedFacts) {
  // Disabling opcode recovery drops the ioctl op without even counting an
  // unknown site -- the replay still observes TCGETS, so the auditor must
  // flag a violation. This is the detection path that would have caught
  // the historical kJccRel leak.
  AnalyzerOptions options;
  options.resolve_wrapper_opcodes = false;
  FootprintAuditor auditor(options);
  auto result = auditor.AuditExecutable(BuildVectoredExe(), "exe");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result.value().sound());
  EXPECT_EQ(result.value().violations[0].api_class,
            AuditFinding::ApiClass::kIoctlOp);
  EXPECT_EQ(result.value().violations[0].code, 0x5401);
  EXPECT_NE(result.value().violations[0].Describe().find("ioctl"),
            std::string::npos);
}

TEST(FootprintAuditor, CountedUnknownSiteExcusesObservedSyscall) {
  // In linear mode the guarded site is unknown: the replay observes
  // syscall 39, the static side doesn't claim it but counted the lost
  // site, so it is precision debt -- not a soundness violation.
  AnalyzerOptions linear;
  linear.use_dataflow = false;
  FootprintAuditor auditor(linear);
  auto result = auditor.AuditExecutable(BuildGuardedExe(), "exe");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().sound());
  EXPECT_GE(result.value().masked_by_unknown_sites, 1u);
}

TEST(FootprintAuditor, DataflowClaimsGuardedSiteExactly) {
  FootprintAuditor auditor;
  auto result = auditor.AuditExecutable(BuildGuardedExe(), "exe");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().sound());
  EXPECT_EQ(result.value().masked_by_unknown_sites, 0u);
}

TEST(AuditReport, FoldAggregatesAndFlagsViolations) {
  AuditReport report;
  BinaryAuditResult clean;
  clean.name = "clean";
  clean.observed_apis = 3;
  clean.static_only_apis = 2;
  report.Fold(clean);
  BinaryAuditResult bad;
  bad.name = "bad";
  bad.violations.push_back(AuditFinding{});
  bad.masked_by_unknown_sites = 1;
  report.Fold(bad);

  EXPECT_EQ(report.executables_audited, 2u);
  EXPECT_EQ(report.soundness_violations, 1u);
  EXPECT_EQ(report.masked_by_unknown_sites, 1u);
  EXPECT_EQ(report.static_only_apis, 2u);
  EXPECT_FALSE(report.sound());
  ASSERT_EQ(report.flagged.size(), 1u);
  EXPECT_EQ(report.flagged[0].name, "bad");
  EXPECT_NE(report.Summary().find("1 soundness violations"),
            std::string::npos);
}

// The corpus-wide invariant behind bench_ipa_precision: both analysis
// modes replay the whole small corpus with zero soundness violations, and
// dataflow strictly reduces the unknown syscall sites the linear baseline
// leaves behind (the branch-guarded sites).
TEST(FootprintAuditor, SmallCorpusAuditsSoundInBothModes) {
  corpus::StudyOptions linear = corpus::SmallStudyOptions();
  linear.analyzer.use_dataflow = false;
  linear.audit = true;
  auto linear_study = corpus::RunStudy(linear);
  ASSERT_TRUE(linear_study.ok()) << linear_study.status().ToString();
  ASSERT_TRUE(linear_study.value().audit.has_value());
  EXPECT_TRUE(linear_study.value().audit->sound())
      << linear_study.value().audit->Summary();
  EXPECT_EQ(linear_study.value().ground_truth_mismatches, 0u);

  corpus::StudyOptions dataflow = corpus::SmallStudyOptions();
  dataflow.audit = true;
  auto dataflow_study = corpus::RunStudy(dataflow);
  ASSERT_TRUE(dataflow_study.ok()) << dataflow_study.status().ToString();
  ASSERT_TRUE(dataflow_study.value().audit.has_value());
  EXPECT_TRUE(dataflow_study.value().audit->sound())
      << dataflow_study.value().audit->Summary();
  EXPECT_EQ(dataflow_study.value().ground_truth_mismatches, 0u);

  EXPECT_EQ(linear_study.value().total_syscall_sites,
            dataflow_study.value().total_syscall_sites);
  EXPECT_LT(dataflow_study.value().unknown_syscall_sites,
            linear_study.value().unknown_syscall_sites);
  // Exactly the guarded sites move between modes, and they are the
  // linear mode's extra precision debt in the audit.
  EXPECT_GE(linear_study.value().audit->masked_by_unknown_sites,
            dataflow_study.value().audit->masked_by_unknown_sites);
}

}  // namespace
}  // namespace lapis::analysis
