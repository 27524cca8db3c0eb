// IPA-precision benchmark: runs the full study pipeline three times over
// the same calibrated corpus — linear baseline, CFG dataflow, and the
// interprocedural (ipa) tier — with the differential soundness audit
// enabled in every mode. Reports, side by side:
//   * unknown syscall-site counts and rates (precision per tier);
//   * ground-truth mismatches (all must be zero — soundness of recovery);
//   * the audit verdict (every tier must replay with zero violations).
// Headline checks:
//   * unknown sites must STRICTLY shrink linear > dataflow > ipa (branch-
//     guarded sites are recoverable only through the CFG join, wrapper-style
//     sites only by back-tracking through the call graph);
//   * ipa exports must be byte-identical at --jobs=1 and --jobs=4 (the
//     bottom-up summary / top-down resolution passes are deterministic).
// Results go to BENCH_ipa.json (override with LAPIS_IPA_BENCH_JSON).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench/study_fixture.h"
#include "src/core/report.h"
#include "src/corpus/study_runner.h"
#include "src/util/env.h"
#include "src/util/table_writer.h"

using namespace lapis;

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    auto colon = line.find(':');
    if (colon != std::string::npos &&
        line.compare(0, 10, "model name") == 0) {
      size_t start = line.find_first_not_of(" \t", colon + 1);
      return start == std::string::npos ? "" : line.substr(start);
    }
  }
  return "unknown";
}

std::string IsoDate() {
  std::time_t now = std::time(nullptr);
  char buf[16];
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  std::strftime(buf, sizeof buf, "%Y-%m-%d", &tm_utc);
  return buf;
}

corpus::StudyResult RunTier(bool use_dataflow, bool use_ipa,
                            size_t jobs = 0) {
  corpus::StudyOptions options = bench::BenchStudyOptions();
  options.analyzer.use_dataflow = use_dataflow;
  options.analyzer.use_ipa = use_ipa;
  options.audit = true;
  if (jobs != 0) options.jobs = jobs;
  auto result = corpus::RunStudy(options);
  if (!result.ok()) {
    std::fprintf(stderr, "study failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return result.take();
}

// Concatenated TSV exports of a finished study — the byte-identity surface
// the determinism guarantee covers (same surface runtime_determinism_test
// checks).
std::string ExportBytes(const corpus::StudyResult& study) {
  std::ostringstream os;
  if (!core::ExportImportanceTsv(
           *study.dataset,
           {core::ApiKind::kSyscall, core::ApiKind::kIoctlOp,
            core::ApiKind::kFcntlOp, core::ApiKind::kPrctlOp,
            core::ApiKind::kPseudoFile, core::ApiKind::kLibcFn},
           study.path_interner, study.libc_interner, os)
           .ok() ||
      !core::ExportPackagesTsv(*study.dataset, os).ok() ||
      !core::ExportFootprintsTsv(*study.dataset, study.path_interner,
                                 study.libc_interner, os)
          .ok()) {
    std::fprintf(stderr, "export failed\n");
    std::abort();
  }
  return os.str();
}

std::string Rate(int unknown, int total) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f%%",
                total > 0 ? 100.0 * unknown / total : 0.0);
  return buffer;
}

void AppendTierJson(std::ostringstream& os, const char* name,
                    const corpus::StudyResult& s, bool last) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "    { \"tier\": \"%s\", \"syscall_sites\": %d, \"unknown_sites\": "
      "%d, \"unknown_rate\": %.6f, \"ground_truth_mismatches\": %zu, "
      "\"executables_audited\": %zu, \"soundness_violations\": %zu, "
      "\"masked_by_unknown_sites\": %zu }%s\n",
      name, s.total_syscall_sites, s.unknown_syscall_sites,
      s.total_syscall_sites > 0
          ? static_cast<double>(s.unknown_syscall_sites) /
                s.total_syscall_sites
          : 0.0,
      s.ground_truth_mismatches, s.audit->executables_audited,
      s.audit->soundness_violations, s.audit->masked_by_unknown_sites,
      last ? "" : ",");
  os << buf;
}

}  // namespace

int main() {
  std::printf("Interprocedural (ipa) tier vs dataflow vs linear baseline\n");
  std::printf("(same corpus, all tiers audited against dynamic replay)\n\n");

  corpus::StudyResult linear = RunTier(false, false);
  corpus::StudyResult dataflow = RunTier(true, false);
  corpus::StudyResult ipa = RunTier(true, true);

  TableWriter table({"Metric", "Linear", "CFG dataflow", "IPA"});
  table.AddRow({"syscall sites", std::to_string(linear.total_syscall_sites),
                std::to_string(dataflow.total_syscall_sites),
                std::to_string(ipa.total_syscall_sites)});
  table.AddRow({"unknown sites",
                std::to_string(linear.unknown_syscall_sites),
                std::to_string(dataflow.unknown_syscall_sites),
                std::to_string(ipa.unknown_syscall_sites)});
  table.AddRow(
      {"unknown rate",
       Rate(linear.unknown_syscall_sites, linear.total_syscall_sites),
       Rate(dataflow.unknown_syscall_sites, dataflow.total_syscall_sites),
       Rate(ipa.unknown_syscall_sites, ipa.total_syscall_sites)});
  table.AddRow({"ground-truth mismatches",
                std::to_string(linear.ground_truth_mismatches),
                std::to_string(dataflow.ground_truth_mismatches),
                std::to_string(ipa.ground_truth_mismatches)});
  table.AddRow({"soundness violations",
                std::to_string(linear.audit->soundness_violations),
                std::to_string(dataflow.audit->soundness_violations),
                std::to_string(ipa.audit->soundness_violations)});
  table.AddRow({"observed masked by unknowns",
                std::to_string(linear.audit->masked_by_unknown_sites),
                std::to_string(dataflow.audit->masked_by_unknown_sites),
                std::to_string(ipa.audit->masked_by_unknown_sites)});
  table.Print(std::cout);

  std::printf("\nlinear   %s\n", linear.audit->Summary().c_str());
  std::printf("dataflow %s\n", dataflow.audit->Summary().c_str());
  std::printf("ipa      %s\n\n", ipa.audit->Summary().c_str());

  // Determinism: the ipa tier at --jobs=1 and --jobs=4 must export
  // byte-identical TSVs (summary emission order is callees-first over the
  // SCC condensation, never scheduling order).
  corpus::StudyResult ipa_j1 = RunTier(true, true, /*jobs=*/1);
  corpus::StudyResult ipa_j4 = RunTier(true, true, /*jobs=*/4);
  const std::string bytes_j1 = ExportBytes(ipa_j1);
  const bool deterministic = bytes_j1 == ExportBytes(ipa_j4) &&
                             bytes_j1 == ExportBytes(ipa);

  const bool strict_reduction =
      ipa.unknown_syscall_sites < dataflow.unknown_syscall_sites &&
      dataflow.unknown_syscall_sites < linear.unknown_syscall_sites;
  const bool all_sound = linear.audit->sound() && dataflow.audit->sound() &&
                         ipa.audit->sound();
  const bool no_mismatches = linear.ground_truth_mismatches == 0 &&
                             dataflow.ground_truth_mismatches == 0 &&
                             ipa.ground_truth_mismatches == 0;
  std::printf("strict unknown-site reduction (linear > dataflow > ipa): "
              "%s (%d -> %d -> %d)\n",
              strict_reduction ? "YES" : "NO",
              linear.unknown_syscall_sites, dataflow.unknown_syscall_sites,
              ipa.unknown_syscall_sites);
  std::printf("zero audit violations in all tiers: %s\n",
              all_sound ? "YES" : "NO");
  std::printf("ipa exports byte-identical at jobs=1/4/default: %s\n",
              deterministic ? "YES" : "NO");

  std::ostringstream os;
  os << "{\n  \"bench\": \"ipa_precision\",\n"
     << "  \"description\": \"Unknown syscall-site precision of the three "
        "analysis tiers (linear constant scan, CFG dataflow, "
        "interprocedural back-tracking), each differentially audited "
        "against dynamic replay, plus the ipa determinism check across "
        "worker counts. Emitted by bench_ipa_precision.\",\n";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "  \"host\": {\n"
                "    \"cpu_model\": \"%s\",\n"
                "    \"logical_cpus\": %u,\n"
                "    \"compiler\": \"%s\",\n"
                "    \"date\": \"%s\"\n"
                "  },\n",
                CpuModel().c_str(), std::thread::hardware_concurrency(),
                __VERSION__, IsoDate().c_str());
  os << buf;
  std::snprintf(buf, sizeof buf,
                "  \"config\": { \"app_packages\": %zu, \"installations\": "
                "%" PRIu64 ", \"packages\": %zu, \"ipa_max_depth\": %d },\n",
                bench::BenchStudyOptions().distro.app_package_count,
                bench::BenchStudyOptions().distro.installation_count,
                ipa.spec.packages.size(), ipa.analyzer_options.ipa_max_depth);
  os << buf;
  os << "  \"tiers\": [\n";
  AppendTierJson(os, "linear", linear, false);
  AppendTierJson(os, "dataflow", dataflow, false);
  AppendTierJson(os, "ipa", ipa, true);
  os << "  ],\n";
  std::snprintf(buf, sizeof buf,
                "  \"checks\": { \"strict_unknown_reduction\": %s, "
                "\"all_tiers_sound\": %s, \"jobs_deterministic\": %s, "
                "\"export_bytes\": %zu }\n}\n",
                strict_reduction ? "true" : "false",
                all_sound ? "true" : "false",
                deterministic ? "true" : "false", bytes_j1.size());
  os << buf;

  std::string path = EnvStringOr("LAPIS_IPA_BENCH_JSON", "BENCH_ipa.json");
  std::ofstream out(path, std::ios::trunc);
  out << os.str();
  if (!out.good()) {
    std::fprintf(stderr, "failed writing %s\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());

  if (!strict_reduction || !all_sound || !deterministic || !no_mismatches) {
    std::printf("\nVERDICT: FAIL\n");
    return 1;
  }
  std::printf("\nVERDICT: PASS — interprocedural back-tracking strictly\n"
              "sharpens call-site number recovery over the CFG tier while\n"
              "holding the strace superset invariant and byte-identical\n"
              "exports at every worker count.\n");
  return 0;
}
