// End-to-end study orchestration: the lapis public entry point.
//
// RunStudy() executes the whole paper pipeline:
//   1. Build the calibrated distribution plan (distro_spec.h).
//   2. Synthesize core libraries + every package's ELF binaries
//      (binary_synth.h) and run the static-analysis pipeline over them
//      (src/analysis): disassembly, call graphs, constant back-tracking,
//      cross-library resolution.
//   3. Simulate the popularity-contest survey (src/package).
//   4. Join footprints with installation counts into a StudyDataset
//      (src/core) and verify the recovered footprints against the plan's
//      ground truth.
//
// Benches and examples consume the returned StudyResult.

#ifndef LAPIS_SRC_CORPUS_STUDY_RUNNER_H_
#define LAPIS_SRC_CORPUS_STUDY_RUNNER_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/audit.h"
#include "src/cache/footprint_cache.h"
#include "src/core/api_id.h"
#include "src/core/dataset.h"
#include "src/corpus/binary_synth.h"
#include "src/corpus/distro_spec.h"
#include "src/package/popcon.h"
#include "src/package/repository.h"
#include "src/runtime/executor.h"
#include "src/runtime/stage_stats.h"
#include "src/util/status.h"

namespace lapis::corpus {

struct StudyOptions {
  DistroOptions distro;
  // Verify recovered footprints against the plan (slower; tests enable).
  bool verify_ground_truth = true;
  // Static-analysis methodology switches. `analyzer.use_dataflow` is the
  // ablation lever: true = CFG constant propagation (default), false = the
  // soundness-fixed linear baseline.
  analysis::AnalyzerOptions analyzer;
  // Differentially replay every executable in the DynamicTracer against its
  // resolved static footprint (audit.h) and attach the AuditReport.
  bool audit = false;
  // Retain joint popcon samples for the independence ablation.
  uint64_t popcon_retain_samples = 0;
  // Install-profile correlation (see package::PopconOptions); 0 = off.
  uint32_t popcon_profile_count = 0;
  double popcon_profile_boost = 3.0;
  // Worker threads for the pipeline: 0 = runtime::DefaultJobs(),
  // 1 = fully sequential (no threads spawned). Dataset exports are
  // byte-identical at every jobs value.
  size_t jobs = 0;
  // Run on an existing pool instead of creating one (overrides `jobs`).
  runtime::Executor* executor = nullptr;
  // Content-addressed incremental cache (src/cache). Non-empty `cache_dir`
  // opens (creating if needed) a persistent store there; on a hit the whole
  // per-binary analysis chain (ELF parse, linear sweep, CFG, dataflow), the
  // per-library export reachability, the per-executable resolution, and the
  // popcon survey are skipped. Exports are byte-identical cold vs. warm.
  std::string cache_dir;
  // Run against an existing cache instance instead (overrides `cache_dir`;
  // not owned). In-process warm-run benches use this.
  cache::FootprintCache* cache = nullptr;
};

struct BinaryStats {
  size_t elf_executables = 0;
  size_t elf_shared_libraries = 0;
  size_t elf_static = 0;
  std::map<package::ProgramKind, size_t> script_programs;

  size_t TotalElf() const {
    return elf_executables + elf_shared_libraries + elf_static;
  }
};

struct StudyResult {
  DistroSpec spec;
  package::Repository repository;
  package::PopconSurvey survey;
  std::unique_ptr<core::StudyDataset> dataset;

  // Interners: ApiId::code for kPseudoFile / kLibcFn resolves through these.
  core::StringInterner path_interner;
  core::StringInterner libc_interner;

  // Which binaries contain direct call sites for each syscall (Table 1/5
  // attribution; binary name = executable name or library soname).
  std::map<int, std::set<std::string>> syscall_site_binaries;

  // Measured libc per-symbol code sizes (from the synthesized libc's
  // .symtab), keyed by interned symbol id (§3.5 size model).
  std::map<uint32_t, uint64_t> libc_symbol_sizes;

  BinaryStats binary_stats;

  // Analysis health.
  int total_syscall_sites = 0;
  int unknown_syscall_sites = 0;
  // Legacy int $0x80 usage (i386 numbering).
  int int80_sites = 0;
  std::set<int> int80_numbers;
  size_t ground_truth_mismatches = 0;
  size_t analyzed_binaries = 0;

  // Analyzer switches the run used (echoed from StudyOptions::analyzer).
  analysis::AnalyzerOptions analyzer_options;
  // Footprint soundness audit (present iff StudyOptions::audit was set).
  std::optional<analysis::AuditReport> audit;

  // Corpus-wide dynamic-replay evidence, the audit's observed_union lifted
  // to ApiIds (pseudo paths resolved through path_interner). Empty mask =
  // no audit ran; bit (1 << kind) marks each instrumented ApiKind, so the
  // planner can tell "not observed" from "not instrumented".
  uint8_t evidence_kinds_mask = 0;
  std::set<core::ApiId> evidence_observed;

  // Per-package binary counts with hard-coded pseudo paths (Fig 6 counts).
  std::map<std::string, size_t> pseudo_path_binary_counts;

  // Parallel-pipeline accounting: wall/CPU per stage, plus the executor's
  // task/steal counters for the run.
  runtime::PipelineStats pipeline_stats;
  runtime::ExecutorStats executor_stats;
  size_t jobs_used = 1;

  // Incremental-cache accounting for this run (all-zero when no cache was
  // configured). `cache_stats` is windowed to this run even on a shared
  // cache instance.
  bool cache_enabled = false;
  cache::CacheStats cache_stats;
  size_t analyses_from_cache = 0;     // binaries restored via kAnalysis hits
  size_t resolutions_from_cache = 0;  // executables restored via kResolution
};

Result<StudyResult> RunStudy(const StudyOptions& options);

// A small, fast configuration for unit/integration tests.
StudyOptions SmallStudyOptions();

// The popcon inputs RunStudy samples: the plan's target marginals and the
// survey options derived from `options`.
std::vector<double> SurveyMarginals(const DistroSpec& spec);
package::PopconOptions SurveyOptions(const StudyOptions& options);

}  // namespace lapis::corpus

#endif  // LAPIS_SRC_CORPUS_STUDY_RUNNER_H_
