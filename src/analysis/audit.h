// Footprint soundness auditor (paper §2.3: "we spot check that static
// analysis returns a superset of strace results" — here made a
// machine-checked, corpus-wide invariant).
//
// For each executable the auditor (a) resolves the full static footprint —
// entry-reachable code plus the import closure through every registered
// library — and (b) replays the same binary in the DynamicTracer, then
// differentially compares the two:
//
//   * soundness violation — an API observed during execution that the
//     static footprint neither claims nor excuses. This must never happen;
//     one violation means the analyzer confidently reported a wrong/partial
//     fact somewhere (e.g. the historical kJccRel state leak).
//   * masked by unknown sites — observed but statically absent, while the
//     footprint carries unknown-site counters of the same class: the
//     analyzer knew it lost track. Precision debt, not unsoundness.
//   * static-only APIs — claimed statically, never observed. Expected: one
//     concrete trace covers a single path through an over-approximation.
//
// The auditor runs with the same AnalyzerOptions as the study pipeline, so
// the `use_dataflow` ablation switch (and the methodology switches) are
// audited exactly as configured; `lapis_study --audit` and the
// bench_ipa_precision benchmark report every tier side by side.

#ifndef LAPIS_SRC_ANALYSIS_AUDIT_H_
#define LAPIS_SRC_ANALYSIS_AUDIT_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/binary_analyzer.h"
#include "src/analysis/dynamic_trace.h"
#include "src/analysis/footprint.h"
#include "src/analysis/library_resolver.h"
#include "src/util/status.h"

namespace lapis::analysis {

// One observed-but-unclaimed API (a soundness violation).
struct AuditFinding {
  enum class ApiClass : uint8_t {
    kSyscall,
    kIoctlOp,
    kFcntlOp,
    kPrctlOp,
    kInt80Syscall,
    kPseudoPath,
  };
  ApiClass api_class = ApiClass::kSyscall;
  int64_t code = 0;   // syscall number / opcode (unused for paths)
  std::string path;   // pseudo path (kPseudoPath only)

  // "syscall 16 observed but not in static footprint".
  std::string Describe() const;
};

// Differential result for one executable.
struct BinaryAuditResult {
  std::string name;
  // Everything the dynamic replay actually touched (the trace's footprint).
  // Downstream planning separates these "must-implement" APIs from
  // claimed-but-never-observed "stub-safe" ones.
  Footprint observed;
  std::vector<AuditFinding> violations;
  size_t masked_by_unknown_sites = 0;  // observed, absent, but excused
  size_t static_only_apis = 0;         // over-approximation margin
  size_t observed_apis = 0;
  size_t static_apis = 0;
  size_t instructions_executed = 0;
  bool hit_step_limit = false;
  std::set<std::string> stubbed_imports;

  bool sound() const { return violations.empty(); }
};

// Corpus-wide aggregate. Fold per-binary results in canonical order so the
// report is deterministic at any worker count.
struct AuditReport {
  size_t executables_audited = 0;
  size_t soundness_violations = 0;
  size_t masked_by_unknown_sites = 0;
  size_t static_only_apis = 0;
  size_t observed_apis = 0;
  size_t traces_hit_step_limit = 0;
  // Union of every audited executable's observed footprint — the corpus-wide
  // dynamic-replay evidence the support planner consumes.
  Footprint observed_union;
  // Per-binary diagnostics for every binary with at least one violation.
  std::vector<BinaryAuditResult> flagged;

  void Fold(BinaryAuditResult result);
  bool sound() const { return soundness_violations == 0; }
  // One-paragraph human summary for the study banner / CLI.
  std::string Summary() const;
};

class FootprintAuditor {
 public:
  // Self-contained auditor: AddLibrary analyzes each library and registers
  // it on both the static (LibraryResolver) and dynamic (DynamicTracer)
  // sides. With an executor, per-export reachability fans out.
  explicit FootprintAuditor(AnalyzerOptions options = {},
                            runtime::Executor* executor = nullptr);

  // Shares a prebuilt resolver (must outlive the auditor and have been
  // built with the same analyzer options); AddLibrary then feeds only the
  // tracer side. Saves re-deriving per-export reachability when the study
  // pipeline already holds a fully-registered resolver.
  FootprintAuditor(const LibraryResolver* resolver, AnalyzerOptions options,
                   runtime::Executor* executor = nullptr);

  Status AddLibrary(std::shared_ptr<const elf::ElfImage> library);

  // Analyzes, resolves, traces, and compares one executable. Safe to call
  // concurrently once every library is registered.
  Result<BinaryAuditResult> AuditExecutable(const elf::ElfImage& executable,
                                            const std::string& name) const;

  const AnalyzerOptions& options() const { return options_; }

 private:
  AnalyzerOptions options_;
  const LibraryResolver* resolver_ = nullptr;  // shared or &owned_resolver_
  LibraryResolver owned_resolver_;
  DynamicTracer tracer_;
};

}  // namespace lapis::analysis

#endif  // LAPIS_SRC_ANALYSIS_AUDIT_H_
