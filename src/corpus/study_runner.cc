#include "src/corpus/study_runner.h"

#include <algorithm>
#include <memory>
#include <string>

#include "src/analysis/binary_analyzer.h"
#include "src/analysis/library_resolver.h"
#include "src/analysis/script_scanner.h"
#include "src/cache/analysis_codec.h"
#include "src/cache/content_hash.h"
#include "src/cache/survey_codec.h"
#include "src/corpus/api_universe.h"
#include "src/corpus/footprint_join.h"
#include "src/elf/elf_reader.h"
#include "src/runtime/parallel.h"

namespace lapis::corpus {

namespace {

using analysis::BinaryAnalysis;
using analysis::BinaryAnalyzer;
using analysis::LibraryResolver;
using cache::AnalysisCodec;
using cache::FootprintCache;

// One synthesized binary after the per-binary analysis fan-out. The raw
// ELF bytes are dropped inside the worker shard; only the analysis
// (everything downstream needs) and the content hash (the cache key for
// derived entries) survive.
struct AnalyzedBinary {
  std::string name;
  bool is_library = false;
  bool is_static = false;
  // FNV-1a of the raw ELF bytes; 0 when no cache is configured.
  uint64_t content_hash = 0;
  bool from_cache = false;
  std::shared_ptr<const BinaryAnalysis> analysis;
};

// Per-run cache context threaded through the pipeline stages. `cache` may be
// null (cache disabled); the fingerprints are computed once per run.
struct CacheContext {
  FootprintCache* cache = nullptr;
  uint64_t analysis_fp = 0;
  uint64_t libreach_fp = 0;
  uint64_t resolution_fp = 0;

  explicit operator bool() const { return cache != nullptr; }
};

// Analyzes one ELF binary, going through the cache when enabled: on a hit
// the serialized BinaryAnalysis is decoded (no parse/sweep/CFG/dataflow);
// on a miss (or an undecodable payload) the analysis runs and is written
// back. Safe on any worker shard.
Result<std::shared_ptr<const BinaryAnalysis>> AnalyzeOrDecode(
    const std::vector<uint8_t>& bytes,
    const analysis::AnalyzerOptions& analyzer, const CacheContext& ctx,
    uint64_t* content_hash, bool* from_cache) {
  *from_cache = false;
  *content_hash = 0;
  if (ctx) {
    *content_hash = cache::HashBytes(bytes);
    auto payload = ctx.cache->Lookup({*content_hash, ctx.analysis_fp});
    if (payload != nullptr) {
      ByteReader reader(*payload);
      auto decoded = AnalysisCodec::Decode(reader);
      if (decoded.ok()) {
        *from_cache = true;
        return std::shared_ptr<const BinaryAnalysis>(
            std::make_shared<BinaryAnalysis>(decoded.take()));
      }
      // Undecodable payload: treat as a miss and recompute.
    }
  }
  LAPIS_ASSIGN_OR_RETURN(auto image, elf::ElfReader::Parse(bytes));
  LAPIS_ASSIGN_OR_RETURN(auto analysis,
                         BinaryAnalyzer::Analyze(image, analyzer));
  auto shared = std::make_shared<BinaryAnalysis>(std::move(analysis));
  if (ctx) {
    ByteWriter writer;
    AnalysisCodec::Encode(*shared, writer);
    ctx.cache->Insert({*content_hash, ctx.analysis_fp}, writer.bytes());
  }
  return std::shared_ptr<const BinaryAnalysis>(std::move(shared));
}

// Shard result of the synthesize+analyze stage for one package.
struct PackageAnalysis {
  Status status;  // first synthesis/parse/analysis error, if any
  std::vector<AnalyzedBinary> binaries;
};

// Shard result of the fused resolve+join stage for one package: its
// executables' resolutions already joined into one footprint.
struct ResolvedPackage {
  PackageFootprint footprint;
  size_t executables = 0;
  size_t from_cache = 0;  // resolutions restored via kResolution hits
};

// Resolves one executable against the fully built (read-only) resolver,
// going through the cache when enabled: a hit decodes the stored
// resolution, a miss (or an undecodable payload) resolves and writes it
// back. Safe on any worker shard.
LibraryResolver::Resolution ResolveOrDecode(const AnalyzedBinary& binary,
                                            const LibraryResolver& resolver,
                                            const CacheContext& ctx,
                                            uint64_t link_fp,
                                            bool* from_cache) {
  *from_cache = false;
  const bool cached = ctx && binary.content_hash != 0;
  if (cached) {
    auto payload = ctx.cache->Lookup({binary.content_hash, link_fp});
    if (payload != nullptr) {
      ByteReader reader(*payload);
      auto decoded = AnalysisCodec::DecodeResolution(reader);
      if (decoded.ok()) {
        *from_cache = true;
        return decoded.take();
      }
    }
  }
  LibraryResolver::Resolution resolution =
      resolver.ResolveExecutable(*binary.analysis);
  if (cached) {
    ByteWriter writer;
    AnalysisCodec::EncodeResolution(resolution, writer);
    ctx.cache->Insert({binary.content_hash, link_fp}, writer.bytes());
  }
  return resolution;
}

// Shard result of the script-classification stage for one package.
struct PackageScripts {
  Status status;
  std::map<package::ProgramKind, size_t> kinds;
};

// Synthesizes and analyzes every ELF binary of one package. Pure: touches
// only the (const) synthesizer and its own shard — safe on any worker.
PackageAnalysis AnalyzePackage(const DistroSynthesizer& synthesizer,
                               const DistroSpec& spec,
                               const analysis::AnalyzerOptions& analyzer,
                               const CacheContext& ctx, size_t pkg) {
  PackageAnalysis out;
  const PackagePlan& plan = spec.packages[pkg];
  if (plan.data_only || !plan.interpreter_package.empty()) {
    return out;  // scripts and data ship no ELF binaries
  }
  auto binaries = synthesizer.PackageBinaries(pkg);
  if (!binaries.ok()) {
    out.status = binaries.status();
    return out;
  }
  for (auto& binary : binaries.value()) {
    AnalyzedBinary analyzed;
    analyzed.name = std::move(binary.name);
    analyzed.is_library = binary.is_library;
    analyzed.is_static = binary.is_static;
    auto analysis = AnalyzeOrDecode(binary.bytes, analyzer, ctx,
                                    &analyzed.content_hash,
                                    &analyzed.from_cache);
    if (!analysis.ok()) {
      out.status = analysis.status();
      return out;
    }
    analyzed.analysis = analysis.take();
    out.binaries.push_back(std::move(analyzed));
  }
  return out;
}

// Registers one analyzed library with the resolver, restoring its memoized
// per-export reachability from the cache when possible and writing it back
// after a recompute. Called in canonical registration order only.
Status RegisterLibrary(const AnalyzedBinary& binary, const CacheContext& ctx,
                       LibraryResolver& resolver) {
  if (ctx && binary.content_hash != 0) {
    auto payload = ctx.cache->Lookup({binary.content_hash, ctx.libreach_fp});
    if (payload != nullptr) {
      ByteReader reader(*payload);
      auto reach = AnalysisCodec::DecodeExportReach(reader);
      if (reach.ok()) {
        return resolver.AddLibrary(binary.analysis, reach.take());
      }
      // Undecodable payload: recompute below.
    }
  }
  LAPIS_RETURN_IF_ERROR(resolver.AddLibrary(binary.analysis));
  if (ctx && binary.content_hash != 0) {
    const auto* reach = resolver.ExportReachOf(binary.analysis->soname());
    if (reach != nullptr) {
      ByteWriter writer;
      AnalysisCodec::EncodeExportReach(*reach, writer);
      ctx.cache->Insert({binary.content_hash, ctx.libreach_fp},
                        writer.bytes());
    }
  }
  return Status::Ok();
}

// Folds one analyzed binary's counters into the study result — called in
// canonical (package, binary) order only, never from a worker.
void FoldBinaryCounters(const AnalyzedBinary& binary, StudyResult& result) {
  const BinaryAnalysis& analysis = *binary.analysis;
  ++result.analyzed_binaries;
  result.total_syscall_sites += analysis.total_syscall_sites;
  result.unknown_syscall_sites += analysis.unknown_syscall_sites;

  // Site attribution: which binary's own code issues which syscall.
  for (const auto& fn : analysis.functions()) {
    for (int nr : fn.local.syscalls) {
      result.syscall_site_binaries[nr].insert(binary.name);
    }
    result.int80_sites += fn.local.int80_sites;
    result.int80_numbers.insert(fn.local.int80_syscalls.begin(),
                                fn.local.int80_syscalls.end());
  }
}

}  // namespace

StudyOptions SmallStudyOptions() {
  StudyOptions options;
  options.distro.app_package_count = 400;
  options.distro.script_package_count = 60;
  options.distro.data_package_count = 12;
  options.distro.installation_count = 20000;
  return options;
}

std::vector<double> SurveyMarginals(const DistroSpec& spec) {
  std::vector<double> marginals;
  marginals.reserve(spec.packages.size());
  for (const auto& plan : spec.packages) {
    marginals.push_back(plan.target_marginal);
  }
  return marginals;
}

package::PopconOptions SurveyOptions(const StudyOptions& options) {
  package::PopconOptions popcon;
  popcon.installation_count = options.distro.installation_count;
  popcon.report_rate = options.distro.popcon_report_rate;
  popcon.retain_samples = options.popcon_retain_samples;
  popcon.profile_count = options.popcon_profile_count;
  popcon.profile_boost = options.popcon_profile_boost;
  popcon.seed = options.distro.seed ^ 0x9e3779b97f4a7c15ULL;
  return popcon;
}

Result<StudyResult> RunStudy(const StudyOptions& options) {
  std::unique_ptr<runtime::Executor> owned_executor;
  runtime::Executor* executor = options.executor;
  if (executor == nullptr) {
    owned_executor = std::make_unique<runtime::Executor>(options.jobs);
    executor = owned_executor.get();
  }

  StudyResult result;
  result.jobs_used = executor->thread_count();
  result.analyzer_options = options.analyzer;
  runtime::PipelineStats& stats = result.pipeline_stats;

  // ---- Incremental cache (optional); its shard logs load on the
  // executor ----
  std::unique_ptr<FootprintCache> owned_cache;
  FootprintCache* cache_ptr = options.cache;
  if (cache_ptr == nullptr && !options.cache_dir.empty()) {
    runtime::StageTimer timer(&stats, "cache-open");
    LAPIS_ASSIGN_OR_RETURN(
        owned_cache, FootprintCache::Open(options.cache_dir, executor));
    cache_ptr = owned_cache.get();
    timer.AddItems(owned_cache->stats().entries_loaded);
  }
  CacheContext ctx;
  ctx.cache = cache_ptr;
  if (ctx) {
    ctx.analysis_fp = cache::ConfigFingerprint(options.analyzer,
                                               cache::EntryKind::kAnalysis);
    ctx.libreach_fp = cache::ConfigFingerprint(options.analyzer,
                                               cache::EntryKind::kLibReach);
    ctx.resolution_fp = cache::ConfigFingerprint(
        options.analyzer, cache::EntryKind::kResolution);
  }
  const cache::CacheStats cache_start =
      ctx ? ctx.cache->stats() : cache::CacheStats{};
  result.cache_enabled = static_cast<bool>(ctx);

  {
    runtime::StageTimer timer(&stats, "plan");
    LAPIS_ASSIGN_OR_RETURN(result.spec, BuildDistroSpec(options.distro));
    LAPIS_ASSIGN_OR_RETURN(result.repository,
                           DistroSynthesizer(result.spec).BuildRepository());
    timer.AddItems(result.spec.packages.size());
  }
  DistroSynthesizer synthesizer(result.spec);

  // Intern the full universes upfront so unused entries exist with
  // zero importance (Fig 7's unused tail; Table 7 profiles).
  for (const auto& spec : LibcUniverse()) {
    result.libc_interner.Intern(spec.name);
  }
  for (const auto& file : PseudoFiles()) {
    result.path_interner.Intern(file.path);
  }

  // ---- Core libraries: analyze shards in parallel, register in order ----
  // The link fingerprint folds every registered library's content hash in
  // registration order; it keys per-executable resolutions, which are only
  // valid against an identical library set.
  auto resolver = std::make_unique<LibraryResolver>(executor);
  uint64_t link_fp = ctx.resolution_fp;
  {
    runtime::StageTimer timer(&stats, "core-libs");
    LAPIS_ASSIGN_OR_RETURN(auto core_libs, synthesizer.CoreLibraries());
    struct CoreShard {
      Status status;
      AnalyzedBinary binary;
    };
    auto shards = runtime::ParallelMap(
        executor, core_libs.size(), [&core_libs, &options, &ctx](size_t i) {
          CoreShard shard;
          shard.binary.name = core_libs[i].name;
          shard.binary.is_library = true;
          auto analysis =
              AnalyzeOrDecode(core_libs[i].bytes, options.analyzer, ctx,
                              &shard.binary.content_hash,
                              &shard.binary.from_cache);
          if (!analysis.ok()) {
            shard.status = analysis.status();
            return shard;
          }
          shard.binary.analysis = analysis.take();
          return shard;
        });
    for (size_t i = 0; i < shards.size(); ++i) {
      LAPIS_RETURN_IF_ERROR(shards[i].status);
      const AnalyzedBinary& analyzed = shards[i].binary;
      FoldBinaryCounters(analyzed, result);
      if (analyzed.from_cache) {
        ++result.analyses_from_cache;
      }
      LAPIS_RETURN_IF_ERROR(RegisterLibrary(analyzed, ctx, *resolver));
      link_fp = cache::HashU64(analyzed.content_hash, link_fp);
      result.binary_stats.elf_shared_libraries += 1;
      if (analyzed.name == kLibcSoname) {
        // Record measured per-symbol sizes for the §3.5 analysis.
        for (const auto& fn : analyzed.analysis->functions()) {
          uint32_t id = result.libc_interner.Find(fn.name);
          if (id != UINT32_MAX) {
            result.libc_symbol_sizes[id] = fn.size;
          }
        }
      }
    }
    timer.AddItems(core_libs.size());
  }

  // ---- Packages, stage 1: synthesize + analyze on worker shards ----
  const size_t package_count = result.spec.packages.size();
  std::vector<PackageAnalysis> analyzed;
  {
    runtime::StageTimer timer(&stats, "synthesize+analyze");
    analyzed = runtime::ParallelMap(
        executor, package_count,
        [&synthesizer, &result, &options, &ctx](size_t pkg) {
          return AnalyzePackage(synthesizer, result.spec, options.analyzer,
                                ctx, pkg);
        });
    for (const auto& shard : analyzed) {
      timer.AddItems(shard.binaries.size());
    }
  }

  // ---- Packages, stage 2: deterministic merge — counters + library
  // registration in canonical package order ----
  {
    runtime::StageTimer timer(&stats, "register");
    for (size_t pkg = 0; pkg < package_count; ++pkg) {
      LAPIS_RETURN_IF_ERROR(analyzed[pkg].status);
      for (const auto& binary : analyzed[pkg].binaries) {
        FoldBinaryCounters(binary, result);
        if (binary.from_cache) {
          ++result.analyses_from_cache;
        }
        if (binary.is_library) {
          LAPIS_RETURN_IF_ERROR(RegisterLibrary(binary, ctx, *resolver));
          link_fp = cache::HashU64(binary.content_hash, link_fp);
          result.binary_stats.elf_shared_libraries += 1;
        } else if (binary.is_static) {
          result.binary_stats.elf_static += 1;
        } else {
          result.binary_stats.elf_executables += 1;
        }
      }
    }
    timer.AddItems(package_count);
  }

  // ---- Packages, stage 3: resolve executable footprints and join each
  // package's into one on worker shards. The resolver is fully built and
  // read-only now, so its const fixpoint expansion is safe from any shard,
  // and so are the interner Finds of the join's shard half. Each shard frees
  // its package's resolutions and analyses once they are joined, so that
  // teardown runs in parallel too. ----
  std::vector<ResolvedPackage> resolved;
  {
    runtime::StageTimer timer(&stats, "resolve");
    resolved = runtime::ParallelMap(
        executor, package_count,
        [&analyzed, &resolver, &ctx, &result, link_fp](size_t pkg) {
          ResolvedPackage out;
          for (const auto& binary : analyzed[pkg].binaries) {
            if (binary.is_library) {
              continue;
            }
            bool from_cache = false;
            out.footprint.Add(
                ResolveOrDecode(binary, *resolver, ctx, link_fp, &from_cache),
                result.path_interner, result.libc_interner);
            ++out.executables;
            out.from_cache += from_cache ? 1 : 0;
          }
          out.footprint.Seal();
          analyzed[pkg] = PackageAnalysis{};
          return out;
        });
    analyzed = {};
    for (const auto& shard : resolved) {
      timer.AddItems(shard.executables);
      result.resolutions_from_cache += shard.from_cache;
    }
  }

  // ---- Packages, stage 4: the join's ordered fold (pseudo paths the table
  // lacks are interned in canonical order) ----
  std::vector<PackageFootprint> footprints(package_count);
  {
    runtime::StageTimer timer(&stats, "join");
    for (size_t pkg = 0; pkg < package_count; ++pkg) {
      footprints[pkg] = std::move(resolved[pkg].footprint);
    }
    resolved = {};
    FoldFootprints(footprints, result.path_interner,
                   result.pseudo_path_binary_counts);
    timer.AddItems(package_count);
  }

  // Script packages inherit the interpreter's footprint (§2.3
  // over-approximation); data packages stay empty. `footprint_of[pkg]` is
  // the package whose footprint `pkg` has. The Fig 1 breakdown is measured
  // by scanning the synthesized script files' shebangs, not by trusting
  // the plan.
  std::vector<size_t> footprint_of(package_count);
  {
    runtime::StageTimer timer(&stats, "scripts");
    for (size_t pkg = 0; pkg < package_count; ++pkg) {
      footprint_of[pkg] = pkg;
      const PackagePlan& plan = result.spec.packages[pkg];
      if (plan.interpreter_package.empty()) {
        continue;
      }
      auto it = result.spec.by_name.find(plan.interpreter_package);
      if (it != result.spec.by_name.end()) {
        footprint_of[pkg] = it->second;
      }
    }
    auto script_shards = runtime::ParallelMap(
        executor, package_count, [&synthesizer, &result](size_t pkg) {
          PackageScripts out;
          if (result.spec.packages[pkg].script_count <= 0) {
            return out;
          }
          auto scripts = synthesizer.PackageScripts(pkg);
          if (!scripts.ok()) {
            out.status = scripts.status();
            return out;
          }
          for (const auto& script : scripts.value()) {
            auto info = analysis::ClassifyScript(script.contents);
            if (info.ok()) {
              ++out.kinds[info.value().kind];
            }
          }
          return out;
        });
    for (size_t pkg = 0; pkg < package_count; ++pkg) {
      LAPIS_RETURN_IF_ERROR(script_shards[pkg].status);
      for (const auto& [kind, count] : script_shards[pkg].kinds) {
        result.binary_stats.script_programs[kind] += count;
        timer.AddItems(count);
      }
    }
  }

  // ---- Ground-truth verification ----
  if (options.verify_ground_truth) {
    runtime::StageTimer timer(&stats, "ground-truth");
    auto mismatches = runtime::ParallelMap(
        executor, package_count,
        [&result, &footprints, &footprint_of](size_t pkg) -> uint8_t {
          return std::ranges::equal(
                     result.spec.ExpectedSyscalls(pkg),
                     footprints[footprint_of[pkg]].recovered_syscalls)
                     ? 0
                     : 1;
        });
    for (uint8_t mismatch : mismatches) {
      result.ground_truth_mismatches += mismatch;
    }
    timer.AddItems(package_count);
  }

  // ---- Differential soundness audit (optional) ----
  // Replays every executable in the DynamicTracer and compares against the
  // static footprint. The auditor shares the study's fully-built resolver,
  // so the expensive per-export reachability is not recomputed; binaries
  // are re-synthesized because the analysis stage dropped their bytes.
  if (options.audit) {
    runtime::StageTimer timer(&stats, "audit");
    analysis::FootprintAuditor auditor(resolver.get(), options.analyzer,
                                       executor);

    struct AuditBinary {
      std::string name;
      bool is_library = false;
      std::shared_ptr<const elf::ElfImage> image;
    };
    struct AuditShard {
      Status status;
      std::vector<AuditBinary> binaries;
    };

    // Core libraries: the tracer follows PLT calls into them.
    {
      LAPIS_ASSIGN_OR_RETURN(auto core_libs, synthesizer.CoreLibraries());
      auto core_shards = runtime::ParallelMap(
          executor, core_libs.size(), [&core_libs](size_t i) {
            AuditShard shard;
            auto image = elf::ElfReader::Parse(core_libs[i].bytes);
            if (!image.ok()) {
              shard.status = image.status();
              return shard;
            }
            AuditBinary binary;
            binary.name = core_libs[i].name;
            binary.is_library = true;
            binary.image =
                std::make_shared<const elf::ElfImage>(image.take());
            shard.binaries.push_back(std::move(binary));
            return shard;
          });
      for (auto& shard : core_shards) {
        LAPIS_RETURN_IF_ERROR(shard.status);
        for (auto& binary : shard.binaries) {
          LAPIS_RETURN_IF_ERROR(auditor.AddLibrary(binary.image));
        }
      }
    }

    // Re-synthesize + parse package binaries on worker shards (the image
    // copies the bytes, so the synth output dies inside the shard).
    auto audit_inputs = runtime::ParallelMap(
        executor, package_count, [&synthesizer, &result](size_t pkg) {
          AuditShard shard;
          const PackagePlan& plan = result.spec.packages[pkg];
          if (plan.data_only || !plan.interpreter_package.empty()) {
            return shard;
          }
          auto binaries = synthesizer.PackageBinaries(pkg);
          if (!binaries.ok()) {
            shard.status = binaries.status();
            return shard;
          }
          for (auto& synthesized : binaries.value()) {
            auto image = elf::ElfReader::Parse(synthesized.bytes);
            if (!image.ok()) {
              shard.status = image.status();
              return shard;
            }
            AuditBinary binary;
            binary.name = std::move(synthesized.name);
            binary.is_library = synthesized.is_library;
            binary.image =
                std::make_shared<const elf::ElfImage>(image.take());
            shard.binaries.push_back(std::move(binary));
          }
          return shard;
        });
    // Package libraries register in canonical order before any replay.
    for (auto& shard : audit_inputs) {
      LAPIS_RETURN_IF_ERROR(shard.status);
      for (auto& binary : shard.binaries) {
        if (binary.is_library) {
          LAPIS_RETURN_IF_ERROR(auditor.AddLibrary(binary.image));
        }
      }
    }

    // Replay executables in parallel; fold in canonical (package, binary)
    // order so the report is identical at every worker count.
    struct AuditOutcome {
      Status status;
      std::vector<analysis::BinaryAuditResult> results;
    };
    auto audit_outcomes = runtime::ParallelMap(
        executor, package_count, [&audit_inputs, &auditor](size_t pkg) {
          AuditOutcome out;
          for (const auto& binary : audit_inputs[pkg].binaries) {
            if (binary.is_library) {
              continue;
            }
            auto audited =
                auditor.AuditExecutable(*binary.image, binary.name);
            if (!audited.ok()) {
              out.status = audited.status();
              return out;
            }
            out.results.push_back(audited.take());
          }
          return out;
        });
    analysis::AuditReport report;
    for (auto& outcome : audit_outcomes) {
      LAPIS_RETURN_IF_ERROR(outcome.status);
      for (auto& binary_result : outcome.results) {
        report.Fold(std::move(binary_result));
      }
    }
    timer.AddItems(report.executables_audited);
    result.audit = std::move(report);
  }

  // ---- Popularity-contest survey ----
  {
    runtime::StageTimer timer(&stats, "popcon");
    const std::vector<double> marginals = SurveyMarginals(result.spec);
    const package::PopconOptions popcon = SurveyOptions(options);
    // The survey is a pure function of (repository, marginals, options):
    // cacheable by input hash.
    cache::CacheKey survey_key;
    bool survey_restored = false;
    if (ctx) {
      survey_key = cache::SurveyCacheKey(result.repository, marginals, popcon);
      auto payload = ctx.cache->Lookup(survey_key);
      if (payload != nullptr) {
        ByteReader reader(*payload);
        // A record that does not fit this repository is a miss.
        auto decoded = cache::SurveyCodec::Decode(reader, package_count);
        if (decoded.ok()) {
          result.survey = decoded.take();
          survey_restored = true;
        }
      }
    }
    if (!survey_restored) {
      LAPIS_ASSIGN_OR_RETURN(result.survey,
                             package::PopconSimulator::Run(
                                 result.repository, marginals, popcon,
                                 executor));
      if (ctx) {
        ByteWriter writer;
        cache::SurveyCodec::Encode(result.survey, writer);
        ctx.cache->Insert(survey_key, writer.bytes());
      }
    }
    timer.AddItems(options.distro.installation_count);
  }

  // ---- Dataset assembly ----
  {
    runtime::StageTimer timer(&stats, "dataset");
    result.dataset = std::make_unique<core::StudyDataset>(
        package_count, result.survey.total_reporting);
    for (size_t pkg = 0; pkg < package_count; ++pkg) {
      const PackagePlan& plan = result.spec.packages[pkg];
      LAPIS_RETURN_IF_ERROR(
          result.dataset->SetPackageName(static_cast<uint32_t>(pkg),
                                         plan.name));
      LAPIS_RETURN_IF_ERROR(result.dataset->SetInstallCount(
          static_cast<uint32_t>(pkg), result.survey.install_counts[pkg]));
      LAPIS_RETURN_IF_ERROR(result.dataset->SetFootprint(
          static_cast<uint32_t>(pkg), footprints[footprint_of[pkg]].apis));
      const package::Package& pkg_meta =
          result.repository.package(static_cast<package::PackageId>(pkg));
      std::vector<core::PackageId> deps(pkg_meta.depends.begin(),
                                        pkg_meta.depends.end());
      if (pkg_meta.interpreter != package::kInvalidPackage) {
        deps.push_back(pkg_meta.interpreter);
      }
      LAPIS_RETURN_IF_ERROR(result.dataset->SetDependencies(
          static_cast<uint32_t>(pkg), std::move(deps)));
    }
    LAPIS_RETURN_IF_ERROR(result.dataset->Finalize());
    timer.AddItems(package_count);
  }

  // ---- Audit evidence ----
  // Lift the audit's merged observed footprint to ApiIds now that the path
  // interner is final. Paths the replay touched but no static footprint
  // claims (impossible while the auditor is sound) have no interned id and
  // are dropped — they cannot appear in any package's footprint anyway.
  if (result.audit.has_value()) {
    const analysis::Footprint& seen = result.audit->observed_union;
    result.evidence_kinds_mask = static_cast<uint8_t>(
        (1u << static_cast<uint8_t>(core::ApiKind::kSyscall)) |
        (1u << static_cast<uint8_t>(core::ApiKind::kIoctlOp)) |
        (1u << static_cast<uint8_t>(core::ApiKind::kFcntlOp)) |
        (1u << static_cast<uint8_t>(core::ApiKind::kPrctlOp)) |
        (1u << static_cast<uint8_t>(core::ApiKind::kPseudoFile)));
    for (int nr : seen.syscalls) {
      result.evidence_observed.insert(
          core::SyscallApi(static_cast<uint32_t>(nr)));
    }
    for (uint32_t op : seen.ioctl_ops) {
      result.evidence_observed.insert(core::IoctlApi(op));
    }
    for (uint32_t op : seen.fcntl_ops) {
      result.evidence_observed.insert(core::FcntlApi(op));
    }
    for (uint32_t op : seen.prctl_ops) {
      result.evidence_observed.insert(core::PrctlApi(op));
    }
    for (const std::string& path : seen.pseudo_paths) {
      uint32_t id = result.path_interner.Find(path);
      if (id != UINT32_MAX) {
        result.evidence_observed.insert(
            core::ApiId{core::ApiKind::kPseudoFile, id});
      }
    }
  }

  if (ctx) {
    result.cache_stats = ctx.cache->stats() - cache_start;
  }

  // ---- Teardown: the run's working state is freed inside a stage, so the
  // stage records cover all of the run ----
  {
    runtime::StageTimer timer(&stats, "teardown");
    footprints = {};
    resolver.reset();
    owned_cache.reset();
  }
  result.executor_stats = executor->stats();
  return result;
}

}  // namespace lapis::corpus
