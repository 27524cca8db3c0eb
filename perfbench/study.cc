// study_warm: corpus::RunStudy on the default corpus against a cache
// directory that a cold study (an empty cache directory) fills during
// set-up. The timed warm runs skip popcon and the per-binary analysis
// chain; the cold study shows in setup_s.
//
// The traced run adds two layer walks: the benchmark itself drives the
// same corpus through each layer's public functions, one span per call,
// so the per-call medians come from the benchmark's own calls rather than
// from spans inside the program. The cold walk follows the set-up's path
// (synthesis, ELF parse, sweep, CFG, dataflow, analyzer, cache encode +
// insert, library resolution, popcon, dataset finalize); the warm walk
// follows the timed runs' path (synthesis, cache lookup + decode,
// finalize) and never calls popcon.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/analysis/binary_analyzer.h"
#include "src/analysis/cfg.h"
#include "src/analysis/dataflow.h"
#include "src/analysis/library_resolver.h"
#include "src/cache/analysis_codec.h"
#include "src/cache/content_hash.h"
#include "src/cache/footprint_cache.h"
#include "src/corpus/binary_synth.h"
#include "src/corpus/distro_spec.h"
#include "src/disasm/decoder.h"
#include "src/elf/elf_reader.h"
#include "src/package/popcon.h"
#include "src/runtime/stage_stats.h"

namespace lapis::perfbench {

namespace {

using analysis::BinaryAnalysis;

// One binary through the per-binary chain. BinaryAnalyzer::Analyze repeats
// the sweep, CFG and dataflow internally; calling them separately first
// gives each its own per-function time.
Result<std::shared_ptr<const BinaryAnalysis>> WalkBinary(
    const corpus::SynthesizedBinary& binary,
    const analysis::AnalyzerOptions& analyzer, cache::FootprintCache& cache,
    uint64_t fingerprint, bool warm, Tracer& tracer) {
  const cache::CacheKey key{cache::HashBytes(binary.bytes), fingerprint};
  auto payload =
      Traced(tracer, "cache.lookup", [&] { return cache.Lookup(key); });
  if (warm) {
    if (payload == nullptr) {
      return NotFoundError("primed cache has no analysis of " + binary.name);
    }
    ByteReader reader(*payload);
    auto decoded = Traced(tracer, "cache.decode", [&] {
      return cache::AnalysisCodec::Decode(reader);
    });
    LAPIS_RETURN_IF_ERROR(decoded.status());
    return std::shared_ptr<const BinaryAnalysis>(
        std::make_shared<BinaryAnalysis>(decoded.take()));
  }
  auto image = Traced(tracer, "elf.parse", [&] {
    return elf::ElfReader::Parse(binary.bytes);
  });
  LAPIS_RETURN_IF_ERROR(image.status());
  for (const elf::Symbol* sym : image.value().DefinedFunctions()) {
    auto body = image.value().DataAtVaddr(sym->value, sym->size);
    if (body.empty()) {
      continue;
    }
    auto sweep = Traced(tracer, "disasm.sweep", [&] {
      return disasm::LinearSweep(body, sym->value);
    });
    auto cfg = Traced(tracer, "analysis.cfg", [&] {
      return analysis::ControlFlowGraph::Build(sweep);
    });
    Traced(tracer, "analysis.dataflow", [&] {
      return analysis::ComputeInsnStates(sweep, cfg,
                                         analysis::PropagationMode::kDataflow)
          .size();
    });
  }
  auto analyzed = Traced(tracer, "analysis.analyze", [&] {
    return analysis::BinaryAnalyzer::Analyze(image.value(), analyzer);
  });
  LAPIS_RETURN_IF_ERROR(analyzed.status());
  auto shared = std::make_shared<const BinaryAnalysis>(analyzed.take());
  ByteWriter writer;
  Traced(tracer, "cache.encode", [&] {
    cache::AnalysisCodec::Encode(*shared, writer);
    return 0;
  });
  Traced(tracer, "cache.insert", [&] {
    cache.Insert(key, writer.bytes());
    return 0;
  });
  return std::shared_ptr<const BinaryAnalysis>(std::move(shared));
}

Status LayerWalk(const corpus::StudyOptions& options,
                 const corpus::StudyResult& study, bool warm,
                 const std::string& cache_dir, Tracer& tracer) {
  Span walk(&tracer, "walk", 0);
  LAPIS_ASSIGN_OR_RETURN(auto spec, corpus::BuildDistroSpec(options.distro));
  corpus::DistroSynthesizer synthesizer(spec);
  LAPIS_ASSIGN_OR_RETURN(auto cache,
                         cache::FootprintCache::Open(warm ? cache_dir : ""));
  const uint64_t fingerprint = cache::ConfigFingerprint(
      options.analyzer, cache::EntryKind::kAnalysis);

  analysis::LibraryResolver resolver;
  std::vector<std::shared_ptr<const BinaryAnalysis>> executables;
  auto walk_binaries =
      [&](const std::vector<corpus::SynthesizedBinary>& binaries) -> Status {
    for (const auto& binary : binaries) {
      LAPIS_ASSIGN_OR_RETURN(auto analyzed,
                             WalkBinary(binary, options.analyzer, *cache,
                                        fingerprint, warm, tracer));
      if (warm) {
        continue;
      }
      if (binary.is_library) {
        LAPIS_RETURN_IF_ERROR(resolver.AddLibrary(std::move(analyzed)));
      } else {
        executables.push_back(std::move(analyzed));
      }
    }
    return Status::Ok();
  };
  {
    Span core_libs(&tracer, "core_libs", 1);
    LAPIS_ASSIGN_OR_RETURN(auto libs, synthesizer.CoreLibraries());
    LAPIS_RETURN_IF_ERROR(walk_binaries(libs));
  }
  for (size_t pkg = 0; pkg < spec.packages.size(); ++pkg) {
    const corpus::PackagePlan& plan = spec.packages[pkg];
    if (plan.data_only || !plan.interpreter_package.empty()) {
      continue;
    }
    Span package(&tracer, "package", pkg + 2);
    auto binaries = Traced(tracer, "corpus.synthesize", [&] {
      return synthesizer.PackageBinaries(pkg);
    });
    LAPIS_RETURN_IF_ERROR(binaries.status());
    LAPIS_RETURN_IF_ERROR(walk_binaries(binaries.value()));
  }
  if (!warm) {
    for (const auto& exe : executables) {
      Traced(tracer, "analysis.resolve", [&] {
        return resolver.ResolveExecutable(*exe).footprint.syscalls.size();
      });
    }
    std::vector<double> marginals;
    marginals.reserve(spec.packages.size());
    for (const auto& plan : spec.packages) {
      marginals.push_back(plan.target_marginal);
    }
    LAPIS_ASSIGN_OR_RETURN(auto repository, synthesizer.BuildRepository());
    package::PopconOptions popcon;
    popcon.installation_count = options.distro.installation_count;
    popcon.report_rate = options.distro.popcon_report_rate;
    popcon.seed = options.distro.seed ^ 0x9e3779b97f4a7c15ULL;
    auto survey = Traced(tracer, "package.popcon", [&] {
      return package::PopconSimulator::Run(repository, marginals, popcon);
    });
    LAPIS_RETURN_IF_ERROR(survey.status());
    if (survey.value().install_counts != study.survey.install_counts) {
      return InternalError("layer walk popcon differs from RunStudy's");
    }
  }
  return TimedFinalize(*study.dataset, tracer);
}

// Calls `op(i)` for i = 0, 1, ... until `seconds` of wall time have passed
// since the first call and at least `min_iterations` calls ran. `op` times
// its own operation, so per-iteration checks stay out of the samples.
template <typename Op>
void RepeatFor(double seconds, size_t min_iterations, Op&& op) {
  const int64_t start = NowNs();
  size_t i = 0;
  while (i < min_iterations ||
         static_cast<double>(NowNs() - start) * 1e-9 < seconds) {
    op(i++);
  }
}

}  // namespace

Status RunStudyWarm(const Config& config, Tracer& tracer, Report& report) {
  const std::string cache_dir = config.work_dir + "/primed-cache";
  corpus::StudyOptions options = StudyOptionsFor(config);
  options.cache_dir = cache_dir;

  // Set-up: one cold study fills an empty cache directory. Its export
  // digest is the reference every warm study must reproduce.
  std::vector<double> setup_s;
  uint64_t reference = 0;
  for (int i = 0; i < config.setups; ++i) {
    Span span(&tracer, "setup", 0);
    const int64_t start = NowNs();
    if (!ResetDir(cache_dir)) {
      return IoError("cannot create " + cache_dir);
    }
    auto study = Traced(tracer, "corpus.run_study",
                        [&] { return corpus::RunStudy(options); });
    LAPIS_RETURN_IF_ERROR(study.status());
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    const uint64_t digest = ExportDigest(study.value());
    report.Check(i == 0 || digest == reference,
                 "set-up studies export different bytes");
    report.Check(study.value().ground_truth_mismatches == 0,
                 "cold study: ground-truth mismatches");
    reference = digest;
  }
  report.Timing("setup_s", setup_s, "s");
  report.Digest("export", reference);

  // Timed loop. A traced run measures half its window untraced and half
  // traced; trace.overhead is the ratio of their medians.
  // peak_rss_rise_mib is what the untraced warm studies add to the
  // resident size left after the cold set-up studies.
  const double rss_base_mib = ResetPeakRss();
  report.Check(rss_base_mib >= 0, "cannot reset the peak RSS");
  Tracer untraced(false);
  std::vector<double> samples[2];
  double cpu_s = 0.0;
  std::unique_ptr<corpus::StudyResult> last;
  const int phases = config.trace ? 2 : 1;
  for (int phase = 0; phase < phases; ++phase) {
    Tracer& phase_tracer = phase == 1 ? tracer : untraced;
    RepeatFor(config.seconds / phases, 1, [&](size_t i) {
      last.reset();  // one study result alive at a time
      const double cpu_start = runtime::ProcessCpuSeconds();
      const int64_t start = NowNs();
      auto study = [&] {
        Span span(&phase_tracer, "corpus.run_study", i + 1);
        return corpus::RunStudy(options);
      }();
      samples[phase].push_back(static_cast<double>(NowNs() - start) * 1e-9);
      if (phase == 0) {
        cpu_s += runtime::ProcessCpuSeconds() - cpu_start;
      }
      if (!study.ok()) {
        report.Attempt(false, study.status().ToString());
        return;
      }
      const corpus::StudyResult& result = study.value();
      const bool digest_ok = ExportDigest(result) == reference;
      const bool truth_ok = result.ground_truth_mismatches == 0;
      const bool warm_ok =
          result.analyses_from_cache == result.analyzed_binaries;
      report.Check(digest_ok, "warm export differs from the cold study");
      report.Check(truth_ok, "ground-truth mismatches");
      report.Check(warm_ok, "warm run re-analyzed binaries");
      report.Attempt(digest_ok && truth_ok && warm_ok, "study output check");
      last = std::make_unique<corpus::StudyResult>(study.take());
    });
    if (phase == 0) {
      report.Metric("peak_rss_rise_mib", PeakRssMib() - rss_base_mib,
                    "MiB");
    }
  }
  report.Timing("study_s", samples[0], "s");
  report.Timing("op_p50_ms", samples[0], "ms");
  double study_total_s = 0.0;
  for (double sample : samples[0]) {
    study_total_s += sample;
  }
  report.Metric("ops_per_s",
                static_cast<double>(samples[0].size()) / study_total_s, "1/s");
  report.Metric("cpu_ms_per_op",
                cpu_s * 1e3 / static_cast<double>(samples[0].size()), "ms");
  if (last == nullptr) {
    return InternalError("no study iteration succeeded");
  }
  ReportStudyStats(*last, report);

  if (config.trace) {
    report.Metric("trace.overhead", Median(samples[1]) / Median(samples[0]),
                  "ratio");
    // The cold path the set-up ran, then the warm path the timed runs take.
    for (bool warm : {false, true}) {
      Status walk = LayerWalk(options, *last, warm, cache_dir, tracer);
      report.Check(walk.ok(), "layer walk: " + walk.ToString());
    }
  }
  return Status::Ok();
}

}  // namespace lapis::perfbench
