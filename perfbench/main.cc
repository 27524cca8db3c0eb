// lapis_perfbench: runs one benchmark workload and prints its report as
// one JSON line on stdout (metrics with units, attempted/failed
// operations, output checks, digests, provenance). perfbench/run.py builds
// this binary, runs it, and selects the metrics BENCHMARK.json names.
//
//   lapis_perfbench --workload=study_warm --seed=7 --seconds=10 --trace=0
//       --work-dir=DIR [--spans-out=FILE] [--apps=N --installs=N]
//
// With --trace=1 the run records spans around its own calls into each
// layer, writes them to --spans-out, prints a self-time table on stderr,
// and reports per-call medians and counts as metrics.

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench/common.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/util/flags.h"

#ifndef LAPIS_PERFBENCH_BUILD_TYPE
#define LAPIS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace lapis::perfbench {
namespace {

// Span name -> metric: the per-call median in `unit`; the call count is
// reported as "<span>.calls".
struct TracedMetric {
  const char* span;
  const char* metric;
  const char* unit;
};
constexpr TracedMetric kTracedMetrics[] = {
    {"corpus.synthesize", "corpus.synthesize_us", "us"},
    {"elf.parse", "elf.parse_us", "us"},
    {"disasm.sweep", "disasm.sweep_us", "us"},
    {"analysis.cfg", "analysis.cfg_us", "us"},
    {"analysis.dataflow", "analysis.dataflow_us", "us"},
    {"analysis.analyze", "analysis.analyze_us", "us"},
    {"analysis.resolve", "analysis.resolve_us", "us"},
    {"package.popcon", "package.popcon_s", "s"},
    {"cache.encode", "cache.encode_us", "us"},
    {"cache.decode", "cache.decode_us", "us"},
    {"cache.insert", "cache.insert_us", "us"},
    {"cache.lookup", "cache.lookup_us", "us"},
    {"core.finalize", "core.finalize_s", "s"},
    {"corpus.serialize", "corpus.serialize_ms", "ms"},
    {"corpus.deserialize", "corpus.deserialize_ms", "ms"},
    {"serve.execute.importance", "serve.execute_us.importance", "us"},
    {"serve.execute.eval_profile", "serve.execute_us.eval_profile", "us"},
    {"serve.execute.top_k", "serve.execute_us.top_k", "us"},
    {"serve.snapshot_load", "serve.snapshot_load_ms", "ms"},
    {"serve.swap", "serve.swap_us", "us"},
    {"core.weighted_completeness", "core.weighted_completeness_us", "us"},
    {"core.evaluate_system", "core.evaluate_system_ms", "ms"},
    {"core.greedy_path", "core.greedy_path_ms", "ms"},
    {"core.decompose_stages", "core.decompose_stages_ms", "ms"},
    {"plan.greedy.none", "plan.greedy_ms.none", "ms"},
    {"plan.greedy.uml", "plan.greedy_ms.uml", "ms"},
    {"plan.greedy.l4linux", "plan.greedy_ms.l4linux", "ms"},
    {"plan.greedy.freebsd_emu", "plan.greedy_ms.freebsd_emu", "ms"},
    {"plan.greedy.graphene", "plan.greedy_ms.graphene", "ms"},
    {"plan.greedy.graphene_sched", "plan.greedy_ms.graphene_sched", "ms"},
    {"plan.importance_order", "plan.importance_order_ms", "ms"},
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

void ReportTrace(const Tracer& tracer, const std::string& spans_out,
                 Report& report) {
  const auto summary = tracer.Summarize();
  for (const auto& traced : kTracedMetrics) {
    auto it = summary.find(traced.span);
    if (it == summary.end()) {
      continue;
    }
    report.Metric(traced.metric, it->second.median_s * UnitScale(traced.unit),
                  traced.unit);
    report.Metric(std::string(traced.span) + ".calls",
                  static_cast<double>(it->second.calls), "count");
  }
  std::fprintf(stderr, "%-32s %10s %12s %12s %12s\n", "span", "calls",
               "median_us", "total_ms", "self_ms");
  for (const auto& [name, s] : summary) {
    std::fprintf(stderr, "%-32s %10llu %12.2f %12.2f %12.2f\n", name.c_str(),
                 static_cast<unsigned long long>(s.calls), s.median_s * 1e6,
                 s.total_s * 1e3, s.self_s * 1e3);
  }
  if (!spans_out.empty()) {
    report.Check(tracer.WriteTsv(spans_out), "cannot write " + spans_out);
    report.Note("spans", spans_out);
  }
}

int Main(int argc, char** argv) {
  FlagParser flags("lapis_perfbench: run one benchmark workload");
  flags.AddString("workload", "",
                  "study_warm | serve_mix");
  flags.AddInt("seed", 1, "workload seed (corpus and request generation)");
  flags.AddDouble("seconds", 10.0, "measured window");
  flags.AddInt("trace", 0, "1 = traced run (per-layer metrics)");
  flags.AddString("work-dir", "", "scratch directory for caches and sockets");
  flags.AddString("spans-out", "", "traced run: write spans here (TSV)");
  flags.AddInt("apps", 3000, "application packages");
  flags.AddInt("installs", 100000, "simulated installations");
  flags.AddInt("setups", 5, "set-up repetitions (setup_s is the median)");
  Status parsed = flags.Parse(argc - 1, argv + 1);
  if (!parsed.ok() || flags.GetString("work-dir").empty() ||
      flags.GetInt("seed") < 0 || flags.GetInt("apps") <= 0 ||
      flags.GetInt("installs") <= 0 || flags.GetInt("setups") <= 0 ||
      flags.GetDouble("seconds") <= 0) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  Config config;
  config.workload = flags.GetString("workload");
  config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  config.seconds = flags.GetDouble("seconds");
  config.trace = flags.GetInt("trace") != 0;
  config.apps = static_cast<size_t>(flags.GetInt("apps"));
  config.installs = static_cast<uint64_t>(flags.GetInt("installs"));
  config.setups = static_cast<int>(flags.GetInt("setups"));
  config.work_dir = flags.GetString("work-dir");
  if (!ResetDir(config.work_dir)) {
    std::fprintf(stderr, "cannot create %s\n", config.work_dir.c_str());
    return 2;
  }

  Tracer tracer(config.trace);
  Report report;
  Status status;
  if (config.workload == "study_warm") {
    status = RunStudyWarm(config, tracer, report);
  } else if (config.workload == "serve_mix") {
    status = RunServeMix(config, tracer, report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n%s",
                 config.workload.c_str(), flags.Usage().c_str());
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s set-up failed: %s\n", config.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  report.Metric("error_rate",
                report.attempted() == 0
                    ? 1.0
                    : static_cast<double>(report.failed()) /
                          static_cast<double>(report.attempted()),
                "ratio");
  if (config.trace) {
    ReportTrace(tracer, flags.GetString("spans-out"), report);
  }
  report.Note("workload", config.workload);
  report.Note("seed", std::to_string(config.seed));
  report.Note("scale", "--apps=" + std::to_string(config.apps) +
                           " --installs=" + std::to_string(config.installs) +
                           " --jobs=" + std::to_string(kJobs));
  report.Note("cpu_model", CpuModel());
  report.Note("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Note("compiler", __VERSION__);
  report.Note("build_type", LAPIS_PERFBENCH_BUILD_TYPE);
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace lapis::perfbench

int main(int argc, char** argv) { return lapis::perfbench::Main(argc, argv); }
