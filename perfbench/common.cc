#include "perfbench/common.h"

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string_view>

#include "src/cache/content_hash.h"
#include "src/core/report.h"

namespace lapis::perfbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

// Folds every byte written into an FNV-1a hash (cache::HashString chained
// over the chunks), so an export is digested without being held in memory:
// a buffered copy would count toward the timed studies' peak RSS.
class HashingStreamBuf : public std::streambuf {
 public:
  uint64_t hash() const { return hash_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    hash_ = cache::HashString(std::string_view(s, static_cast<size_t>(n)),
                              hash_);
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      const char ch = traits_type::to_char_type(c);
      hash_ = cache::HashString(std::string_view(&ch, 1), hash_);
    }
    return traits_type::not_eof(c);
  }

 private:
  uint64_t hash_ = cache::kFnvOffsetBasis;
};

// Stage names from PipelineStats, spelled with the characters metric names
// allow.
std::string StageMetricName(const std::string& stage) {
  if (stage == "synthesize+analyze") {
    return "synthesize_analyze";
  }
  if (stage == "ground-truth") {
    return "ground_truth";
  }
  return stage;
}

}  // namespace

double UnitScale(const std::string& unit) {
  if (unit == "ms") {
    return 1e3;
  }
  if (unit == "us") {
    return 1e6;
  }
  return 1.0;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank =
      std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

TimingSummary Summarize(std::vector<double> values) {
  TimingSummary out;
  out.n = values.size();
  out.p50 = Median(values);
  for (double pct : {99.9, 99.0, 90.0}) {
    const double beyond = (1.0 - pct / 100.0) * static_cast<double>(out.n);
    if (beyond >= 10.0) {
      out.tail = Percentile(values, pct);
      out.tail_pct = pct;
      break;
    }
  }
  return out;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::Timing(const std::string& name,
                    const std::vector<double>& samples_s,
                    const std::string& unit) {
  TimingSummary summary = Summarize(samples_s);
  Metric(name, summary.p50 * UnitScale(unit), unit);
  timings_[name] = {summary, unit};
}

void Report::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failure_samples_.size() < 8) {
      failure_samples_.push_back(what);
    }
  }
}

void Report::Attempts(uint64_t attempted, uint64_t failed,
                      const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0 && failure_samples_.size() < 8) {
    failure_samples_.push_back(what);
  }
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok && check_failures_.size() < 32) {
    check_failures_.push_back(what);
  }
}

void Report::Digest(const std::string& name, uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  digests_[name] = buf;
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_[key] = value;
}

std::string Report::ToJson() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"checks\": " << checks_ << ", \"check_failures\": [";
  for (size_t i = 0; i < check_failures_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(check_failures_[i]);
  }
  os << "], \"failure_samples\": [";
  for (size_t i = 0; i < failure_samples_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(failure_samples_[i]);
  }
  os << "], \"notes\": {";
  bool first = true;
  for (const auto& [key, value] : notes_) {
    os << (first ? "" : ", ") << JsonString(key) << ": " << JsonString(value);
    first = false;
  }
  os << "}, \"digests\": {";
  first = true;
  for (const auto& [key, value] : digests_) {
    os << (first ? "" : ", ") << JsonString(key) << ": " << JsonString(value);
    first = false;
  }
  os << "}, \"timings\": {";
  first = true;
  for (const auto& [key, entry] : timings_) {
    const auto& [summary, unit] = entry;
    const double scale = UnitScale(unit);
    os << (first ? "" : ", ") << JsonString(key) << ": {\"unit\": "
       << JsonString(unit) << ", \"n\": " << summary.n
       << ", \"p50\": " << JsonNumber(summary.p50 * scale)
       << ", \"tail_pct\": " << JsonNumber(summary.tail_pct)
       << ", \"tail\": " << JsonNumber(summary.tail * scale) << "}";
    first = false;
  }
  os << "}, \"metrics\": {";
  first = true;
  for (const auto& [key, value] : metrics_) {
    os << (first ? "" : ", ") << JsonString(key) << ": {\"value\": "
       << JsonNumber(value.value) << ", \"unit\": " << JsonString(value.unit)
       << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

corpus::StudyOptions StudyOptionsFor(const Config& config) {
  corpus::StudyOptions options;
  options.distro.app_package_count = config.apps;
  options.distro.installation_count = config.installs;
  options.distro.seed = config.seed;
  options.jobs = kJobs;
  return options;
}

uint64_t ExportDigest(const corpus::StudyResult& study) {
  HashingStreamBuf digest;
  std::ostream os(&digest);
  (void)core::ExportImportanceTsv(
      *study.dataset,
      {core::ApiKind::kSyscall, core::ApiKind::kIoctlOp,
       core::ApiKind::kFcntlOp, core::ApiKind::kPrctlOp,
       core::ApiKind::kPseudoFile, core::ApiKind::kLibcFn},
      study.path_interner, study.libc_interner, os);
  (void)core::ExportPackagesTsv(*study.dataset, os);
  (void)core::ExportFootprintsTsv(*study.dataset, study.path_interner,
                                  study.libc_interner, os);
  return digest.hash();
}

void ReportStudyStats(const corpus::StudyResult& study, Report& report) {
  for (const auto& [stage, record] : study.pipeline_stats.stages()) {
    const std::string base = "stage." + StageMetricName(stage);
    report.Metric(base + ".wall_s", record.wall_seconds, "s");
    report.Metric(base + ".cpu_s", record.cpu_seconds, "s");
    report.Metric(base + ".items", static_cast<double>(record.items),
                  "count");
  }
  const cache::CacheStats& cache = study.cache_stats;
  report.Metric("cache.lookups", static_cast<double>(cache.Lookups()),
                "count");
  report.Metric("cache.hits", static_cast<double>(cache.hits), "count");
  report.Metric("cache.hit_rate", cache.HitRate(), "ratio");
  report.Metric("cache.kib_read",
                static_cast<double>(cache.bytes_read) / 1024.0, "KiB");
  report.Metric("cache.kib_written",
                static_cast<double>(cache.bytes_written) / 1024.0, "KiB");
  report.Metric("cache.analyses_restored",
                static_cast<double>(study.analyses_from_cache), "count");
  report.Metric("executor.tasks",
                static_cast<double>(study.executor_stats.tasks_executed),
                "count");
  report.Metric("executor.steals",
                static_cast<double>(study.executor_stats.steals), "count");
  report.Metric("executor.max_queue_depth",
                static_cast<double>(study.executor_stats.max_queue_depth),
                "count");
  report.Metric("analysis.unknown_site_ratio",
                study.total_syscall_sites == 0
                    ? 0.0
                    : static_cast<double>(study.unknown_syscall_sites) /
                          static_cast<double>(study.total_syscall_sites),
                "ratio");
}

Status TimedFinalize(const core::StudyDataset& source, Tracer& tracer) {
  const size_t n = source.package_count();
  core::StudyDataset copy(n, source.total_installations());
  for (uint32_t id = 0; id < n; ++id) {
    LAPIS_RETURN_IF_ERROR(copy.SetPackageName(id, source.PackageName(id)));
    LAPIS_RETURN_IF_ERROR(copy.SetInstallCount(id, source.InstallCount(id)));
    LAPIS_RETURN_IF_ERROR(copy.SetFootprint(id, source.Footprint(id)));
    LAPIS_RETURN_IF_ERROR(
        copy.SetDependencies(id, source.DirectDependencies(id)));
  }
  return Traced(tracer, "core.finalize", [&] { return copy.Finalize(); });
}

bool ResetDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  return std::filesystem::create_directories(path, ec) && !ec;
}

double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return out.good() ? PeakRssMib() : -1.0;
}

}  // namespace lapis::perfbench
