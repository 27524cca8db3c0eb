// Shared pieces of the lapis_perfbench workloads: run configuration, the
// result report (metrics, attempted/failed operations, output checks,
// digests), timing summaries and study helpers.

#ifndef LAPIS_PERFBENCH_COMMON_H_
#define LAPIS_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "src/corpus/study_runner.h"

namespace lapis::perfbench {

// Pipeline worker threads of every study: the 4 CPUs of the host the
// default corpus is measured on.
constexpr size_t kJobs = 4;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // measured window
  bool trace = false;
  size_t apps = 3000;
  uint64_t installs = 100000;
  int setups = 5;  // set-up repetitions; setup_s is their median
  std::string work_dir;  // caches, artifacts, socket, spans
};

// Median and the highest of p90/p99/p99.9 that still has at least ten
// samples beyond it (tail_pct = 0 when no percentile qualifies).
struct TimingSummary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
};
TimingSummary Summarize(std::vector<double> values);
// Seconds -> `unit` ("s", "ms" or "us") factor.
double UnitScale(const std::string& unit);
double Median(std::vector<double> values);
// Nearest-rank percentile of an unsorted sample (0 when empty).
double Percentile(std::vector<double> values, double pct);

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // Records `samples_s` (seconds) as timing `name`: the median becomes a
  // metric in `unit` ("s", "ms" or "us"), and the full summary is kept for
  // the printed report.
  void Timing(const std::string& name, const std::vector<double>& samples_s,
              const std::string& unit);
  // One attempted operation of the workload; `ok` false counts it failed.
  void Attempt(bool ok, const std::string& what = "");
  // `attempted` operations of which `failed` failed, the first as `what`.
  void Attempts(uint64_t attempted, uint64_t failed, const std::string& what);
  // An output check; a failure marks the whole result incorrect.
  void Check(bool ok, const std::string& what);
  void Digest(const std::string& name, uint64_t value);
  void Note(const std::string& key, const std::string& value);

  bool correct() const { return check_failures_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // The whole report as one JSON object on one line.
  std::string ToJson() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, std::pair<TimingSummary, std::string>> timings_;
  std::map<std::string, std::string> digests_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> check_failures_;
  std::vector<std::string> failure_samples_;
  uint64_t checks_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Study options for the default corpus at `config` scale and seed.
corpus::StudyOptions StudyOptionsFor(const Config& config);

// FNV-1a digest of the study's TSV exports (importance over every API
// kind, packages, footprints) — what lapis_study --export-dir writes.
uint64_t ExportDigest(const corpus::StudyResult& study);

// Stage, cache, executor and analysis-health metrics of one RunStudy.
void ReportStudyStats(const corpus::StudyResult& study, Report& report);

// Rebuilds `source` unfinalized and records StudyDataset::Finalize on the
// copy as span "core.finalize".
Status TimedFinalize(const core::StudyDataset& source, Tracer& tracer);

// Creates `path` (and parents) after removing anything there.
bool ResetDir(const std::string& path);

// Returns freed heap to the system and resets the process's peak resident
// set size to its current one (Linux /proc/self/clear_refs), so that
// PeakRssMib() then measures only what runs after the call. Returns the
// resident size after the reset in MiB, negative if the reset failed.
double ResetPeakRss();

// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMib();

}  // namespace lapis::perfbench

#endif  // LAPIS_PERFBENCH_COMMON_H_
