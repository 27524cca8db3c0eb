#include "perfbench/trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>

namespace lapis::perfbench {

namespace {

thread_local Span* t_current = nullptr;

uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t number = next.fetch_add(1);
  return number;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Add(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::map<std::string, SpanSummary> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children run on their parent's thread and nest inside it, so they never
  // overlap each other: the covered part of a parent is the sum of their
  // durations.
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const auto& span : spans_) {
    if (span.parent != 0) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, SpanSummary> out;
  for (const auto& span : spans_) {
    const int64_t ns = span.end_ns - span.start_ns;
    auto covered = child_ns.find(span.id);
    const int64_t self =
        ns - (covered == child_ns.end() ? 0 : covered->second);
    SpanSummary& summary = out[span.name];
    summary.calls += 1;
    summary.total_s += static_cast<double>(ns) * 1e-9;
    summary.self_s += static_cast<double>(self) * 1e-9;
    durations[span.name].push_back(static_cast<double>(ns) * 1e-9);
  }
  for (auto& [name, values] : durations) {
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    out[name].median_s = n % 2 == 1
                             ? values[n / 2]
                             : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  out << "id\tparent\trequest\tname\tstart_ns\tend_ns\tthread\n";
  for (const auto& span : spans_) {
    out << span.id << '\t' << span.parent << '\t' << span.request << '\t'
        << span.name << '\t' << span.start_ns << '\t' << span.end_ns << '\t'
        << span.thread << '\n';
  }
  out.close();
  return out.good();
}

Span::Span(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) {
    return;
  }
  outer_ = t_current;
  record_.id = tracer_->NextId();
  record_.parent = outer_ != nullptr ? outer_->record_.id : 0;
  record_.request = request != UINT64_MAX
                        ? request
                        : (outer_ != nullptr ? outer_->record_.request : 0);
  record_.name = name;
  record_.thread = ThreadNumber();
  t_current = this;
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (tracer_ == nullptr) {
    return;
  }
  record_.end_ns = NowNs();
  t_current = outer_;
  tracer_->Add(record_);
}

}  // namespace lapis::perfbench
