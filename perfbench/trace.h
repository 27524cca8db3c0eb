// In-memory span recorder for the traced benchmark run.
//
// A span covers one call the benchmark makes into a layer's public
// function: name, start, end, the span that was open on the same thread
// when it started (its parent), and the request id it belongs to. Spans
// stay in memory until the run ends; then WriteTsv dumps them and
// Summarize folds them into per-name call counts, median durations and
// self time (duration minus the part covered by child spans).
//
// A disabled Tracer records nothing and a Span on it costs one branch, so
// the untraced run pays nothing for the instrumentation.

#ifndef LAPIS_PERFBENCH_TRACE_H_
#define LAPIS_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace lapis::perfbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t request = 0;
  const char* name = "";  // string literal, lives for the program
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
};

struct SpanSummary {
  uint64_t calls = 0;
  double median_s = 0.0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void Add(const SpanRecord& span);
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  // Per-name statistics over every recorded span.
  std::map<std::string, SpanSummary> Summarize() const;
  // One line per span: id, parent, request, name, start_ns, end_ns,
  // thread. Returns false when the file cannot be written.
  bool WriteTsv(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
};

// Nanoseconds on the steady clock.
int64_t NowNs();

// Records the enclosing scope as one span on `tracer`. Nested Spans on the
// same thread become children; `request` defaults to the parent's.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t request = UINT64_MAX);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return record_.id; }

 private:
  Tracer* tracer_;
  SpanRecord record_;
  Span* outer_ = nullptr;
};

// Returns fn() with the call recorded as span `name`.
template <typename Fn>
auto Traced(Tracer& tracer, const char* name, Fn&& fn) {
  Span span(&tracer, name);
  return fn();
}

}  // namespace lapis::perfbench

#endif  // LAPIS_PERFBENCH_TRACE_H_
