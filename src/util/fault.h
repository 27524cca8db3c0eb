// Deterministic fault injection for the lapis I/O stack.
//
// Every cache, artifact, and socket I/O primitive consults this module
// before touching the kernel. When injection is disabled (the default) the
// check is a single relaxed atomic load; when enabled, a seeded injector
// replays a declarative fault schedule so that error paths — EINTR storms,
// short writes, ENOSPC, mid-record crashes — become deterministic,
// repeatable test inputs instead of flaky production surprises.
//
// Configuration comes from the environment (read once at process start):
//
//   LAPIS_FAULT_SPEC   semicolon-separated clause list (grammar below)
//   LAPIS_FAULT_SEED   uint64 seed for probabilistic clauses and short-write
//                      lengths (default 0)
//
// Clause grammar (whitespace-free):
//
//   site:kind@N        inject `kind` at the site's N-th operation (0-based)
//   site:kind@N+       inject at every operation from index N onward
//   site:kind~P        inject with probability P in [0,1] per operation
//   site:crash#N       crash after N cumulative bytes have flowed through
//                      the site: the op in flight completes only up to the
//                      crash boundary, and every later faultable operation
//                      in the process fails with EIO (a dead process cannot
//                      fsync, truncate, or rename)
//
// Sites: cache_open cache_read cache_write cache_sync artifact_open
//        artifact_read artifact_write artifact_sync artifact_rename
//        sock_read sock_write, or `*` to match every site.
// Kinds: eintr eio enospc short crash.
//
// Example: LAPIS_FAULT_SPEC='cache_write:short@3;sock_read:eintr~0.05'
// injects one short write on the 4th cache append and retries ~5% of
// socket reads through their EINTR path.

#ifndef LAPIS_SRC_UTIL_FAULT_H_
#define LAPIS_SRC_UTIL_FAULT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/prng.h"
#include "src/util/status.h"

namespace lapis {
namespace fault {

enum class Site : uint8_t {
  kCacheOpen = 0,
  kCacheRead,
  kCacheWrite,
  kCacheSync,
  kArtifactOpen,
  kArtifactRead,
  kArtifactWrite,
  kArtifactSync,
  kArtifactRename,
  kSockRead,
  kSockWrite,
  kSiteCount,  // sentinel, not a real site
};

enum class Kind : uint8_t {
  kNone = 0,
  kEintr,   // transient: caller should retry the operation
  kEio,     // hard I/O error
  kEnospc,  // device full
  kShort,   // partial transfer: only `short_bytes` of the request complete
  kCrash,   // process "dies" mid-operation; all later ops fail with EIO
};

// What the injector decided for one operation. kind == kNone means proceed
// normally. For kShort and kCrash, `short_bytes` is how much of the request
// actually transfers before the fault lands (always < requested bytes).
struct Injected {
  Kind kind = Kind::kNone;
  size_t short_bytes = 0;
};

// Cumulative counters, readable at any time (e.g. for banners and tests).
struct FaultStats {
  uint64_t ops_observed = 0;
  uint64_t eintr_injected = 0;
  uint64_t eio_injected = 0;
  uint64_t enospc_injected = 0;
  uint64_t short_injected = 0;
  uint64_t crash_injected = 0;
  bool crashed = false;  // a crash clause has fired; everything fails now
};

// The process-wide injector. All methods are thread-safe: worker threads in
// the study pipeline and serve frame handlers hit the same instance.
class FaultInjector {
 public:
  static FaultInjector& Global();

  // Parses `spec` and arms the injector. An empty spec disarms it. Returns
  // InvalidArgument (leaving the previous schedule in place) on a malformed
  // clause.
  Status Configure(const std::string& spec, uint64_t seed);

  // Disarms and clears all schedules, counters, and crash state.
  void Reset();

  // Decides the fate of one operation of `bytes` bytes at `site`.
  // Precondition: injection is enabled (callers use fault::Check below,
  // which guards with the fast path).
  Injected OnOp(Site site, size_t bytes);

  FaultStats stats() const;

 private:
  struct Clause {
    bool all_sites = false;
    Site site = Site::kSiteCount;
    Kind kind = Kind::kNone;
    // Trigger: exactly one of the following shapes.
    enum class Trigger : uint8_t { kAtIndex, kFromIndex, kProbability,
                                   kCrashBytes } trigger = Trigger::kAtIndex;
    uint64_t index = 0;        // kAtIndex / kFromIndex
    double probability = 0.0;  // kProbability
    uint64_t crash_bytes = 0;  // kCrashBytes: cumulative byte threshold
  };

  FaultInjector() : prng_(0) {}

  static Status ParseClause(const std::string& text, Clause* out);

  mutable std::mutex mu_;
  std::vector<Clause> clauses_;
  std::vector<uint64_t> clause_bytes_;  // per-clause cumulative bytes (crash#)
  uint64_t op_index_[static_cast<size_t>(Site::kSiteCount)] = {};
  uint64_t site_bytes_[static_cast<size_t>(Site::kSiteCount)] = {};
  Prng prng_;
  FaultStats stats_;
};

namespace internal {
// True only while a non-empty schedule is armed. Relaxed is fine: arming
// happens before threads that care are spawned (env init or test setup).
extern std::atomic<bool> g_enabled;
}  // namespace internal

inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

// The single hook I/O wrappers call. No-op fast path when disabled.
inline Injected Check(Site site, size_t bytes) {
  if (!Enabled()) {
    return Injected{};
  }
  return FaultInjector::Global().OnOp(site, bytes);
}

// Maps an injected fault to the errno the real syscall would have set, and
// a human-readable message fragment. kNone/kShort/kCrash are handled by the
// caller (they are not plain errno failures).
int InjectedErrno(Kind kind);

// Snapshot of the global injector's counters (zeroed struct when disabled).
FaultStats GlobalStats();

// Test-only RAII: arms the global injector with (spec, seed) on
// construction and fully resets it on destruction. Aborts on a malformed
// spec — tests should not silently run fault-free.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection(const std::string& spec, uint64_t seed);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace fault
}  // namespace lapis

#endif  // LAPIS_SRC_UTIL_FAULT_H_
