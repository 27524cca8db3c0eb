#include "src/util/fault.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace lapis {
namespace fault {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

struct SiteEntry {
  const char* name;
  Site site;
};

constexpr SiteEntry kSites[] = {
    {"cache_open", Site::kCacheOpen},
    {"cache_read", Site::kCacheRead},
    {"cache_write", Site::kCacheWrite},
    {"cache_sync", Site::kCacheSync},
    {"artifact_open", Site::kArtifactOpen},
    {"artifact_read", Site::kArtifactRead},
    {"artifact_write", Site::kArtifactWrite},
    {"artifact_sync", Site::kArtifactSync},
    {"artifact_rename", Site::kArtifactRename},
    {"sock_read", Site::kSockRead},
    {"sock_write", Site::kSockWrite},
};

struct KindEntry {
  const char* name;
  Kind kind;
};

constexpr KindEntry kKinds[] = {
    {"eintr", Kind::kEintr},   {"eio", Kind::kEio},
    {"enospc", Kind::kEnospc}, {"short", Kind::kShort},
    {"crash", Kind::kCrash},
};

bool ParseUint64(const std::string& text, uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

int InjectedErrno(Kind kind) {
  switch (kind) {
    case Kind::kEintr:
      return EINTR;
    case Kind::kEnospc:
      return ENOSPC;
    default:
      return EIO;
  }
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

Status FaultInjector::ParseClause(const std::string& text, Clause* out) {
  size_t colon = text.find(':');
  if (colon == std::string::npos || colon == 0) {
    return InvalidArgumentError("fault clause needs 'site:kind...': " + text);
  }
  std::string site_str = text.substr(0, colon);
  std::string rest = text.substr(colon + 1);

  Clause clause;
  if (site_str == "*") {
    clause.all_sites = true;
  } else {
    bool found = false;
    for (const SiteEntry& entry : kSites) {
      if (site_str == entry.name) {
        clause.site = entry.site;
        found = true;
        break;
      }
    }
    if (!found) {
      return InvalidArgumentError("unknown fault site: " + site_str);
    }
  }

  size_t sep = rest.find_first_of("@~#");
  if (sep == std::string::npos || sep == 0 || sep + 1 >= rest.size()) {
    return InvalidArgumentError(
        "fault clause needs a trigger (@N, @N+, ~P, or #N): " + text);
  }
  std::string kind_str = rest.substr(0, sep);
  char trigger_char = rest[sep];
  std::string arg = rest.substr(sep + 1);

  bool found_kind = false;
  for (const KindEntry& entry : kKinds) {
    if (kind_str == entry.name) {
      clause.kind = entry.kind;
      found_kind = true;
      break;
    }
  }
  if (!found_kind) {
    return InvalidArgumentError("unknown fault kind: " + kind_str);
  }

  switch (trigger_char) {
    case '@': {
      if (!arg.empty() && arg.back() == '+') {
        clause.trigger = Clause::Trigger::kFromIndex;
        arg.pop_back();
      } else {
        clause.trigger = Clause::Trigger::kAtIndex;
      }
      if (!ParseUint64(arg, &clause.index)) {
        return InvalidArgumentError("bad fault op index: " + text);
      }
      break;
    }
    case '~': {
      clause.trigger = Clause::Trigger::kProbability;
      char* end = nullptr;
      clause.probability = std::strtod(arg.c_str(), &end);
      if (end == arg.c_str() || *end != '\0' || clause.probability < 0.0 ||
          clause.probability > 1.0) {
        return InvalidArgumentError("bad fault probability: " + text);
      }
      break;
    }
    case '#': {
      if (clause.kind != Kind::kCrash) {
        return InvalidArgumentError(
            "#N (cumulative-byte) trigger is only valid for crash: " + text);
      }
      clause.trigger = Clause::Trigger::kCrashBytes;
      if (!ParseUint64(arg, &clause.crash_bytes)) {
        return InvalidArgumentError("bad crash byte offset: " + text);
      }
      break;
    }
    default:
      return InvalidArgumentError("bad fault trigger: " + text);
  }

  *out = clause;
  return Status::Ok();
}

Status FaultInjector::Configure(const std::string& spec, uint64_t seed) {
  std::vector<Clause> clauses;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(';', start);
    if (end == std::string::npos) {
      end = spec.size();
    }
    std::string clause_text = spec.substr(start, end - start);
    if (!clause_text.empty()) {
      Clause clause;
      LAPIS_RETURN_IF_ERROR(ParseClause(clause_text, &clause));
      clauses.push_back(clause);
    }
    start = end + 1;
  }

  std::lock_guard<std::mutex> lock(mu_);
  clauses_ = std::move(clauses);
  std::memset(op_index_, 0, sizeof(op_index_));
  std::memset(site_bytes_, 0, sizeof(site_bytes_));
  clause_bytes_.assign(clauses_.size(), 0);
  prng_ = Prng(seed);
  stats_ = FaultStats{};
  internal::g_enabled.store(!clauses_.empty(), std::memory_order_relaxed);
  return Status::Ok();
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  clauses_.clear();
  clause_bytes_.clear();
  std::memset(op_index_, 0, sizeof(op_index_));
  std::memset(site_bytes_, 0, sizeof(site_bytes_));
  stats_ = FaultStats{};
  internal::g_enabled.store(false, std::memory_order_relaxed);
}

Injected FaultInjector::OnOp(Site site, size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.ops_observed;
  if (stats_.crashed) {
    // The simulated process is dead: nothing — not even repair I/O like
    // ftruncate or rename — succeeds from here on.
    ++stats_.eio_injected;
    return Injected{Kind::kEio, 0};
  }
  size_t site_idx = static_cast<size_t>(site);
  uint64_t index = op_index_[site_idx]++;
  site_bytes_[site_idx] += bytes;

  for (size_t i = 0; i < clauses_.size(); ++i) {
    const Clause& clause = clauses_[i];
    if (!clause.all_sites && clause.site != site) {
      continue;
    }
    Injected result;
    switch (clause.trigger) {
      case Clause::Trigger::kAtIndex:
        if (index != clause.index) {
          continue;
        }
        break;
      case Clause::Trigger::kFromIndex:
        if (index < clause.index) {
          continue;
        }
        break;
      case Clause::Trigger::kProbability:
        if (!prng_.NextBool(clause.probability)) {
          continue;
        }
        break;
      case Clause::Trigger::kCrashBytes: {
        uint64_t seen = clause_bytes_[i];
        clause_bytes_[i] += bytes;
        if (clause_bytes_[i] < clause.crash_bytes) {
          continue;
        }
        // Crash lands inside (or exactly at the end of) this operation:
        // only the bytes up to the boundary reach the kernel.
        result.short_bytes = static_cast<size_t>(
            clause.crash_bytes > seen ? clause.crash_bytes - seen : 0);
        break;
      }
    }
    result.kind = clause.kind;
    switch (clause.kind) {
      case Kind::kEintr:
        ++stats_.eintr_injected;
        break;
      case Kind::kEio:
        ++stats_.eio_injected;
        break;
      case Kind::kEnospc:
        ++stats_.enospc_injected;
        break;
      case Kind::kShort:
        if (bytes == 0) {
          continue;  // nothing to shorten; fall through to later clauses
        }
        result.short_bytes = static_cast<size_t>(prng_.NextBelow(bytes));
        ++stats_.short_injected;
        break;
      case Kind::kCrash:
        ++stats_.crash_injected;
        stats_.crashed = true;
        break;
      case Kind::kNone:
        continue;
    }
    return result;
  }
  return Injected{};
}

FaultStats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

FaultStats GlobalStats() {
  if (!Enabled()) {
    return FaultStats{};
  }
  return FaultInjector::Global().stats();
}

ScopedFaultInjection::ScopedFaultInjection(const std::string& spec,
                                           uint64_t seed) {
  Status status = FaultInjector::Global().Configure(spec, seed);
  if (!status.ok()) {
    std::fprintf(stderr, "ScopedFaultInjection: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
}

ScopedFaultInjection::~ScopedFaultInjection() {
  FaultInjector::Global().Reset();
}

namespace {

void InitFromEnv() {
  const char* spec = std::getenv("LAPIS_FAULT_SPEC");
  if (spec == nullptr || spec[0] == '\0') {
    return;
  }
  uint64_t seed = 0;
  const char* seed_str = std::getenv("LAPIS_FAULT_SEED");
  if (seed_str != nullptr && seed_str[0] != '\0') {
    if (!ParseUint64(seed_str, &seed)) {
      std::fprintf(stderr, "lapis: bad LAPIS_FAULT_SEED '%s'\n", seed_str);
      std::exit(2);
    }
  }
  Status status = FaultInjector::Global().Configure(spec, seed);
  if (!status.ok()) {
    std::fprintf(stderr, "lapis: bad LAPIS_FAULT_SPEC: %s\n",
                 status.ToString().c_str());
    std::exit(2);
  }
  std::fprintf(stderr, "lapis: fault injection armed (spec='%s' seed=%llu)\n",
               spec, static_cast<unsigned long long>(seed));
}

// File-scope initializer: arms the injector from the environment before
// main() in any binary that links lapis_util.
struct EnvInitializer {
  EnvInitializer() { InitFromEnv(); }
};
const EnvInitializer g_env_initializer;

}  // namespace

}  // namespace fault
}  // namespace lapis
