#include "src/serve/snapshot.h"

#include <malloc.h>

#include <algorithm>
#include <cstdio>

#include "src/cache/content_hash.h"
#include "src/core/completeness.h"
#include "src/corpus/study_runner.h"
#include "src/corpus/syscall_table.h"
#include "src/corpus/system_profiles.h"
#include "src/plan/planner.h"

namespace lapis::serve {

namespace {

// Accepts decimal ("1074025674") and 0x-prefixed hex ("0x40045431")
// numerals for vectored-opcode references sent by name.
bool ParseCode(std::string_view s, uint32_t* out) {
  if (s.empty()) {
    return false;
  }
  uint64_t value = 0;
  size_t i = 0;
  int base = 10;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    base = 16;
    i = 2;
  }
  for (; i < s.size(); ++i) {
    char c = s[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (base == 16 && c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    value = value * static_cast<uint64_t>(base) + static_cast<uint64_t>(digit);
    if (value > UINT32_MAX) {
      return false;
    }
  }
  *out = static_cast<uint32_t>(value);
  return true;
}

// A process that loads a snapshot serves it: keep freed heap for reuse
// instead of returning it to the kernel. glibc otherwise trims a thread's
// heap once its free top passes a threshold that adapts to past frees, so
// whether serving hands back memory that earlier work left in an arena
// depends on which freed arena a new thread inherits, and the resident
// size differs from one start of the same process to the next. 64 MiB is
// as much as one thread heap holds. Process-wide, set once.
void RetainFreedHeap() {
#ifdef __GLIBC__
  static const bool retained = [] {
    return mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1;
  }();
  (void)retained;
#endif
}

}  // namespace

Result<std::shared_ptr<const Snapshot>> Snapshot::FromArtifactBytes(
    std::span<const uint8_t> bytes, std::string source) {
  RetainFreedHeap();
  ByteReader reader(bytes);
  LAPIS_ASSIGN_OR_RETURN(corpus::StudyArtifact artifact,
                         corpus::DeserializeStudy(reader));
  auto snapshot = std::shared_ptr<Snapshot>(new Snapshot());
  snapshot->artifact_ = std::move(artifact);
  snapshot->content_hash_ = cache::HashBytes(bytes);
  snapshot->source_ = std::move(source);

  const core::StudyDataset& dataset = *snapshot->artifact_.dataset;
  // Syscalls rank over the full 320-entry universe so unused calls surface
  // (with importance 0) in deep top-K tails, matching the paper's "what to
  // support" tables.
  const std::vector<core::ApiId> universe = corpus::FullSyscallUniverse();
  snapshot->syscall_ordinals_.resize(universe.size());
  for (const core::ApiId& api : universe) {  // ascending, codes 0..n-1
    uint32_t ordinal = dataset.ApiOrdinal(api);
    if (ordinal == core::kNoApiOrdinal) {
      ordinal = static_cast<uint32_t>(dataset.Apis().size() +
                                      snapshot->extra_syscalls_.size());
      snapshot->extra_syscalls_.push_back(api);
    }
    snapshot->syscall_ordinals_[api.code] = ordinal;
  }
  for (int k = 0; k < core::kApiKindCount; ++k) {
    auto kind = static_cast<core::ApiKind>(k);
    const auto ranked = dataset.RankByImportance(
        kind, kind == core::ApiKind::kSyscall ? universe
                                              : std::vector<core::ApiId>{});
    for (const core::ApiId& api : ranked) {
      snapshot->ranked_[static_cast<size_t>(k)].push_back(
          snapshot->Ordinal(api));
    }
  }

  // Intern a canonical name for every snapshot ordinal (everything
  // rankable, and thus returnable).
  snapshot->name_ids_.resize(dataset.Apis().size() +
                             snapshot->extra_syscalls_.size());
  char buf[48];
  for (uint32_t ordinal = 0; ordinal < snapshot->name_ids_.size(); ++ordinal) {
    const core::ApiId api = snapshot->ApiAt(ordinal);
    std::string_view name;
    switch (api.kind) {
      case core::ApiKind::kSyscall:
        name = corpus::SyscallName(static_cast<int>(api.code));
        break;
      case core::ApiKind::kIoctlOp:
        std::snprintf(buf, sizeof buf, "ioctl:0x%x", api.code);
        name = buf;
        break;
      case core::ApiKind::kFcntlOp:
        std::snprintf(buf, sizeof buf, "fcntl:%u", api.code);
        name = buf;
        break;
      case core::ApiKind::kPrctlOp:
        std::snprintf(buf, sizeof buf, "prctl:%u", api.code);
        name = buf;
        break;
      case core::ApiKind::kPseudoFile:
        name = snapshot->artifact_.path_interner.NameOf(api.code);
        break;
      case core::ApiKind::kLibcFn:
        name = snapshot->artifact_.libc_interner.NameOf(api.code);
        break;
    }
    snapshot->name_ids_[ordinal] = snapshot->names_.Intern(name);
  }
  return std::shared_ptr<const Snapshot>(std::move(snapshot));
}

Result<std::shared_ptr<const Snapshot>> Snapshot::FromFile(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return IoError("cannot open " + path);
  }
  // Room for the whole file up front: a buffer grown by doubling leaves
  // its outgrown copies behind as resident heap in a serving process.
  std::vector<uint8_t> bytes;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    long size = std::ftell(f);
    if (size > 0) {
      bytes.reserve(static_cast<size_t>(size));
    }
    std::rewind(f);
  }
  uint8_t buffer[65536];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  std::fclose(f);
  return FromArtifactBytes(bytes, path);
}

Result<std::shared_ptr<const Snapshot>> Snapshot::FromStudy(
    const corpus::StudyResult& study, std::string source) {
  ByteWriter writer;
  LAPIS_RETURN_IF_ERROR(corpus::SerializeStudy(study, writer));
  return FromArtifactBytes(writer.bytes(), std::move(source));
}

uint32_t Snapshot::Ordinal(core::ApiId api) const {
  if (api.kind == core::ApiKind::kSyscall &&
      api.code < syscall_ordinals_.size()) {
    return syscall_ordinals_[api.code];
  }
  return dataset().ApiOrdinal(api);
}

core::ApiId Snapshot::ApiAt(uint32_t ordinal) const {
  const size_t indexed = dataset().Apis().size();
  return ordinal < indexed ? dataset().Apis()[ordinal]
                           : extra_syscalls_[ordinal - indexed];
}

std::string_view Snapshot::ApiName(core::ApiId api) const {
  uint32_t ordinal = Ordinal(api);
  if (ordinal == core::kNoApiOrdinal) {
    return "";
  }
  return names_.NameOf(name_ids_[ordinal]);
}

bool Snapshot::ResolveProfile(const QueryRequest& request,
                              ResolvedProfile* out,
                              QueryResponse* response) const {
  out->supported.assign(name_ids_.size(), 0);
  for (const ApiRef& ref : request.supported) {
    core::ApiId api;
    bool absent = false;
    WireStatus status = ResolveApi(ref, &api, &absent);
    if (status != WireStatus::kOk) {
      response->status = status;
      response->error = "cannot resolve '" + ref.name + "'";
      return false;
    }
    if (absent) {
      ++out->absent;
      continue;
    }
    ++out->resolved;
    uint32_t ordinal = Ordinal(api);
    if (ordinal != core::kNoApiOrdinal) {
      out->supported[ordinal] = 1;
    }
  }
  return true;
}

WireStatus Snapshot::ResolveApi(const ApiRef& ref, core::ApiId* out,
                                bool* absent) const {
  *absent = false;
  if (static_cast<uint8_t>(ref.kind) >= core::kApiKindCount) {
    return WireStatus::kUnsupportedKind;
  }
  if (ref.name.empty()) {
    *out = core::ApiId{ref.kind, ref.code};
    return WireStatus::kOk;
  }
  switch (ref.kind) {
    case core::ApiKind::kSyscall: {
      auto nr = corpus::SyscallNumber(ref.name);
      if (!nr.has_value()) {
        return WireStatus::kUnknownApi;
      }
      *out = core::SyscallApi(static_cast<uint32_t>(*nr));
      return WireStatus::kOk;
    }
    case core::ApiKind::kIoctlOp:
    case core::ApiKind::kFcntlOp:
    case core::ApiKind::kPrctlOp: {
      // Accept both the bare numeral and the canonical "ioctl:0x..."
      // prefix form the server itself prints.
      std::string_view name = ref.name;
      auto colon = name.find(':');
      if (colon != std::string_view::npos) {
        name.remove_prefix(colon + 1);
      }
      uint32_t code = 0;
      if (!ParseCode(name, &code)) {
        return WireStatus::kUnknownApi;
      }
      *out = core::ApiId{ref.kind, code};
      return WireStatus::kOk;
    }
    case core::ApiKind::kPseudoFile: {
      uint32_t id = artifact_.path_interner.Find(ref.name);
      if (id == UINT32_MAX) {
        // A path no package touches: perfectly valid, importance 0.
        *absent = true;
        *out = core::ApiId{ref.kind, 0};
        return WireStatus::kOk;
      }
      *out = core::ApiId{ref.kind, id};
      return WireStatus::kOk;
    }
    case core::ApiKind::kLibcFn: {
      uint32_t id = artifact_.libc_interner.Find(ref.name);
      if (id == UINT32_MAX) {
        *absent = true;
        *out = core::ApiId{ref.kind, 0};
        return WireStatus::kOk;
      }
      *out = core::ApiId{ref.kind, id};
      return WireStatus::kOk;
    }
  }
  return WireStatus::kUnsupportedKind;
}

QueryResponse Snapshot::Execute(const QueryRequest& request) const {
  switch (request.opcode) {
    case Opcode::kPing: {
      QueryResponse response;
      response.opcode = Opcode::kPing;
      return response;
    }
    case Opcode::kServerInfo: {
      QueryResponse response;
      response.opcode = Opcode::kServerInfo;
      response.info.protocol_version = kProtocolVersion;
      response.info.content_hash = content_hash_;
      response.info.package_count =
          static_cast<uint32_t>(dataset().package_count());
      response.info.total_installations = dataset().total_installations();
      response.info.source = source_;
      return response;
    }
    case Opcode::kImportance:
      return ExecuteImportance(request);
    case Opcode::kEvalProfile:
      return ExecuteEvalProfile(request);
    case Opcode::kTopK:
      return ExecuteTopK(request);
    case Opcode::kPlanFrontier:
      return ExecutePlanFrontier(request);
    case Opcode::kFrameError:
      break;
  }
  QueryResponse response;
  response.opcode = request.opcode;
  response.status = WireStatus::kBadRequest;
  response.error = "unsupported opcode";
  return response;
}

QueryResponse Snapshot::ExecuteImportance(const QueryRequest& request) const {
  QueryResponse response;
  response.opcode = Opcode::kImportance;
  core::ApiId api;
  bool absent = false;
  WireStatus status = ResolveApi(request.api, &api, &absent);
  if (status != WireStatus::kOk) {
    response.status = status;
    response.error = "cannot resolve '" + request.api.name + "'";
    return response;
  }
  ImportanceResult& result = response.importance;
  if (absent) {
    // Syntactically valid but unused anywhere: importance is exactly 0.
    result.api = core::ApiId{request.api.kind, 0};
    result.name = request.api.name;
    return response;
  }
  result.api = api;
  std::string_view canonical = ApiName(api);
  result.name = canonical.empty() ? request.api.name
                                  : std::string(canonical);
  result.importance = dataset().ApiImportance(api);
  result.unweighted = dataset().UnweightedImportance(api);
  result.dependents = static_cast<uint32_t>(dataset().Dependents(api).size());
  return response;
}

QueryResponse Snapshot::ExecuteEvalProfile(const QueryRequest& request) const {
  QueryResponse response;
  response.opcode = Opcode::kEvalProfile;
  ResolvedProfile profile;
  if (!ResolveProfile(request, &profile, &response)) {
    return response;
  }
  // Syscalls outside every footprint (the tail of the snapshot ordinals)
  // cannot change which packages work.
  const core::SupportSummary summary = core::EvaluateSupport(
      dataset(),
      std::span<const uint8_t>(profile.supported)
          .first(dataset().Apis().size()),
      request.evaluated_kinds_mask);
  EvalProfileResult& result = response.eval;
  result.weighted_completeness = summary.weighted_completeness;
  result.supported_packages = summary.supported_packages;
  result.total_packages = static_cast<uint32_t>(dataset().package_count());
  result.resolved_apis = profile.resolved;
  result.absent_apis = profile.absent;
  return response;
}

QueryResponse Snapshot::ExecuteTopK(const QueryRequest& request) const {
  QueryResponse response;
  response.opcode = Opcode::kTopK;
  if (static_cast<uint8_t>(request.top_kind) >= core::kApiKindCount) {
    response.status = WireStatus::kUnsupportedKind;
    response.error = "bad top-K kind";
    return response;
  }
  if (request.top_k == 0 || request.top_k > kMaxProfileApis) {
    response.status = WireStatus::kBadRequest;
    response.error = "top-K count must be in [1, " +
                     std::to_string(kMaxProfileApis) + "]";
    return response;
  }
  ResolvedProfile profile;
  if (!ResolveProfile(request, &profile, &response)) {
    return response;
  }
  for (uint32_t ordinal : ranked_[static_cast<size_t>(request.top_kind)]) {
    if (response.top_k.size() >= request.top_k) {
      break;
    }
    if (profile.supported[ordinal] != 0) {
      continue;
    }
    TopKEntry entry;
    entry.api = ApiAt(ordinal);
    entry.name = std::string(names_.NameOf(name_ids_[ordinal]));
    entry.importance = dataset().ApiImportance(entry.api);
    response.top_k.push_back(std::move(entry));
  }
  return response;
}

QueryResponse Snapshot::ExecutePlanFrontier(
    const QueryRequest& request) const {
  QueryResponse response;
  response.opcode = Opcode::kPlanFrontier;

  plan::PlannerInput input;
  input.dataset = artifact_.dataset.get();
  plan::CostModel costs = plan::CostModel::Defaults();
  input.costs = &costs;
  ResolvedProfile profile;
  if (!ResolveProfile(request, &profile, &response)) {
    return response;
  }
  // The planner only consults footprint APIs, so the dataset's ordinals
  // carry the whole profile.
  for (uint32_t ordinal = 0; ordinal < dataset().Apis().size(); ++ordinal) {
    if (profile.supported[ordinal] != 0) {
      input.already_supported.insert(dataset().Apis()[ordinal]);
    }
  }
  for (int k = 0; k < core::kApiKindCount; ++k) {
    if (request.evaluated_kinds_mask & (1u << k)) {
      input.evaluated_kinds.insert(static_cast<core::ApiKind>(k));
    }
  }
  const bool audit_blind = (request.plan_flags & kPlanFlagAuditBlind) != 0 ||
                           artifact_.evidence_kinds_mask == 0;
  if (!audit_blind) {
    input.evidence.kinds_mask = artifact_.evidence_kinds_mask;
    input.evidence.observed = artifact_.evidence_observed;
  }
  if (request.plan_budget > 0.0) {
    input.budget = request.plan_budget;
  }
  // Cap the action list so the response always fits one frame (the payload
  // ceiling is 1 MiB; ~60 bytes/action keeps 4096 comfortably inside it).
  input.max_actions = request.plan_max_actions == 0
                          ? 100
                          : std::min<uint32_t>(request.plan_max_actions, 4096);

  plan::SupportPlan support_plan = plan::GreedyPlan(input);

  PlanFrontierResult& result = response.plan;
  result.initial_completeness = support_plan.initial_completeness;
  result.final_completeness = support_plan.final_completeness;
  result.total_cost = support_plan.total_cost;
  result.audit_blind = audit_blind ? 1 : 0;
  result.actions.reserve(support_plan.actions.size());
  for (const plan::PlanAction& action : support_plan.actions) {
    PlanActionWire wire;
    wire.api = action.api;
    std::string_view canonical = ApiName(action.api);
    wire.name = canonical.empty()
                    ? plan::PlanApiName(action.api, artifact_.path_interner,
                                        artifact_.libc_interner)
                    : std::string(canonical);
    wire.action = static_cast<uint8_t>(action.action);
    wire.evidence = static_cast<uint8_t>(action.evidence);
    wire.cost = action.cost;
    wire.cumulative_cost = action.cumulative_cost;
    wire.completeness_after = action.completeness_after;
    wire.importance = action.importance;
    result.actions.push_back(std::move(wire));
  }
  return response;
}

}  // namespace lapis::serve
