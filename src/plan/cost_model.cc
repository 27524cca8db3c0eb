#include "src/plan/cost_model.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "src/corpus/syscall_table.h"
#include "src/util/strings.h"

namespace lapis::plan {

namespace {

bool IsVectoredKind(core::ApiKind kind) {
  return kind == core::ApiKind::kIoctlOp || kind == core::ApiKind::kFcntlOp ||
         kind == core::ApiKind::kPrctlOp;
}

std::optional<core::ApiKind> ParseKindName(std::string_view name) {
  if (name == "syscall") return core::ApiKind::kSyscall;
  if (name == "ioctl") return core::ApiKind::kIoctlOp;
  if (name == "fcntl") return core::ApiKind::kFcntlOp;
  if (name == "prctl") return core::ApiKind::kPrctlOp;
  if (name == "pseudo" || name == "file") return core::ApiKind::kPseudoFile;
  if (name == "libc") return core::ApiKind::kLibcFn;
  return std::nullopt;
}

std::optional<uint32_t> ParseNumeral(const std::string& s) {
  if (s.empty()) {
    return std::nullopt;
  }
  char* end = nullptr;
  unsigned long long value = std::strtoull(s.c_str(), &end, 0);
  if (end == nullptr || *end != '\0' || value > 0xffffffffull) {
    return std::nullopt;
  }
  return static_cast<uint32_t>(value);
}

}  // namespace

const char* ActionName(SupportAction action) {
  switch (action) {
    case SupportAction::kSkip:
      return "skip";
    case SupportAction::kStub:
      return "stub";
    case SupportAction::kFake:
      return "fake";
    case SupportAction::kFull:
      return "full";
  }
  return "?";
}

std::optional<SupportAction> ParseAction(std::string_view name) {
  if (name == "skip") return SupportAction::kSkip;
  if (name == "stub") return SupportAction::kStub;
  if (name == "fake") return SupportAction::kFake;
  if (name == "full") return SupportAction::kFull;
  return std::nullopt;
}

CostModel CostModel::Defaults() {
  CostModel model;
  model.full_base_[static_cast<size_t>(core::ApiKind::kSyscall)] = 10.0;
  model.full_base_[static_cast<size_t>(core::ApiKind::kIoctlOp)] = 6.0;
  model.full_base_[static_cast<size_t>(core::ApiKind::kFcntlOp)] = 5.0;
  model.full_base_[static_cast<size_t>(core::ApiKind::kPrctlOp)] = 5.0;
  model.full_base_[static_cast<size_t>(core::ApiKind::kPseudoFile)] = 3.0;
  model.full_base_[static_cast<size_t>(core::ApiKind::kLibcFn)] = 2.0;
  return model;
}

double CostModel::ActionCost(core::ApiId api, SupportAction action,
                             size_t family_breadth) const {
  if (action == SupportAction::kSkip) {
    return 0.0;
  }
  auto api_it = api_action_.find(
      {api.Encode(), static_cast<uint8_t>(action)});
  if (api_it != api_action_.end()) {
    return api_it->second;
  }
  auto kind_it = kind_action_.find(
      {static_cast<uint8_t>(api.kind), static_cast<uint8_t>(action)});
  if (kind_it != kind_action_.end()) {
    return kind_it->second;
  }
  if (action == SupportAction::kStub) {
    return stub_cost_;
  }
  double full = full_base_[static_cast<size_t>(api.kind)];
  if (IsVectoredKind(api.kind)) {
    // One demultiplexer per family, amortized across its used sub-ops.
    full += demux_surcharge_ / static_cast<double>(
                                   std::max<size_t>(family_breadth, 1));
  }
  if (action == SupportAction::kFake) {
    return std::max(stub_cost_, full / fake_divisor_);
  }
  return full;
}

void CostModel::SetKindActionCost(core::ApiKind kind, SupportAction action,
                                  double cost) {
  kind_action_[{static_cast<uint8_t>(kind), static_cast<uint8_t>(action)}] =
      cost;
}

void CostModel::SetApiActionCost(core::ApiId api, SupportAction action,
                                 double cost) {
  api_action_[{api.Encode(), static_cast<uint8_t>(action)}] = cost;
}

Status LoadCostOverridesTsv(std::istream& in,
                            const core::StringInterner& path_interner,
                            const core::StringInterner& libc_interner,
                            CostModel* model) {
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    auto hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::string kind_name;
    std::string api_name;
    std::string action_name;
    std::string cost_text;
    if (!(fields >> kind_name)) {
      continue;  // blank line
    }
    if (!(fields >> api_name >> action_name >> cost_text)) {
      return InvalidArgumentError(
          "cost TSV line " + std::to_string(line_no) +
          ": expected <kind> <api> <action> <cost>");
    }
    auto kind = ParseKindName(kind_name);
    if (!kind.has_value()) {
      return InvalidArgumentError("cost TSV line " + std::to_string(line_no) +
                                  ": unknown kind '" + kind_name + "'");
    }
    auto action = ParseAction(action_name);
    if (!action.has_value() || *action == SupportAction::kSkip) {
      return InvalidArgumentError("cost TSV line " + std::to_string(line_no) +
                                  ": action must be full|stub|fake, got '" +
                                  action_name + "'");
    }
    char* end = nullptr;
    double cost = std::strtod(cost_text.c_str(), &end);
    if (end == nullptr || *end != '\0' || cost < 0.0) {
      return InvalidArgumentError("cost TSV line " + std::to_string(line_no) +
                                  ": bad cost '" + cost_text + "'");
    }
    if (api_name == "*") {
      model->SetKindActionCost(*kind, *action, cost);
      continue;
    }
    uint32_t code = 0;
    switch (*kind) {
      case core::ApiKind::kSyscall: {
        auto nr = corpus::SyscallNumber(api_name);
        if (nr.has_value()) {
          code = static_cast<uint32_t>(*nr);
        } else if (auto numeral = ParseNumeral(api_name)) {
          code = *numeral;
        } else {
          return InvalidArgumentError("cost TSV line " +
                                      std::to_string(line_no) +
                                      ": unknown syscall '" + api_name + "'");
        }
        break;
      }
      case core::ApiKind::kIoctlOp:
      case core::ApiKind::kFcntlOp:
      case core::ApiKind::kPrctlOp: {
        auto numeral = ParseNumeral(api_name);
        if (!numeral.has_value()) {
          return InvalidArgumentError(
              "cost TSV line " + std::to_string(line_no) +
              ": vectored opcodes are numeric, got '" + api_name + "'");
        }
        code = *numeral;
        break;
      }
      case core::ApiKind::kPseudoFile: {
        uint32_t id = path_interner.Find(api_name);
        if (id == UINT32_MAX) {
          continue;  // path unused in this study; cost is irrelevant
        }
        code = id;
        break;
      }
      case core::ApiKind::kLibcFn: {
        uint32_t id = libc_interner.Find(api_name);
        if (id == UINT32_MAX) {
          continue;
        }
        code = id;
        break;
      }
    }
    model->SetApiActionCost(core::ApiId{*kind, code}, *action, cost);
  }
  return Status::Ok();
}

}  // namespace lapis::plan
