#include "src/core/report.h"

#include <algorithm>

#include "src/util/strings.h"

namespace lapis::core {

std::string ApiName(const ApiId& api, const StringInterner& path_interner,
                    const StringInterner& libc_interner) {
  switch (api.kind) {
    case ApiKind::kSyscall:
      return "syscall:" + std::to_string(api.code);
    case ApiKind::kIoctlOp:
      return "ioctl:" + std::to_string(api.code);
    case ApiKind::kFcntlOp:
      return "fcntl:" + std::to_string(api.code);
    case ApiKind::kPrctlOp:
      return "prctl:" + std::to_string(api.code);
    case ApiKind::kPseudoFile:
      if (api.code < path_interner.size()) {
        return "file:" + path_interner.NameOf(api.code);
      }
      return "file:#" + std::to_string(api.code);
    case ApiKind::kLibcFn:
      if (api.code < libc_interner.size()) {
        return "libc:" + libc_interner.NameOf(api.code);
      }
      return "libc:#" + std::to_string(api.code);
  }
  return "?";
}

Status ExportImportanceTsv(const StudyDataset& dataset,
                           const std::vector<ApiKind>& kinds,
                           const StringInterner& path_interner,
                           const StringInterner& libc_interner,
                           std::ostream& os) {
  if (!dataset.finalized()) {
    return FailedPreconditionError("dataset not finalized");
  }
  os << "kind\tapi\timportance\tunweighted_importance\tdependents\n";
  for (ApiKind kind : kinds) {
    for (const ApiId& api : dataset.RankByImportance(kind)) {
      os << ApiKindName(kind) << '\t'
         << ApiName(api, path_interner, libc_interner) << '\t'
         << FormatDouble(dataset.ApiImportance(api), 6) << '\t'
         << FormatDouble(dataset.UnweightedImportance(api), 6) << '\t'
         << dataset.Dependents(api).size() << '\n';
    }
  }
  if (!os.good()) {
    return IoError("write failed");
  }
  return Status::Ok();
}

Status ExportPackagesTsv(const StudyDataset& dataset, std::ostream& os) {
  if (!dataset.finalized()) {
    return FailedPreconditionError("dataset not finalized");
  }
  os << "package\tinstall_probability\tfootprint_apis\tsyscalls\n";
  for (PackageId id = 0; id < dataset.package_count(); ++id) {
    const std::vector<ApiId> footprint = dataset.Footprint(id);
    size_t syscalls = 0;
    for (const ApiId& api : footprint) {
      syscalls += api.kind == ApiKind::kSyscall ? 1 : 0;
    }
    os << dataset.PackageName(id) << '\t'
       << FormatDouble(dataset.InstallProbability(id), 6) << '\t'
       << footprint.size() << '\t' << syscalls << '\n';
  }
  if (!os.good()) {
    return IoError("write failed");
  }
  return Status::Ok();
}

Status ExportFootprintsTsv(const StudyDataset& dataset,
                           const StringInterner& path_interner,
                           const StringInterner& libc_interner,
                           std::ostream& os) {
  if (!dataset.finalized()) {
    return FailedPreconditionError("dataset not finalized");
  }
  os << "package\tapi\n";
  for (PackageId id = 0; id < dataset.package_count(); ++id) {
    for (const ApiId& api : dataset.Footprint(id)) {
      os << dataset.PackageName(id) << '\t'
         << ApiName(api, path_interner, libc_interner) << '\n';
    }
  }
  if (!os.good()) {
    return IoError("write failed");
  }
  return Status::Ok();
}

}  // namespace lapis::core
