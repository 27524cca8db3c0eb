#include "src/corpus/footprint_join.h"

#include <algorithm>

#include "src/corpus/binary_synth.h"
#include "src/corpus/syscall_table.h"

namespace lapis::corpus {

namespace {

template <typename T>
void SortUnique(std::vector<T>& values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
}

bool KindLess(const core::ApiId& a, const core::ApiId& b) {
  return a.kind < b.kind;
}

}  // namespace

void PackageFootprint::Add(
    const analysis::LibraryResolver::Resolution& resolution,
    const core::StringInterner& path_interner,
    const core::StringInterner& libc_interner) {
  const analysis::Footprint& footprint = resolution.footprint;
  for (int nr : footprint.syscalls) {
    recovered_syscalls.push_back(nr);
    if (nr >= 0 && nr < kSyscallCount) {
      apis.push_back(core::SyscallApi(static_cast<uint32_t>(nr)));
    }
  }
  for (uint32_t op : footprint.ioctl_ops) {
    apis.push_back(core::IoctlApi(op));
  }
  for (uint32_t op : footprint.fcntl_ops) {
    apis.push_back(core::FcntlApi(op));
  }
  for (uint32_t op : footprint.prctl_ops) {
    apis.push_back(core::PrctlApi(op));
  }
  for (const auto& path : footprint.pseudo_paths) {
    const uint32_t id = path_interner.Find(path);
    if (id != UINT32_MAX) {
      apis.push_back(core::ApiId{core::ApiKind::kPseudoFile, id});
    } else if (std::find(new_paths.begin(), new_paths.end(), path) ==
               new_paths.end()) {
      new_paths.push_back(path);
    }
  }
  auto libc_exports = resolution.used_exports.find(kLibcSoname);
  if (libc_exports != resolution.used_exports.end()) {
    // The libc-symbol API surface (§5, Table 7) is the 1274-entry universe,
    // which is exactly what the libc interner holds. libc also exports the
    // non-universe `syscall` clone that tail-plt wrappers jump through; it
    // carries no importance row and no variant lists it, so the failed Find
    // keeps it out of the dataset.
    for (const auto& symbol : libc_exports->second) {
      const uint32_t id = libc_interner.Find(symbol);
      if (id != UINT32_MAX) {
        apis.push_back(core::ApiId{core::ApiKind::kLibcFn, id});
      }
    }
  }
}

void PackageFootprint::Seal() {
  SortUnique(apis);
  SortUnique(recovered_syscalls);
}

void FoldFootprints(std::vector<PackageFootprint>& packages,
                    core::StringInterner& path_interner,
                    std::map<std::string, size_t>& pseudo_path_binary_counts) {
  std::vector<size_t> packages_using(path_interner.size());  // by path id
  for (PackageFootprint& package : packages) {
    if (!package.new_paths.empty()) {
      for (const std::string& path : package.new_paths) {
        package.apis.push_back(core::ApiId{core::ApiKind::kPseudoFile,
                                           path_interner.Intern(path)});
      }
      package.new_paths.clear();
      SortUnique(package.apis);
      packages_using.resize(path_interner.size());
    }
    auto [first, last] = std::equal_range(
        package.apis.begin(), package.apis.end(),
        core::ApiId{core::ApiKind::kPseudoFile, 0}, KindLess);
    for (auto it = first; it != last; ++it) {
      ++packages_using[it->code];
    }
  }
  for (uint32_t id = 0; id < packages_using.size(); ++id) {
    if (packages_using[id] > 0) {
      pseudo_path_binary_counts[path_interner.NameOf(id)] +=
          packages_using[id];
    }
  }
}

}  // namespace lapis::corpus
