// The sharded footprint join (src/corpus/footprint_join) against the serial
// join it replaced, kept here as the oracle: per package, each executable's
// resolution was lifted to ApiIds with interning lookups in (package,
// executable, path) order. On hand-built resolutions the sharded join must
// give the same footprints, recovered syscalls, pseudo-path counts and
// interner ids at every executor size.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/library_resolver.h"
#include "src/core/api_id.h"
#include "src/corpus/api_universe.h"
#include "src/corpus/binary_synth.h"
#include "src/corpus/footprint_join.h"
#include "src/corpus/syscall_table.h"
#include "src/runtime/executor.h"
#include "src/runtime/parallel.h"
#include "src/util/prng.h"

namespace lapis {
namespace {

using Resolution = analysis::LibraryResolver::Resolution;
using Package = std::vector<Resolution>;  // one resolution per executable

// Paths no PseudoFiles() entry has; the fold must intern them.
const char* const kMissingPaths[] = {"/proc/lapis-test/%/missing-a",
                                     "/sys/lapis-test/missing-b",
                                     "/dev/lapis-test-missing-c"};

struct JoinOutput {
  std::vector<std::vector<core::ApiId>> footprints;  // sorted, unique
  std::vector<std::vector<int>> recovered_syscalls;  // sorted, unique
  std::map<std::string, size_t> pseudo_path_binary_counts;
  std::vector<std::string> path_names;  // path interner, in id order
};

// Both joins start from the interners RunStudy builds up front.
void InternUniverses(core::StringInterner& paths,
                     core::StringInterner& libc) {
  for (const auto& spec : corpus::LibcUniverse()) {
    libc.Intern(spec.name);
  }
  for (const auto& file : corpus::PseudoFiles()) {
    paths.Intern(file.path);
  }
}

std::vector<std::string> PathNames(const core::StringInterner& paths) {
  std::vector<std::string> names;
  for (uint32_t id = 0; id < paths.size(); ++id) {
    names.push_back(paths.NameOf(id));
  }
  return names;
}

// ---- The oracle: the serial join, as it was ----

std::vector<core::ApiId> OracleToApiIds(
    const Resolution& res, const std::set<std::string>& universe_names,
    core::StringInterner& path_interner,
    core::StringInterner& libc_interner) {
  std::vector<core::ApiId> out;
  for (int nr : res.footprint.syscalls) {
    if (nr >= 0 && nr < corpus::kSyscallCount) {
      out.push_back(core::SyscallApi(static_cast<uint32_t>(nr)));
    }
  }
  for (uint32_t op : res.footprint.ioctl_ops) {
    out.push_back(core::IoctlApi(op));
  }
  for (uint32_t op : res.footprint.fcntl_ops) {
    out.push_back(core::FcntlApi(op));
  }
  for (uint32_t op : res.footprint.prctl_ops) {
    out.push_back(core::PrctlApi(op));
  }
  for (const auto& path : res.footprint.pseudo_paths) {
    out.push_back(core::ApiId{core::ApiKind::kPseudoFile,
                              path_interner.Intern(path)});
  }
  auto libc_exports = res.used_exports.find(corpus::kLibcSoname);
  if (libc_exports != res.used_exports.end()) {
    for (const auto& symbol : libc_exports->second) {
      if (!universe_names.contains(symbol)) continue;
      out.push_back(core::ApiId{core::ApiKind::kLibcFn,
                                libc_interner.Intern(symbol)});
    }
  }
  return out;
}

JoinOutput OracleJoin(const std::vector<Package>& packages) {
  std::set<std::string> universe_names;
  for (const auto& spec : corpus::LibcUniverse()) {
    universe_names.insert(spec.name);
  }
  core::StringInterner path_interner;
  core::StringInterner libc_interner;
  InternUniverses(path_interner, libc_interner);

  JoinOutput out;
  for (const Package& package : packages) {
    std::vector<core::ApiId> footprint;
    std::set<int> recovered;
    std::set<std::string> package_paths;
    for (const Resolution& resolution : package) {
      auto ids = OracleToApiIds(resolution, universe_names, path_interner,
                                libc_interner);
      footprint.insert(footprint.end(), ids.begin(), ids.end());
      recovered.insert(resolution.footprint.syscalls.begin(),
                       resolution.footprint.syscalls.end());
      package_paths.insert(resolution.footprint.pseudo_paths.begin(),
                           resolution.footprint.pseudo_paths.end());
    }
    for (const auto& path : package_paths) {
      ++out.pseudo_path_binary_counts[path];
    }
    std::set<core::ApiId> unique(footprint.begin(), footprint.end());
    out.footprints.emplace_back(unique.begin(), unique.end());
    out.recovered_syscalls.emplace_back(recovered.begin(), recovered.end());
  }
  EXPECT_EQ(libc_interner.size(), corpus::LibcUniverse().size());
  out.path_names = PathNames(path_interner);
  return out;
}

// ---- The sharded join, composed the way RunStudy composes it ----

JoinOutput ShardedJoin(const std::vector<Package>& packages,
                       runtime::Executor* executor) {
  core::StringInterner path_interner;
  core::StringInterner libc_interner;
  InternUniverses(path_interner, libc_interner);

  std::vector<corpus::PackageFootprint> shards = runtime::ParallelMap(
      executor, packages.size(),
      [&packages, &path_interner, &libc_interner](size_t pkg) {
        corpus::PackageFootprint footprint;
        for (const Resolution& resolution : packages[pkg]) {
          footprint.Add(resolution, path_interner, libc_interner);
        }
        footprint.Seal();
        return footprint;
      });
  JoinOutput out;
  corpus::FoldFootprints(shards, path_interner,
                         out.pseudo_path_binary_counts);
  for (auto& shard : shards) {
    EXPECT_TRUE(shard.new_paths.empty());
    out.footprints.push_back(std::move(shard.apis));
    out.recovered_syscalls.push_back(std::move(shard.recovered_syscalls));
  }
  EXPECT_EQ(libc_interner.size(), corpus::LibcUniverse().size());
  out.path_names = PathNames(path_interner);
  return out;
}

// ---- Hand-built resolutions ----

Resolution MakeResolution(
    std::set<int> syscalls, std::set<std::string> paths,
    std::set<std::string> libc_exports, std::set<uint32_t> ioctl_ops = {}) {
  Resolution res;
  res.footprint.syscalls = std::move(syscalls);
  res.footprint.pseudo_paths = std::move(paths);
  res.footprint.ioctl_ops = std::move(ioctl_ops);
  if (!libc_exports.empty()) {
    res.used_exports[corpus::kLibcSoname] = std::move(libc_exports);
  }
  // Exports of other libraries are not libc APIs.
  res.used_exports["libpthread.so.0"] = {"pthread_create"};
  return res;
}

// A few crafted packages covering the edge cases, then seeded random ones.
std::vector<Package> TestPackages() {
  const auto& files = corpus::PseudoFiles();
  const auto& universe = corpus::LibcUniverse();
  std::vector<Package> packages;
  // Missing paths first seen in the second executable, in set order; the
  // non-universe `syscall` export; out-of-range syscall numbers; an API
  // that both executables use.
  packages.push_back(
      {MakeResolution({0, 1, -1, corpus::kSyscallCount}, {files[0].path},
                      {universe[0].name, "syscall"}, {0x5401}),
       MakeResolution({1, 60, 999},
                      {kMissingPaths[1], kMissingPaths[0], files[0].path},
                      {universe[0].name, universe[1].name}, {0x5401})});
  packages.push_back({});  // a package with no executables
  // The same missing paths again (their ids exist now), plus a new one.
  packages.push_back(
      {MakeResolution({2}, {kMissingPaths[0]}, {}),
       MakeResolution({2, 3}, {kMissingPaths[2], kMissingPaths[1]},
                      {"syscall"})});

  Prng rng(20160418);
  for (int pkg = 0; pkg < 96; ++pkg) {
    Package package;
    const int executables = static_cast<int>(rng.NextBelow(4));
    for (int exe = 0; exe < executables; ++exe) {
      std::set<int> syscalls;
      std::set<std::string> paths;
      std::set<std::string> libc;
      std::set<uint32_t> ioctls;
      for (int i = 0; i < 12; ++i) {
        // A few numbers beyond the table, and a few negative ones.
        syscalls.insert(static_cast<int>(
            rng.NextInRange(-2, corpus::kSyscallCount + 4)));
        libc.insert(universe[rng.NextBelow(universe.size())].name);
        ioctls.insert(static_cast<uint32_t>(rng.NextBelow(16)));
      }
      for (int i = 0; i < 3; ++i) {
        paths.insert(rng.NextBool(0.1)
                         ? kMissingPaths[rng.NextBelow(3)]
                         : files[rng.NextBelow(files.size())].path);
      }
      if (rng.NextBool(0.2)) {
        libc.insert("syscall");
      }
      package.push_back(MakeResolution(std::move(syscalls), std::move(paths),
                                       std::move(libc), std::move(ioctls)));
    }
    packages.push_back(std::move(package));
  }
  return packages;
}

void ExpectSameJoin(const JoinOutput& got, const JoinOutput& want,
                    const std::string& label) {
  ASSERT_EQ(got.footprints.size(), want.footprints.size()) << label;
  for (size_t pkg = 0; pkg < want.footprints.size(); ++pkg) {
    EXPECT_EQ(got.footprints[pkg], want.footprints[pkg])
        << label << " package " << pkg;
    EXPECT_EQ(got.recovered_syscalls[pkg], want.recovered_syscalls[pkg])
        << label << " package " << pkg;
  }
  EXPECT_EQ(got.pseudo_path_binary_counts, want.pseudo_path_binary_counts)
      << label;
  EXPECT_EQ(got.path_names, want.path_names) << label;
}

TEST(FootprintJoin, FixturesCoverTheEdgeCases) {
  // `syscall` must be a libc export outside the universe, and the missing
  // paths must really be missing from the pseudo-file table.
  core::StringInterner paths;
  core::StringInterner libc;
  InternUniverses(paths, libc);
  EXPECT_EQ(libc.Find("syscall"), UINT32_MAX);
  for (const char* path : kMissingPaths) {
    EXPECT_EQ(paths.Find(path), UINT32_MAX) << path;
  }
}

TEST(FootprintJoin, ShardedJoinMatchesSerialOracleAtEveryExecutorSize) {
  const std::vector<Package> packages = TestPackages();
  const JoinOutput oracle = OracleJoin(packages);
  ExpectSameJoin(ShardedJoin(packages, nullptr), oracle, "no executor");
  runtime::Executor one(1);
  ExpectSameJoin(ShardedJoin(packages, &one), oracle, "1 thread");
  runtime::Executor four(4);
  for (int round = 0; round < 4; ++round) {
    ExpectSameJoin(ShardedJoin(packages, &four), oracle, "4 threads");
  }
}

TEST(FootprintJoin, EdgeCasesLandWhereTheOracleSaysTheyDo) {
  runtime::Executor four(4);
  const JoinOutput got = ShardedJoin(TestPackages(), &four);
  const size_t table = corpus::PseudoFiles().size();
  // Missing paths get the next ids in (package, executable, path) order:
  // the first package's second executable holds missing-b and missing-a
  // (set order), the third package adds missing-c.
  ASSERT_GE(got.path_names.size(), table + 3);
  EXPECT_EQ(got.path_names[table], kMissingPaths[0]);
  EXPECT_EQ(got.path_names[table + 1], kMissingPaths[1]);
  EXPECT_EQ(got.path_names[table + 2], kMissingPaths[2]);

  const auto& first = got.footprints[0];
  // Out-of-range numbers stay recovered but leave the footprint.
  EXPECT_EQ(got.recovered_syscalls[0],
            (std::vector<int>{-1, 0, 1, 60, corpus::kSyscallCount, 999}));
  for (const core::ApiId& api : first) {
    if (api.kind == core::ApiKind::kSyscall) {
      EXPECT_LT(api.code, static_cast<uint32_t>(corpus::kSyscallCount));
    }
  }
  // Two universe symbols, one of them used by both executables, and no
  // `syscall`; the union holds each API once.
  size_t libc_apis = 0;
  for (const core::ApiId& api : first) {
    libc_apis += api.kind == core::ApiKind::kLibcFn ? 1 : 0;
  }
  EXPECT_EQ(libc_apis, 2u);
  EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
  EXPECT_EQ(std::adjacent_find(first.begin(), first.end()), first.end());
  EXPECT_TRUE(got.footprints[1].empty());
}

}  // namespace
}  // namespace lapis
