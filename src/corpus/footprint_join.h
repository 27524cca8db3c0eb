// The footprint join (§2.3): a package's footprint is the union of its
// executables' resolved footprints, lifted to ApiIds.
//
// The join runs in two halves so that almost all of it happens on worker
// shards:
//
//   - Shard half (PackageFootprint::Add / Seal): each resolve shard folds
//     its package's resolutions into ApiIds with read-only interner Finds.
//     The libc interner holds exactly the libc universe (interned up front),
//     so `Find != UINT32_MAX` is the universe-membership test; pseudo paths
//     the path table lacks are kept by name for the fold. The resolutions
//     can be freed as soon as they are added.
//   - Ordered fold (FoldFootprints): the only order-sensitive work. It
//     interns the missing pseudo paths in canonical (package, executable,
//     path) order — so interner ids, and hence exports, are identical at
//     any worker count — and counts each package's distinct pseudo paths.

#ifndef LAPIS_SRC_CORPUS_FOOTPRINT_JOIN_H_
#define LAPIS_SRC_CORPUS_FOOTPRINT_JOIN_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/library_resolver.h"
#include "src/core/api_id.h"

namespace lapis::corpus {

struct PackageFootprint {
  // Sorted and unique once sealed (and again after the fold).
  std::vector<core::ApiId> apis;
  // Every recovered syscall number, including ones outside the x86-64
  // table that `apis` drops; sorted and unique once sealed.
  std::vector<int> recovered_syscalls;
  // Pseudo paths the path table lacked, in first-seen order. Interned and
  // merged into `apis` by FoldFootprints.
  std::vector<std::string> new_paths;

  // Folds one executable's resolution in. Read-only on both interners, so
  // any number of shards may call it concurrently.
  void Add(const analysis::LibraryResolver::Resolution& resolution,
           const core::StringInterner& path_interner,
           const core::StringInterner& libc_interner);
  // Sorts and deduplicates `apis` and `recovered_syscalls`.
  void Seal();
};

// The ordered half of the join over sealed shards, in package order:
// interns each package's `new_paths` into `path_interner`, merges their
// ids into `apis` (re-sorting only that package) and adds one to
// `pseudo_path_binary_counts[path]` per package that uses `path`.
void FoldFootprints(std::vector<PackageFootprint>& packages,
                    core::StringInterner& path_interner,
                    std::map<std::string, size_t>& pseudo_path_binary_counts);

}  // namespace lapis::corpus

#endif  // LAPIS_SRC_CORPUS_FOOTPRINT_JOIN_H_
