// Immutable, fully-loaded view of one study's footprint database + popcon
// survey, ready to answer the paper's questions repeatedly.
//
// A Snapshot is built once (from a saved study artifact file, raw artifact
// bytes, or an in-process StudyResult) and never mutated: the dataset with
// its dense API index (core::StudyDataset), the per-kind importance
// rankings, and the canonical API display names (held in a util::StringPool)
// are all precomputed at load. Every query method is const and safe to call
// from any number of threads concurrently — GenerationStore publishes
// Snapshots behind an atomic shared_ptr precisely because nothing here needs
// a lock. Per-request scratch (the supported-API flags) is local to each
// call.
//
// Snapshot ordinals: the dataset's API ordinals, followed by the syscalls of
// the full syscall table that no footprint mentions (ranked by top-K with
// importance 0). Rankings and names are indexed by them, and a request's
// supported profile resolves to one flag per ordinal, so an eval-profile
// request is one pass over the dataset's dependents index and a top-K
// request skips supported APIs with one load each.
//
// Identity: `content_hash` is cache::HashBytes over the serialized study
// artifact (the same FNV-1a the incremental cache keys on), so two daemons
// serving the same study report the same hash and a re-ingested identical
// artifact is detectably a no-op.

#ifndef LAPIS_SRC_SERVE_SNAPSHOT_H_
#define LAPIS_SRC_SERVE_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/api_id.h"
#include "src/core/dataset.h"
#include "src/corpus/dataset_io.h"
#include "src/serve/protocol.h"
#include "src/util/status.h"
#include "src/util/string_pool.h"

namespace lapis::corpus {
struct StudyResult;
}  // namespace lapis::corpus

namespace lapis::serve {

class Snapshot {
 public:
  // Deserializes `bytes` (a study artifact, dataset_io.h) and precomputes
  // the query indexes. `source` is a display label (file path, "inline").
  // The first load raises the process's heap trim threshold so that a
  // serving process keeps freed heap for reuse (snapshot.cc).
  static Result<std::shared_ptr<const Snapshot>> FromArtifactBytes(
      std::span<const uint8_t> bytes, std::string source);

  // Reads + deserializes a saved study artifact file.
  static Result<std::shared_ptr<const Snapshot>> FromFile(
      const std::string& path);

  // Serializes a finished in-process study and loads the bytes; the
  // round-trip guarantees the daemon answers exactly what a saved-and-
  // reloaded artifact would.
  static Result<std::shared_ptr<const Snapshot>> FromStudy(
      const corpus::StudyResult& study, std::string source);

  // ---- Identity ----
  uint64_t content_hash() const { return content_hash_; }
  const std::string& source() const { return source_; }
  const core::StudyDataset& dataset() const { return *artifact_.dataset; }

  // ---- Query execution (the server's per-request core) ----
  // Fills everything except `generation` (the store owns that).
  QueryResponse Execute(const QueryRequest& request) const;

  // Resolves a wire ApiRef. `absent` is set when the name is syntactically
  // valid but no package's footprint mentions it (importance is exactly 0);
  // that is not an error — supporting an unused API costs nothing.
  WireStatus ResolveApi(const ApiRef& ref, core::ApiId* out,
                        bool* absent) const;

  // Canonical display name for an API (syscall table name, "ioctl:0x5401",
  // interned pseudo-file path / libc symbol, or "<kind>:<code>").
  std::string_view ApiName(core::ApiId api) const;

 private:
  Snapshot() = default;

  // `request.supported` as one flag per snapshot ordinal, plus how many
  // refs resolved (to any API) and how many name APIs no package uses.
  struct ResolvedProfile {
    std::vector<uint8_t> supported;
    uint32_t resolved = 0;
    uint32_t absent = 0;
  };
  // False, with `response`'s status and error set, at the first ref that
  // does not resolve.
  bool ResolveProfile(const QueryRequest& request, ResolvedProfile* out,
                      QueryResponse* response) const;
  // The snapshot ordinal of `api`, or core::kNoApiOrdinal.
  uint32_t Ordinal(core::ApiId api) const;
  core::ApiId ApiAt(uint32_t ordinal) const;

  QueryResponse ExecuteImportance(const QueryRequest& request) const;
  QueryResponse ExecuteEvalProfile(const QueryRequest& request) const;
  QueryResponse ExecuteTopK(const QueryRequest& request) const;
  QueryResponse ExecutePlanFrontier(const QueryRequest& request) const;

  corpus::StudyArtifact artifact_;
  uint64_t content_hash_ = 0;
  std::string source_;

  // Syscalls of the full table no footprint mentions, ascending; their
  // snapshot ordinals follow the dataset's.
  std::vector<core::ApiId> extra_syscalls_;
  // Snapshot ordinal of every syscall of the full table, by number, so the
  // commonest profile entries resolve without a search.
  std::vector<uint32_t> syscall_ordinals_;

  // Importance-ranked snapshot ordinals per kind (syscalls ranked over the
  // full 320-entry universe so zero-importance calls still appear in top-K
  // tails).
  std::array<std::vector<uint32_t>, core::kApiKindCount> ranked_;

  // Canonical names, interned once at load; queries return views into the
  // pool instead of allocating.
  StringPool names_;
  std::vector<uint32_t> name_ids_;  // snapshot ordinal -> pool id
};

}  // namespace lapis::serve

#endif  // LAPIS_SRC_SERVE_SNAPSHOT_H_
