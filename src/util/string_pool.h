// Shared append-only string interner for the analysis hot path.
//
// The pipeline shuttles the same few thousand symbol names and pseudo-file
// paths through every stage: libc exports its 1,274 symbols, every package
// imports a subset of them. StringPool stores each distinct string once and
// hands out dense 32-bit ids; consumers (LibraryResolver) key their maps by
// id instead of by std::string.
//
// Thread-safety: Intern and NameOf are safe to call concurrently from any
// worker (shared_mutex; the TSan suite hammers this). The pool is
// append-only — ids are never reused or remapped, and NameOf's
// string_view stays valid for the pool's lifetime (deque storage never
// moves existing elements). Determinism caveat: id values depend on
// interning order, so pipelines that fold ids into exported output must
// intern from a canonical-order stage (registration order), exactly like
// core::StringInterner.

#ifndef LAPIS_SRC_UTIL_STRING_POOL_H_
#define LAPIS_SRC_UTIL_STRING_POOL_H_

#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace lapis {

class StringPool {
 public:
  StringPool() = default;
  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;

  // Returns the id of `s`, interning it on first sight.
  uint32_t Intern(std::string_view s);

  // Returns the id if present, or kNotFound.
  uint32_t Find(std::string_view s) const;

  // The interned string for a valid id. The view remains valid for the
  // pool's lifetime.
  std::string_view NameOf(uint32_t id) const;

  size_t size() const;

  // Total bytes of distinct string payload stored (diet accounting).
  size_t payload_bytes() const;

  static constexpr uint32_t kNotFound = UINT32_MAX;

 private:
  mutable std::shared_mutex mutex_;
  std::deque<std::string> names_;  // stable element addresses
  std::unordered_map<std::string_view, uint32_t> ids_;  // views into names_
  size_t payload_bytes_ = 0;
};

}  // namespace lapis

#endif  // LAPIS_SRC_UTIL_STRING_POOL_H_
