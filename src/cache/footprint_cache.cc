#include "src/cache/footprint_cache.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <vector>

#include "src/runtime/parallel.h"
#include "src/util/env.h"

namespace lapis::cache {

namespace {

constexpr uint32_t kRecordMagic = 0x3143504C;  // "LPC1" little-endian

std::string ShardPath(const std::string& dir, size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%02zu.bin", index);
  return dir + "/" + name;
}

uint64_t ReadLeU64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;  // x86-64 / little-endian hosts; matches ByteWriter convention
}

uint32_t ReadLeU32(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void AppendLeU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendLeU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

constexpr size_t kHeaderSize = 4 + 8 + 8 + 4;  // magic, content, fp, len
constexpr size_t kTrailerSize = 8;             // payload checksum

FsyncPolicy FsyncPolicyFromEnv() {
  std::string policy = EnvStringOr("LAPIS_CACHE_FSYNC", "never");
  if (policy == "record" || policy == "always" || policy == "each") {
    return FsyncPolicy::kEachRecord;
  }
  return FsyncPolicy::kNever;
}

}  // namespace

CacheStats CacheStats::operator-(const CacheStats& start) const {
  CacheStats delta;
  delta.hits = hits - start.hits;
  delta.misses = misses - start.misses;
  delta.inserts = inserts - start.inserts;
  delta.bytes_read = bytes_read - start.bytes_read;
  delta.bytes_written = bytes_written - start.bytes_written;
  // Open-time and resident gauges are not windowed: report current values.
  delta.entries_loaded = entries_loaded;
  delta.corrupt_entries_dropped = corrupt_entries_dropped;
  delta.entries = entries;
  delta.truncated_tails = truncated_tails;
  delta.open_failures = open_failures;
  delta.quarantined_shards = quarantined_shards;
  return delta;
}

Result<std::unique_ptr<FootprintCache>> FootprintCache::Open(
    const std::string& dir, runtime::Executor* executor) {
  CacheOptions options;
  options.dir = dir;
  options.fsync = FsyncPolicyFromEnv();
  return Open(options, executor);
}

Result<std::unique_ptr<FootprintCache>> FootprintCache::Open(
    const CacheOptions& options, runtime::Executor* executor) {
  std::unique_ptr<FootprintCache> cache(new FootprintCache());
  cache->dir_ = options.dir;
  cache->fsync_ = options.fsync;
  if (options.dir.empty()) {
    return cache;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return IoError("cannot create cache dir " + options.dir + ": " +
                   ec.message());
  }
  std::vector<ShardLoad> loads = runtime::ParallelMap(
      executor, kShardCount, [&cache, &options](size_t i) {
        return cache->LoadShard(i, ShardPath(options.dir, i));
      });
  for (size_t i = 0; i < kShardCount; ++i) {
    const ShardLoad& load = loads[i];
    cache->entries_loaded_ += load.entries_loaded;
    cache->corrupt_entries_dropped_ += load.corrupt_entries_dropped;
    cache->truncated_tails_ += load.truncated_tails;
    cache->open_failures_ += load.open_failures;
    if (!load.quarantine_reason.empty()) {
      cache->Quarantine(i, cache->shards_[i], load.quarantine_reason);
    }
  }
  cache->entries_.store(cache->entries_loaded_, std::memory_order_relaxed);
  return cache;
}

FootprintCache::ShardLoad FootprintCache::LoadShard(size_t index,
                                                    const std::string& path) {
  ShardLoad load;
  Shard& shard = shards_[index];
  Result<std::vector<uint8_t>> read =
      io::ReadFileBytes(path, io::Profile::kCacheIo);
  if (!read.ok() && read.status().code() != StatusCode::kNotFound) {
    // Unreadable log: we cannot know what is on disk, so appending to it
    // would risk corrupting a record boundary. Serve nothing from it and
    // quarantine write-back.
    ++load.open_failures;
    load.quarantine_reason = "cannot read log: " + read.status().ToString();
    return load;
  }
  // A missing log is a first run: nothing to load, but open it below.
  const std::vector<uint8_t> data =
      read.ok() ? read.take() : std::vector<uint8_t>();

  size_t pos = 0;
  size_t valid_end = 0;
  bool corrupt_tail = false;
  while (data.size() - pos >= kHeaderSize) {
    if (ReadLeU32(&data[pos]) != kRecordMagic) {
      corrupt_tail = true;
      break;
    }
    CacheKey key;
    key.content = ReadLeU64(&data[pos + 4]);
    key.fingerprint = ReadLeU64(&data[pos + 12]);
    const uint32_t len = ReadLeU32(&data[pos + 20]);
    if (data.size() - pos - kHeaderSize < len + kTrailerSize) {
      corrupt_tail = true;  // truncated mid-record
      break;
    }
    const uint8_t* payload = &data[pos + kHeaderSize];
    const uint64_t checksum = ReadLeU64(payload + len);
    if (HashBytes(std::span<const uint8_t>(payload, len)) != checksum) {
      corrupt_tail = true;
      break;
    }
    auto value = std::make_shared<std::vector<uint8_t>>(payload,
                                                        payload + len);
    if (shard.entries
            .emplace(key,
                     std::shared_ptr<const std::vector<uint8_t>>(value))
            .second) {
      ++load.entries_loaded;
    }
    pos += kHeaderSize + len + kTrailerSize;
    valid_end = pos;
  }
  shard.committed_bytes = valid_end;
  if (pos != data.size() || corrupt_tail) {
    ++load.corrupt_entries_dropped;
    ++load.truncated_tails;
    // Truncate back to the last whole record so future appends land on a
    // readable boundary.
    std::error_code ec;
    std::filesystem::resize_file(path, valid_end, ec);
    if (ec) {
      load.quarantine_reason = "cannot truncate corrupt tail: " + ec.message();
      return load;  // write-back is off for this shard: no log to open
    }
  }
  Result<io::File> log = io::File::OpenAppend(path, io::Profile::kCacheIo);
  if (!log.ok()) {
    // Unwritable shard: serve what was loaded, skip write-back for it.
    ++load.open_failures;
    load.quarantine_reason = "cannot open log: " + log.status().ToString();
    return load;
  }
  shard.log = log.take();
  return load;
}

void FootprintCache::Quarantine(size_t index, Shard& shard,
                                const std::string& reason) {
  if (shard.quarantined) {
    return;
  }
  shard.quarantined = true;
  shard.log.Close();
  quarantined_shards_.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "lapis cache: shard %02zu quarantined, memory-only for this "
               "run (%s)\n",
               index, reason.c_str());
}

FootprintCache::~FootprintCache() = default;

std::shared_ptr<const std::vector<uint8_t>> FootprintCache::Lookup(
    const CacheKey& key) {
  Shard& shard = shards_[key.content % kShardCount];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(it->second->size(), std::memory_order_relaxed);
  return it->second;
}

void FootprintCache::Insert(const CacheKey& key,
                            std::span<const uint8_t> payload) {
  Shard& shard = shards_[key.content % kShardCount];
  size_t shard_index = static_cast<size_t>(key.content % kShardCount);
  auto value = std::make_shared<std::vector<uint8_t>>(payload.begin(),
                                                      payload.end());
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto [it, fresh] = shard.entries.emplace(
      key, std::shared_ptr<const std::vector<uint8_t>>(std::move(value)));
  if (!fresh) {
    return;  // already resident; identical payload by construction
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(payload.size(), std::memory_order_relaxed);
  if (shard.quarantined || !shard.log.valid()) {
    return;
  }
  // One contiguous append per record: header + payload + checksum.
  std::vector<uint8_t> record;
  record.reserve(kHeaderSize + payload.size() + kTrailerSize);
  AppendLeU32(record, kRecordMagic);
  AppendLeU64(record, key.content);
  AppendLeU64(record, key.fingerprint);
  AppendLeU32(record, static_cast<uint32_t>(payload.size()));
  record.insert(record.end(), payload.begin(), payload.end());
  AppendLeU64(record, HashBytes(payload));

  Status status = shard.log.WriteAll(record.data(), record.size());
  if (status.ok() && fsync_ == FsyncPolicy::kEachRecord) {
    status = shard.log.Sync();
  }
  if (status.ok()) {
    // Record-level commit: only now is the append part of the durable log.
    shard.committed_bytes += record.size();
    return;
  }
  // Partial or failed append: roll the log back to the last committed
  // record if we still can (a simulated crash also kills the repair), then
  // quarantine — a half-record must never be followed by more appends.
  Status repair = shard.log.Truncate(shard.committed_bytes);
  std::string reason = "append failed: " + status.ToString();
  if (!repair.ok()) {
    reason += "; rollback failed: " + repair.ToString() +
              " (next open will truncate the tail)";
  }
  Quarantine(shard_index, shard, reason);
}

CacheStats FootprintCache::stats() const {
  CacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.inserts = inserts_.load(std::memory_order_relaxed);
  out.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  out.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  out.entries_loaded = entries_loaded_;
  out.corrupt_entries_dropped = corrupt_entries_dropped_;
  out.entries = entries_.load(std::memory_order_relaxed);
  out.truncated_tails = truncated_tails_;
  out.open_failures = open_failures_;
  out.quarantined_shards =
      quarantined_shards_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace lapis::cache
