// The content-addressed incremental cache (src/cache): codec roundtrips,
// key invalidation (methodology flip, schema bump, byte mutation),
// persistence across reopen, corruption tolerance, the StringPool diet,
// and the study-level warm-run guarantee (>=95% of analyses skipped with
// byte-identical exports).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/binary_analyzer.h"
#include "src/analysis/library_resolver.h"
#include "src/cache/analysis_codec.h"
#include "src/cache/content_hash.h"
#include "src/cache/footprint_cache.h"
#include "src/cache/survey_codec.h"
#include "src/core/report.h"
#include "src/corpus/binary_synth.h"
#include "src/corpus/distro_spec.h"
#include "src/corpus/study_runner.h"
#include "src/elf/elf_reader.h"
#include "src/package/popcon.h"
#include "src/runtime/executor.h"
#include "src/util/string_pool.h"

namespace lapis {
namespace {

using cache::AnalysisCodec;
using cache::CacheKey;
using cache::EntryKind;
using cache::FootprintCache;

// --- Fixtures: a small synthesized distribution ---------------------------

const corpus::DistroSpec& Spec() {
  static const corpus::DistroSpec* spec = [] {
    corpus::DistroOptions options;
    options.app_package_count = 300;
    options.script_package_count = 30;
    options.data_package_count = 6;
    return new corpus::DistroSpec(corpus::BuildDistroSpec(options).take());
  }();
  return *spec;
}

const std::vector<corpus::SynthesizedBinary>& CoreLibs() {
  static const std::vector<corpus::SynthesizedBinary>* libs = [] {
    corpus::DistroSynthesizer synthesizer(Spec());
    return new std::vector<corpus::SynthesizedBinary>(
        synthesizer.CoreLibraries().take());
  }();
  return *libs;
}

analysis::BinaryAnalysis AnalyzeBytes(const std::vector<uint8_t>& bytes) {
  auto image = elf::ElfReader::Parse(bytes).take();
  return analysis::BinaryAnalyzer::Analyze(image).take();
}

void ExpectAnalysesEqual(const analysis::BinaryAnalysis& a,
                         const analysis::BinaryAnalysis& b) {
  EXPECT_EQ(a.soname(), b.soname());
  EXPECT_EQ(a.needed(), b.needed());
  EXPECT_EQ(a.exports(), b.exports());
  EXPECT_EQ(a.is_executable(), b.is_executable());
  EXPECT_EQ(a.entry(), b.entry());
  EXPECT_EQ(a.total_syscall_sites, b.total_syscall_sites);
  EXPECT_EQ(a.unknown_syscall_sites, b.unknown_syscall_sites);
  ASSERT_EQ(a.functions().size(), b.functions().size());
  for (size_t i = 0; i < a.functions().size(); ++i) {
    const auto& fa = a.functions()[i];
    const auto& fb = b.functions()[i];
    EXPECT_EQ(fa.name, fb.name);
    EXPECT_EQ(fa.vaddr, fb.vaddr);
    EXPECT_EQ(fa.size, fb.size);
    EXPECT_TRUE(fa.local == fb.local) << fa.name;
    EXPECT_EQ(fa.plt_calls, fb.plt_calls);
    EXPECT_EQ(fa.local_callees, fb.local_callees);
    EXPECT_EQ(fa.basic_block_count, fb.basic_block_count);
    EXPECT_EQ(fa.decode_complete, fb.decode_complete);
  }
}

// --- Content hashing & fingerprints ---------------------------------------

TEST(ContentHash, SingleByteMutationChangesHash) {
  std::vector<uint8_t> bytes = CoreLibs().back().bytes;
  uint64_t original = cache::HashBytes(bytes);
  for (size_t offset : {size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<uint8_t> mutated = bytes;
    mutated[offset] ^= 0x01;
    EXPECT_NE(cache::HashBytes(mutated), original)
        << "mutation at offset " << offset << " did not change the hash";
  }
}

TEST(ContentHash, UseDataflowFlipChangesFingerprint) {
  analysis::AnalyzerOptions dataflow;
  analysis::AnalyzerOptions linear;
  linear.use_dataflow = false;
  EXPECT_NE(cache::ConfigFingerprint(dataflow, EntryKind::kAnalysis),
            cache::ConfigFingerprint(linear, EntryKind::kAnalysis));
  EXPECT_NE(cache::ConfigFingerprint(dataflow, EntryKind::kResolution),
            cache::ConfigFingerprint(linear, EntryKind::kResolution));
}

TEST(ContentHash, UseIpaFlipChangesFingerprint) {
  analysis::AnalyzerOptions dataflow;
  analysis::AnalyzerOptions ipa;
  ipa.use_ipa = true;
  EXPECT_NE(cache::ConfigFingerprint(dataflow, EntryKind::kAnalysis),
            cache::ConfigFingerprint(ipa, EntryKind::kAnalysis));
  EXPECT_NE(cache::ConfigFingerprint(dataflow, EntryKind::kResolution),
            cache::ConfigFingerprint(ipa, EntryKind::kResolution));
}

TEST(ContentHash, IpaMaxDepthChangesFingerprint) {
  analysis::AnalyzerOptions deep;
  deep.use_ipa = true;
  analysis::AnalyzerOptions flat = deep;
  flat.ipa_max_depth = 1;
  EXPECT_NE(cache::ConfigFingerprint(deep, EntryKind::kAnalysis),
            cache::ConfigFingerprint(flat, EntryKind::kAnalysis));
}

TEST(ContentHash, SchemaVersionBumpChangesFingerprint) {
  analysis::AnalyzerOptions options;
  EXPECT_NE(cache::ConfigFingerprint(options, EntryKind::kAnalysis,
                                     cache::kCacheSchemaVersion),
            cache::ConfigFingerprint(options, EntryKind::kAnalysis,
                                     cache::kCacheSchemaVersion + 1));
  EXPECT_NE(
      cache::BaseFingerprint(EntryKind::kSurvey, cache::kCacheSchemaVersion),
      cache::BaseFingerprint(EntryKind::kSurvey,
                             cache::kCacheSchemaVersion + 1));
}

TEST(ContentHash, EntryKindsNeverCollide) {
  analysis::AnalyzerOptions options;
  std::set<uint64_t> fingerprints = {
      cache::ConfigFingerprint(options, EntryKind::kAnalysis),
      cache::ConfigFingerprint(options, EntryKind::kLibReach),
      cache::ConfigFingerprint(options, EntryKind::kResolution),
      cache::BaseFingerprint(EntryKind::kSurvey)};
  EXPECT_EQ(fingerprints.size(), 4u);
}

// --- Codec roundtrips ------------------------------------------------------

TEST(AnalysisCodec, BinaryAnalysisRoundtrip) {
  for (const auto& lib : CoreLibs()) {
    analysis::BinaryAnalysis original = AnalyzeBytes(lib.bytes);
    ByteWriter writer;
    AnalysisCodec::Encode(original, writer);
    ByteReader reader(writer.bytes());
    auto decoded = AnalysisCodec::Decode(reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectAnalysesEqual(original, decoded.value());
    // The decoder must rebuild the lookup indexes, not just the rows.
    for (const auto& fn : original.functions()) {
      ASSERT_NE(decoded.value().FunctionAt(fn.vaddr), nullptr);
      EXPECT_EQ(decoded.value().FunctionAt(fn.vaddr)->name, fn.name);
      EXPECT_NE(decoded.value().FunctionNamed(fn.name), nullptr);
    }
    // Reachability over the decoded call graph matches the original.
    auto a = original.FromEntry();
    auto b = decoded.value().FromEntry();
    EXPECT_TRUE(a.footprint == b.footprint);
    EXPECT_EQ(a.plt_calls, b.plt_calls);
    EXPECT_EQ(a.function_count, b.function_count);
  }
}

TEST(AnalysisCodec, ExportReachRoundtrip) {
  analysis::BinaryAnalysis libc = AnalyzeBytes(CoreLibs().back().bytes);
  auto original = libc.PerExportReachable();
  ASSERT_FALSE(original.empty());
  ByteWriter writer;
  AnalysisCodec::EncodeExportReach(original, writer);
  ByteReader reader(writer.bytes());
  auto decoded = AnalysisCodec::DecodeExportReach(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), original.size());
  for (const auto& [name, reach] : original) {
    auto it = decoded.value().find(name);
    ASSERT_NE(it, decoded.value().end()) << name;
    EXPECT_TRUE(it->second.footprint == reach.footprint) << name;
    EXPECT_EQ(it->second.plt_calls, reach.plt_calls);
    EXPECT_EQ(it->second.function_count, reach.function_count);
  }
}

TEST(AnalysisCodec, ResolutionRoundtrip) {
  analysis::LibraryResolver resolver;
  for (const auto& lib : CoreLibs()) {
    ASSERT_TRUE(resolver
                    .AddLibrary(std::make_shared<analysis::BinaryAnalysis>(
                        AnalyzeBytes(lib.bytes)))
                    .ok());
  }
  analysis::BinaryAnalysis libc = AnalyzeBytes(CoreLibs().back().bytes);
  std::vector<std::string> roots(libc.exports().begin(),
                                 libc.exports().begin() + 16);
  auto original = resolver.ResolveFromSymbols(roots);
  ASSERT_FALSE(original.footprint.Empty());

  ByteWriter writer;
  AnalysisCodec::EncodeResolution(original, writer);
  ByteReader reader(writer.bytes());
  auto decoded = AnalysisCodec::DecodeResolution(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value().footprint == original.footprint);
  EXPECT_EQ(decoded.value().used_exports, original.used_exports);
  EXPECT_EQ(decoded.value().unresolved_imports, original.unresolved_imports);
  EXPECT_EQ(decoded.value().reachable_function_count,
            original.reachable_function_count);
}

TEST(SurveyCodec, SurveyRoundtripWithSamples) {
  corpus::DistroSynthesizer synthesizer(Spec());
  auto repo = synthesizer.BuildRepository().take();
  const std::vector<double> marginals = corpus::SurveyMarginals(Spec());
  package::PopconOptions options;
  options.installation_count = 500;
  options.retain_samples = 50;
  auto original = package::PopconSimulator::Run(repo, marginals, options);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  ASSERT_FALSE(original.value().samples.empty());

  ByteWriter writer;
  cache::SurveyCodec::Encode(original.value(), writer);
  ByteReader reader(writer.bytes());
  auto decoded = cache::SurveyCodec::Decode(reader, repo.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().total_reporting, original.value().total_reporting);
  EXPECT_EQ(decoded.value().install_counts, original.value().install_counts);
  ASSERT_EQ(decoded.value().samples.size(), original.value().samples.size());
  for (size_t i = 0; i < original.value().samples.size(); ++i) {
    EXPECT_EQ(decoded.value().samples[i].words(),
              original.value().samples[i].words());
  }
}

TEST(SurveyCodec, DecodeRejectsSurveysThatDoNotFitTheRepository) {
  package::PopconSurvey good;
  good.total_reporting = 10;
  good.install_counts = {10, 3, 0};
  good.samples.push_back(package::InstallationSet(3));
  auto decode = [](const package::PopconSurvey& survey, size_t packages) {
    ByteWriter writer;
    cache::SurveyCodec::Encode(survey, writer);
    ByteReader reader(writer.bytes());
    return cache::SurveyCodec::Decode(reader, packages);
  };
  EXPECT_TRUE(decode(good, 3).ok());
  // Wrong package count, in either direction.
  EXPECT_FALSE(decode(good, 4).ok());
  EXPECT_FALSE(decode(good, 2).ok());
  // A count above the reporting total.
  package::PopconSurvey overcounted = good;
  overcounted.install_counts[1] = 11;
  EXPECT_FALSE(decode(overcounted, 3).ok());
  // A retained sample sized for another repository.
  package::PopconSurvey wide = good;
  wide.samples.push_back(package::InstallationSet(65));
  EXPECT_FALSE(decode(wide, 3).ok());
}

TEST(SurveyCodec, InputHashTracksEveryInput) {
  corpus::DistroSynthesizer synthesizer(Spec());
  auto repo = synthesizer.BuildRepository().take();
  std::vector<double> marginals(Spec().packages.size(), 0.5);
  package::PopconOptions options;
  options.installation_count = 500;

  uint64_t base = cache::HashSurveyInputs(repo, marginals, options);
  EXPECT_EQ(cache::HashSurveyInputs(repo, marginals, options), base);

  auto tweaked = marginals;
  tweaked[3] = 0.5000001;
  EXPECT_NE(cache::HashSurveyInputs(repo, tweaked, options), base);

  package::PopconOptions more = options;
  more.installation_count = 501;
  EXPECT_NE(cache::HashSurveyInputs(repo, marginals, more), base);
}

// --- FootprintCache store --------------------------------------------------

std::vector<uint8_t> Payload(uint8_t fill, size_t n = 64) {
  return std::vector<uint8_t>(n, fill);
}

TEST(FootprintCacheTest, MemoryOnlyHitMissAndFirstWriteWins) {
  auto cache = FootprintCache::Open("");
  ASSERT_TRUE(cache.ok());
  FootprintCache& store = *cache.value();
  EXPECT_FALSE(store.persistent());

  CacheKey key{0x1234, 0x5678};
  EXPECT_EQ(store.Lookup(key), nullptr);
  store.Insert(key, Payload(0xab));
  auto hit = store.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, Payload(0xab));

  // Content-addressed: a second insert under the same key is a no-op.
  store.Insert(key, Payload(0xcd));
  EXPECT_EQ(*store.Lookup(key), Payload(0xab));

  auto stats = store.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.inserts, 1u);

  // Fingerprint half must discriminate as strongly as the content half.
  EXPECT_EQ(store.Lookup(CacheKey{0x1234, 0x9999}), nullptr);
  EXPECT_EQ(store.Lookup(CacheKey{0x9999, 0x5678}), nullptr);
}

TEST(FootprintCacheTest, PersistentStoreSurvivesReopen) {
  auto dir = std::filesystem::temp_directory_path() /
             "lapis-cache-test-reopen";
  std::filesystem::remove_all(dir);

  constexpr size_t kEntries = 64;  // enough to populate many shards
  {
    auto cache = FootprintCache::Open(dir.string());
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    EXPECT_TRUE(cache.value()->persistent());
    for (size_t i = 0; i < kEntries; ++i) {
      cache.value()->Insert(CacheKey{i, ~i},
                            Payload(static_cast<uint8_t>(i), 32 + i));
    }
  }
  auto reopened = FootprintCache::Open(dir.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->stats().entries_loaded, kEntries);
  EXPECT_EQ(reopened.value()->stats().corrupt_entries_dropped, 0u);
  for (size_t i = 0; i < kEntries; ++i) {
    auto hit = reopened.value()->Lookup(CacheKey{i, ~i});
    ASSERT_NE(hit, nullptr) << "entry " << i << " lost across reopen";
    EXPECT_EQ(*hit, Payload(static_cast<uint8_t>(i), 32 + i));
  }
  std::filesystem::remove_all(dir);
}

TEST(FootprintCacheTest, CorruptTailsAreDroppedAndTruncated) {
  auto dir = std::filesystem::temp_directory_path() /
             "lapis-cache-test-corrupt";
  std::filesystem::remove_all(dir);

  constexpr size_t kEntries = 64;
  {
    auto cache = FootprintCache::Open(dir.string());
    ASSERT_TRUE(cache.ok());
    for (size_t i = 0; i < kEntries; ++i) {
      cache.value()->Insert(CacheKey{i, i * 31}, Payload(0x5a, 48));
    }
  }
  // Simulate a crash mid-append: garbage on the tail of every shard log.
  size_t garbaged = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ofstream out(entry.path(), std::ios::app | std::ios::binary);
    out.write("\x13garbage-not-a-record", 21);
    ++garbaged;
  }
  ASSERT_GT(garbaged, 0u);

  {
    auto cache = FootprintCache::Open(dir.string());
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    EXPECT_EQ(cache.value()->stats().entries_loaded, kEntries);
    EXPECT_EQ(cache.value()->stats().corrupt_entries_dropped, garbaged);
    for (size_t i = 0; i < kEntries; ++i) {
      ASSERT_NE(cache.value()->Lookup(CacheKey{i, i * 31}), nullptr);
    }
    // Appending after recovery must produce a readable log again...
    cache.value()->Insert(CacheKey{999, 999}, Payload(0x77));
  }
  // ...because recovery truncated the garbage off the shard files.
  auto cache = FootprintCache::Open(dir.string());
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ(cache.value()->stats().corrupt_entries_dropped, 0u);
  EXPECT_EQ(cache.value()->stats().entries_loaded, kEntries + 1);
  ASSERT_NE(cache.value()->Lookup(CacheKey{999, 999}), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(FootprintCacheTest, TruncatedRecordDegradesToRecompute) {
  auto dir = std::filesystem::temp_directory_path() /
             "lapis-cache-test-truncated";
  std::filesystem::remove_all(dir);
  {
    auto cache = FootprintCache::Open(dir.string());
    ASSERT_TRUE(cache.ok());
    cache.value()->Insert(CacheKey{1, 2}, Payload(0x11, 256));
  }
  // Cut the record in half (short read mid-payload). Open pre-creates every
  // shard log, so find the non-empty one that actually holds the record.
  size_t truncated = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    auto size = std::filesystem::file_size(entry.path());
    if (size > 0) {
      std::filesystem::resize_file(entry.path(), size / 2);
      ++truncated;
    }
  }
  ASSERT_EQ(truncated, 1u);

  auto cache = FootprintCache::Open(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  EXPECT_EQ(cache.value()->stats().entries_loaded, 0u);
  EXPECT_EQ(cache.value()->stats().corrupt_entries_dropped, 1u);
  EXPECT_EQ(cache.value()->Lookup(CacheKey{1, 2}), nullptr);  // recompute
  std::filesystem::remove_all(dir);
}

// What one Open of a damaged store saw: open-time counters, surviving
// payloads, shard file sizes afterwards, and the warnings it printed.
struct OpenOutcome {
  cache::CacheStats stats;
  std::vector<std::shared_ptr<const std::vector<uint8_t>>> payloads;
  std::vector<uintmax_t> file_sizes;  // 0 for the unreadable shards
  std::string warnings;
};

OpenOutcome OpenDamaged(const std::filesystem::path& pristine,
                        const std::filesystem::path& dir, size_t keys,
                        runtime::Executor* executor) {
  // Open truncates corrupt tails, so each open gets a fresh copy of the
  // damaged store at the same path (the warnings name it).
  std::filesystem::remove_all(dir);
  std::filesystem::copy(pristine, dir,
                        std::filesystem::copy_options::recursive);
  OpenOutcome out;
  testing::internal::CaptureStderr();
  auto cache = FootprintCache::Open(dir.string(), executor);
  out.warnings = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(cache.ok()) << cache.status().ToString();
  if (!cache.ok()) {
    return out;
  }
  out.stats = cache.value()->stats();
  for (size_t i = 0; i < keys; ++i) {
    out.payloads.push_back(cache.value()->Lookup(CacheKey{i, i * 7}));
  }
  for (size_t shard = 0; shard < FootprintCache::kShardCount; ++shard) {
    char name[32];
    std::snprintf(name, sizeof(name), "shard-%02zu.bin", shard);
    const auto path = dir / name;
    out.file_sizes.push_back(std::filesystem::is_regular_file(path)
                                 ? std::filesystem::file_size(path)
                                 : 0);
  }
  return out;
}

TEST(FootprintCacheTest, ParallelOpenOfDamagedStoreMatchesSerialOpen) {
  const auto root = std::filesystem::temp_directory_path() /
                    "lapis-cache-test-parallel-open";
  std::filesystem::remove_all(root);
  const auto pristine = root / "damaged";
  constexpr size_t kKeys = 160;  // ten records in every shard
  {
    auto cache = FootprintCache::Open(pristine.string());
    ASSERT_TRUE(cache.ok());
    for (size_t i = 0; i < kKeys; ++i) {
      cache.value()->Insert(CacheKey{i, i * 7},
                            Payload(static_cast<uint8_t>(i), 40 + i % 9));
    }
  }
  auto shard_path = [&pristine](size_t shard) {
    char name[32];
    std::snprintf(name, sizeof(name), "shard-%02zu.bin", shard);
    return pristine / name;
  };
  // Garbage tails on three shards, a record cut in half on a fourth...
  for (size_t shard : {2, 5, 11}) {
    std::ofstream out(shard_path(shard), std::ios::app | std::ios::binary);
    out.write("\x13garbage-not-a-record", 21);
  }
  const auto cut = shard_path(7);
  std::filesystem::resize_file(cut, std::filesystem::file_size(cut) - 13);
  // ...and two logs that cannot be read (a directory in a log's place).
  for (size_t shard : {4, 13}) {
    std::filesystem::remove(shard_path(shard));
    std::filesystem::create_directory(shard_path(shard));
  }

  const auto dir = root / "open";
  const OpenOutcome serial = OpenDamaged(pristine, dir, kKeys, nullptr);
  EXPECT_EQ(serial.stats.corrupt_entries_dropped, 4u);
  EXPECT_EQ(serial.stats.truncated_tails, 4u);
  EXPECT_EQ(serial.stats.open_failures, 2u);
  EXPECT_EQ(serial.stats.quarantined_shards, 2u);
  EXPECT_EQ(serial.stats.entries_loaded, kKeys - 21);  // 2x10 lost, 1 cut
  EXPECT_EQ(serial.stats.entries, serial.stats.entries_loaded);
  const size_t first = serial.warnings.find("shard 04 quarantined");
  const size_t second = serial.warnings.find("shard 13 quarantined");
  ASSERT_NE(first, std::string::npos) << serial.warnings;
  ASSERT_NE(second, std::string::npos) << serial.warnings;
  EXPECT_LT(first, second);

  runtime::Executor four(4);
  for (int round = 0; round < 4; ++round) {
    const OpenOutcome parallel = OpenDamaged(pristine, dir, kKeys, &four);
    EXPECT_EQ(parallel.stats.entries_loaded, serial.stats.entries_loaded);
    EXPECT_EQ(parallel.stats.corrupt_entries_dropped,
              serial.stats.corrupt_entries_dropped);
    EXPECT_EQ(parallel.stats.entries, serial.stats.entries);
    EXPECT_EQ(parallel.stats.truncated_tails, serial.stats.truncated_tails);
    EXPECT_EQ(parallel.stats.open_failures, serial.stats.open_failures);
    EXPECT_EQ(parallel.stats.quarantined_shards,
              serial.stats.quarantined_shards);
    ASSERT_EQ(parallel.payloads.size(), serial.payloads.size());
    for (size_t i = 0; i < kKeys; ++i) {
      ASSERT_EQ(parallel.payloads[i] == nullptr,
                serial.payloads[i] == nullptr)
          << "key " << i;
      if (serial.payloads[i] != nullptr) {
        EXPECT_EQ(*parallel.payloads[i], *serial.payloads[i]) << "key " << i;
      }
    }
    EXPECT_EQ(parallel.file_sizes, serial.file_sizes);
    EXPECT_EQ(parallel.warnings, serial.warnings);
  }
  std::filesystem::remove_all(root);
}

TEST(FootprintCacheTest, ConcurrentInsertLookupHammer) {
  auto cache = FootprintCache::Open("");
  ASSERT_TRUE(cache.ok());
  FootprintCache& store = *cache.value();
  constexpr size_t kThreads = 8;
  constexpr size_t kKeys = 256;  // shared across threads: every shard races
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store] {
      for (size_t i = 0; i < kKeys; ++i) {
        CacheKey key{i, i ^ 0xdead};
        auto hit = store.Lookup(key);
        if (hit == nullptr) {
          store.Insert(key, Payload(static_cast<uint8_t>(i)));
        } else {
          ASSERT_EQ(*hit, Payload(static_cast<uint8_t>(i)));
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(store.stats().entries, kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    auto hit = store.Lookup(CacheKey{i, i ^ 0xdead});
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, Payload(static_cast<uint8_t>(i)));
  }
}

// --- StringPool (hot-path memory diet) -------------------------------------

TEST(StringPoolTest, InternIsIdempotentAndAppendOnly) {
  StringPool pool;
  uint32_t a = pool.Intern("read");
  uint32_t b = pool.Intern("write");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Intern("read"), a);
  EXPECT_EQ(pool.NameOf(a), "read");
  EXPECT_EQ(pool.NameOf(b), "write");
  EXPECT_EQ(pool.Find("read"), a);
  EXPECT_EQ(pool.Find("missing"), StringPool::kNotFound);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.payload_bytes(), 9u);
}

TEST(StringPoolTest, ConcurrentInternHammer) {
  StringPool pool;
  constexpr size_t kThreads = 8;
  constexpr size_t kStrings = 512;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool] {
      for (size_t i = 0; i < kStrings; ++i) {
        std::string name = "sym_" + std::to_string(i);
        uint32_t id = pool.Intern(name);
        // Ids are stable the instant they are handed out, even while other
        // threads keep appending.
        ASSERT_EQ(pool.NameOf(id), name);
        ASSERT_EQ(pool.Find(name), id);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(pool.size(), kStrings);  // no duplicate ids under races
  for (size_t i = 0; i < kStrings; ++i) {
    EXPECT_NE(pool.Find("sym_" + std::to_string(i)), StringPool::kNotFound);
  }
}

// --- Study-level: the warm-run guarantee -----------------------------------

struct StudyExports {
  std::string importance;
  std::string packages;
  std::string footprints;
};

StudyExports ExportAll(const corpus::StudyResult& result) {
  StudyExports out;
  std::ostringstream importance;
  EXPECT_TRUE(core::ExportImportanceTsv(
                  *result.dataset,
                  {core::ApiKind::kSyscall, core::ApiKind::kIoctlOp,
                   core::ApiKind::kFcntlOp, core::ApiKind::kPrctlOp,
                   core::ApiKind::kPseudoFile, core::ApiKind::kLibcFn},
                  result.path_interner, result.libc_interner, importance)
                  .ok());
  out.importance = importance.str();
  std::ostringstream packages;
  EXPECT_TRUE(core::ExportPackagesTsv(*result.dataset, packages).ok());
  out.packages = packages.str();
  std::ostringstream footprints;
  EXPECT_TRUE(core::ExportFootprintsTsv(*result.dataset,
                                        result.path_interner,
                                        result.libc_interner, footprints)
                  .ok());
  out.footprints = footprints.str();
  return out;
}

TEST(CacheStudyTest, WarmRunSkipsAnalysesWithByteIdenticalExports) {
  auto cache = FootprintCache::Open("");
  ASSERT_TRUE(cache.ok());

  corpus::StudyOptions options = corpus::SmallStudyOptions();
  options.cache = cache.value().get();

  auto cold = corpus::RunStudy(options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(cold.value().cache_enabled);
  EXPECT_GT(cold.value().cache_stats.inserts, 0u);

  auto warm = corpus::RunStudy(options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm.value().cache_enabled);

  // The acceptance bar: >=95% of per-binary analyses skipped on warm runs.
  ASSERT_GT(warm.value().analyzed_binaries, 0u);
  EXPECT_GE(static_cast<double>(warm.value().analyses_from_cache),
            0.95 * static_cast<double>(warm.value().analyzed_binaries));
  EXPECT_GT(warm.value().resolutions_from_cache, 0u);
  EXPECT_EQ(warm.value().cache_stats.misses, 0u);
  EXPECT_EQ(warm.value().cache_stats.HitRate(), 1.0);
  // Per-run stats windows: the warm window must not re-count cold inserts.
  EXPECT_EQ(warm.value().cache_stats.inserts, 0u);

  StudyExports cold_exports = ExportAll(cold.value());
  StudyExports warm_exports = ExportAll(warm.value());
  EXPECT_EQ(warm_exports.importance, cold_exports.importance);
  EXPECT_EQ(warm_exports.packages, cold_exports.packages);
  EXPECT_EQ(warm_exports.footprints, cold_exports.footprints);
  EXPECT_EQ(warm.value().ground_truth_mismatches,
            cold.value().ground_truth_mismatches);
}

// A survey record that does not fit the repository (here: too few counts,
// planted under the study's real survey key) is a cache miss: the study
// re-samples instead of indexing past the record's counts.
TEST(CacheStudyTest, MisshapenSurveyRecordIsResampled) {
  corpus::StudyOptions options = corpus::SmallStudyOptions();
  auto reference = corpus::RunStudy(options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const corpus::StudyResult& ref = reference.value();

  package::PopconSurvey shortened = ref.survey;
  shortened.install_counts.resize(ref.repository.size() / 2);
  ByteWriter writer;
  cache::SurveyCodec::Encode(shortened, writer);
  auto cache = FootprintCache::Open("");
  ASSERT_TRUE(cache.ok());
  cache.value()->Insert(
      cache::SurveyCacheKey(ref.repository, corpus::SurveyMarginals(ref.spec),
                            corpus::SurveyOptions(options)),
      writer.bytes());

  options.cache = cache.value().get();
  auto planted = corpus::RunStudy(options);
  ASSERT_TRUE(planted.ok()) << planted.status().ToString();
  EXPECT_EQ(planted.value().survey.install_counts, ref.survey.install_counts);
  EXPECT_EQ(planted.value().survey.total_reporting, ref.survey.total_reporting);
  StudyExports want = ExportAll(ref);
  StudyExports got = ExportAll(planted.value());
  EXPECT_EQ(got.importance, want.importance);
  EXPECT_EQ(got.packages, want.packages);
  EXPECT_EQ(got.footprints, want.footprints);
}

TEST(CacheStudyTest, MethodologyFlipForcesRecompute) {
  // Baseline: a cold linear run on its own cache. Identical binaries inside
  // one run hit each other's fresh entries (content-level dedup), so the
  // from-cache counters are not zero even cold; what the flip must NOT add
  // is a single hit against the other methodology's entries.
  corpus::StudyOptions options = corpus::SmallStudyOptions();
  auto baseline_cache = FootprintCache::Open("");
  ASSERT_TRUE(baseline_cache.ok());
  options.cache = baseline_cache.value().get();
  options.analyzer.use_dataflow = false;
  auto baseline = corpus::RunStudy(options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Now warm a cache with the dataflow methodology and rerun linear on it.
  auto cache = FootprintCache::Open("");
  ASSERT_TRUE(cache.ok());
  options.cache = cache.value().get();
  options.analyzer.use_dataflow = true;
  auto dataflow = corpus::RunStudy(options);
  ASSERT_TRUE(dataflow.ok()) << dataflow.status().ToString();

  // A stale dataflow payload served to the linear ablation would silently
  // corrupt the ablation study: the linear run must behave exactly as on
  // its own empty cache, except for the analyzer-independent survey entry,
  // which is deliberately shared across methodologies.
  options.analyzer.use_dataflow = false;
  auto linear = corpus::RunStudy(options);
  ASSERT_TRUE(linear.ok()) << linear.status().ToString();
  EXPECT_EQ(linear.value().analyses_from_cache,
            baseline.value().analyses_from_cache);
  EXPECT_EQ(linear.value().resolutions_from_cache,
            baseline.value().resolutions_from_cache);
  EXPECT_EQ(linear.value().cache_stats.hits,
            baseline.value().cache_stats.hits + 1);
}

TEST(CacheStudyTest, IpaTierFlipMissesButNeverCorrupts) {
  // A warm dataflow cache must MISS under the ipa tier (fingerprints fold
  // use_ipa), never serve stale dataflow payloads into the ipa study — and
  // vice versa. Correctness oracle: the no-cache run of each tier.
  corpus::StudyOptions options = corpus::SmallStudyOptions();

  options.analyzer.use_ipa = true;
  auto ipa_reference = corpus::RunStudy(options);
  ASSERT_TRUE(ipa_reference.ok()) << ipa_reference.status().ToString();

  // Cold ipa baseline on its own cache: within-run content-level dedup
  // makes the from-cache counters nonzero even cold.
  auto ipa_cache = FootprintCache::Open("");
  ASSERT_TRUE(ipa_cache.ok());
  options.cache = ipa_cache.value().get();
  auto ipa_baseline = corpus::RunStudy(options);
  ASSERT_TRUE(ipa_baseline.ok()) << ipa_baseline.status().ToString();

  // Warm a cache with the dataflow tier, then flip to ipa on top of it.
  auto cache = FootprintCache::Open("");
  ASSERT_TRUE(cache.ok());
  options.cache = cache.value().get();
  options.analyzer.use_ipa = false;
  auto dataflow = corpus::RunStudy(options);
  ASSERT_TRUE(dataflow.ok()) << dataflow.status().ToString();

  options.analyzer.use_ipa = true;
  auto ipa_on_warm = corpus::RunStudy(options);
  ASSERT_TRUE(ipa_on_warm.ok()) << ipa_on_warm.status().ToString();
  // Exactly as many hits as on an empty cache, plus the tier-independent
  // survey entry — no dataflow analysis was reused.
  EXPECT_EQ(ipa_on_warm.value().analyses_from_cache,
            ipa_baseline.value().analyses_from_cache);
  EXPECT_EQ(ipa_on_warm.value().cache_stats.hits,
            ipa_baseline.value().cache_stats.hits + 1);
  // And the recovered precision is the no-cache ipa result, not dataflow's.
  EXPECT_EQ(ipa_on_warm.value().unknown_syscall_sites,
            ipa_reference.value().unknown_syscall_sites);
  EXPECT_LT(ipa_on_warm.value().unknown_syscall_sites,
            dataflow.value().unknown_syscall_sites);

  // Vice versa: flipping back to dataflow on the now-mixed cache replays
  // the dataflow entries (fully warm) with dataflow's own counters.
  options.analyzer.use_ipa = false;
  auto dataflow_warm = corpus::RunStudy(options);
  ASSERT_TRUE(dataflow_warm.ok()) << dataflow_warm.status().ToString();
  EXPECT_EQ(dataflow_warm.value().analyses_from_cache,
            dataflow_warm.value().analyzed_binaries);
  EXPECT_EQ(dataflow_warm.value().unknown_syscall_sites,
            dataflow.value().unknown_syscall_sites);
}

TEST(CacheStudyTest, PersistentCacheDirSurvivesAcrossRuns) {
  auto dir = std::filesystem::temp_directory_path() /
             "lapis-cache-test-study";
  std::filesystem::remove_all(dir);

  corpus::StudyOptions options = corpus::SmallStudyOptions();
  options.cache_dir = dir.string();

  auto cold = corpus::RunStudy(options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(cold.value().cache_stats.bytes_written, 0u);

  // A brand-new cache instance (fresh process in spirit) reloads the store.
  auto warm = corpus::RunStudy(options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm.value().cache_stats.misses, 0u);
  EXPECT_GE(static_cast<double>(warm.value().analyses_from_cache),
            0.95 * static_cast<double>(warm.value().analyzed_binaries));
  EXPECT_EQ(ExportAll(warm.value()).footprints,
            ExportAll(cold.value()).footprints);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lapis
