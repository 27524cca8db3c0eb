// serve_mix: the default artifact served by serve::Server over a Unix
// socket to four client threads, one connection each, in a closed loop:
// each client sends its next frame as soon as the previous answer
// arrives, while a publisher swaps a prebuilt snapshot in every 5 ms. A
// closed loop keeps the CPUs busy between frames; an open loop at a
// moderate rate leaves them idle, and on a virtual machine the latency of
// waking an idle vCPU swings with the host's load.
//
// Each client sends mix cycles of 20 frames in a seeded order: 17
// point-lookup frames, 2 eval-profile frames and 1 top-K frame. Frame
// shapes, client count and swap interval follow bench_serve_qps (batches
// of 32 importance lookups, one profile evaluation or one top-20 ranking
// per frame, 4 clients against 4 workers, a Publish every 5 ms). The
// 17/2/1 split is an assumption: no request log of the daemon exists to
// derive it from, and it models traffic that is mostly point lookups with
// a smaller share of the expensive profile evaluations and rankings.
//
// op_p50_ms, the median frame, follows the point lookups; ops_per_s,
// frames per second, is four clients over the mean frame time, which the
// eval frames dominate.
//
// A failed connect, a failed call, a non-OK status or a response that
// differs from the in-process answer counts as one failed attempt and is
// charged the whole window as its latency; the client reconnects and
// keeps going.

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "src/cache/content_hash.h"
#include "src/core/completeness.h"
#include "src/corpus/dataset_io.h"
#include "src/corpus/system_profiles.h"
#include "src/runtime/stage_stats.h"
#include "src/serve/client.h"
#include "src/serve/generation.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/snapshot.h"
#include "src/util/prng.h"

namespace lapis::perfbench {

namespace {

constexpr int kClients = 4;
constexpr size_t kPointBatch = 32;
constexpr double kSwapIntervalS = 0.005;
// Latency samples reserved per client, opcode and second of window. Pages
// are resident only once written, so room to spare costs no memory, and
// no sample vector doubles mid-window, which would show in the peak RSS.
constexpr double kSampleRoomPerSecond = 20000;

enum Kind { kPoint = 0, kEval = 1, kTopK = 2 };
// Frames of each kind in one mix cycle.
constexpr size_t kCycleFrames[] = {17, 2, 1};
constexpr const char* kKindNames[] = {"point", "eval", "topk"};
constexpr const char* kCallSpans[] = {"serve.call.importance",
                                      "serve.call.eval_profile",
                                      "serve.call.top_k"};
constexpr const char* kExecuteSpans[] = {"serve.execute.importance",
                                         "serve.execute.eval_profile",
                                         "serve.execute.top_k"};

struct Frame {
  Kind kind = kPoint;
  std::vector<serve::QueryRequest> batch;
  std::vector<uint8_t> expected;  // response frame, generation zeroed
};

// Response frame bytes with the generation numbers cleared: two snapshots
// of one artifact answer identically except for the generation they name.
std::vector<uint8_t> Canonical(std::vector<serve::QueryResponse> responses) {
  for (auto& response : responses) {
    response.generation = 0;
  }
  return serve::EncodeResponseFrame(responses);
}

serve::ApiRef RefOf(const serve::Snapshot& snapshot, core::ApiId api) {
  serve::ApiRef ref;
  ref.kind = api.kind;
  if (api.kind == core::ApiKind::kSyscall) {
    ref.name = std::string(snapshot.ApiName(api));  // exercise name lookup
  } else {
    ref.code = api.code;
  }
  return ref;
}

// The request pool: point-lookup batches over every API kind, Table 6
// profiles plus seeded syscall subsets for eval, seeded top-K queries.
std::vector<Frame> BuildFrames(const serve::Snapshot& snapshot,
                               uint64_t seed) {
  const core::StudyDataset& dataset = snapshot.dataset();
  Prng prng(seed ^ 0x5e27e5e27eULL);
  std::vector<core::ApiId> all;
  for (size_t k = 0; k < core::kApiKindCount; ++k) {
    auto apis = dataset.ApisOfKind(static_cast<core::ApiKind>(k));
    all.insert(all.end(), apis.begin(), apis.end());
  }
  const auto ranked = dataset.RankByImportance(core::ApiKind::kSyscall);
  auto syscall_subset = [&](size_t count) {
    std::vector<serve::ApiRef> refs;
    for (size_t i = 0; i < ranked.size() && refs.size() < count; ++i) {
      if (prng.NextBool(0.8)) {
        refs.push_back(RefOf(snapshot, ranked[i]));
      }
    }
    return refs;
  };
  const uint8_t syscall_mask =
      1u << static_cast<uint8_t>(core::ApiKind::kSyscall);

  std::vector<Frame> frames;
  for (int i = 0; i < 32; ++i) {
    Frame frame;
    frame.kind = kPoint;
    for (size_t j = 0; j < kPointBatch; ++j) {
      serve::QueryRequest request;
      request.opcode = serve::Opcode::kImportance;
      request.api = RefOf(snapshot, all[prng.NextBelow(all.size())]);
      frame.batch.push_back(std::move(request));
    }
    frames.push_back(std::move(frame));
  }
  for (const auto& row : corpus::LinuxSystemPlans()) {
    Frame frame;
    frame.kind = kEval;
    serve::QueryRequest request;
    request.opcode = serve::Opcode::kEvalProfile;
    request.evaluated_kinds_mask = syscall_mask;
    for (core::ApiId api :
         corpus::BuildSystemProfile(dataset, row).supported) {
      request.supported.push_back(RefOf(snapshot, api));
    }
    frame.batch.push_back(std::move(request));
    frames.push_back(std::move(frame));
  }
  for (int i = 0; i < 11; ++i) {
    Frame frame;
    frame.kind = kEval;
    serve::QueryRequest request;
    request.opcode = serve::Opcode::kEvalProfile;
    request.evaluated_kinds_mask = syscall_mask;
    request.supported = syscall_subset(50 + prng.NextBelow(200));
    frame.batch.push_back(std::move(request));
    frames.push_back(std::move(frame));
  }
  for (int i = 0; i < 16; ++i) {
    Frame frame;
    frame.kind = kTopK;
    serve::QueryRequest request;
    request.opcode = serve::Opcode::kTopK;
    request.top_kind = core::ApiKind::kSyscall;
    request.top_k = 20;
    request.supported = syscall_subset(prng.NextBelow(200));
    frame.batch.push_back(std::move(request));
    frames.push_back(std::move(frame));
  }
  for (auto& frame : frames) {
    std::vector<serve::QueryResponse> responses;
    for (const auto& request : frame.batch) {
      responses.push_back(snapshot.Execute(request));
    }
    frame.expected = Canonical(std::move(responses));
  }
  return frames;
}

struct Loaded {
  std::shared_ptr<const serve::Snapshot> primary;
  std::shared_ptr<const serve::Snapshot> alternate;
  std::vector<uint8_t> artifact;
};

// Set-up: a cold study (an empty cache directory, as study_warm's set-up
// runs it), serialized, written as an artifact and loaded as the served
// snapshot plus a prebuilt alternate for the swaps.
Result<Loaded> SetUp(const Config& config, Tracer& tracer, Report& report) {
  corpus::StudyOptions options = StudyOptionsFor(config);
  options.audit = true;  // the artifact carries evidence for the plan pass
  options.cache_dir = config.work_dir + "/setup-cache";
  if (!ResetDir(options.cache_dir)) {
    return IoError("cannot create " + options.cache_dir);
  }
  auto study = Traced(tracer, "corpus.run_study",
                      [&] { return corpus::RunStudy(options); });
  LAPIS_RETURN_IF_ERROR(study.status());
  ReportStudyStats(study.value(), report);
  report.Check(study.value().ground_truth_mismatches == 0,
               "set-up study: ground-truth mismatches");
  report.Check(study.value().audit.has_value() && study.value().audit->sound(),
               "set-up study: audit found footprint violations");
  ByteWriter writer;
  LAPIS_RETURN_IF_ERROR(Traced(tracer, "corpus.serialize", [&] {
    return corpus::SerializeStudy(study.value(), writer);
  }));
  Loaded loaded;
  loaded.artifact = writer.bytes();
  const std::string path = config.work_dir + "/artifact.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(loaded.artifact.data()),
              static_cast<std::streamsize>(loaded.artifact.size()));
    if (!out.good()) {
      return IoError("cannot write " + path);
    }
  }
  LAPIS_ASSIGN_OR_RETURN(loaded.primary,
                         Traced(tracer, "serve.snapshot_load", [&] {
                           return serve::Snapshot::FromFile(path);
                         }));
  LAPIS_ASSIGN_OR_RETURN(loaded.alternate,
                         serve::Snapshot::FromArtifactBytes(loaded.artifact,
                                                            "alternate"));
  return loaded;
}

struct Samples {
  std::vector<double> latency_s[3];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
};

// Sends `frame` on `client`, connecting first if needed, and sets
// `answered_ns` when the answer has arrived, before it is checked. Returns
// the failure, or "" when the answer equals the in-process one.
std::string CallFrame(const std::string& socket, const Frame& frame,
                      std::unique_ptr<serve::QueryClient>& client,
                      int64_t& answered_ns) {
  if (client == nullptr || !client->connected()) {
    auto connected = serve::QueryClient::ConnectUnix(socket, 10000);
    if (!connected.ok()) {
      return "connect: " + connected.status().ToString();
    }
    client = std::make_unique<serve::QueryClient>(connected.take());
  }
  auto responses = client->Call(frame.batch);
  answered_ns = NowNs();
  if (!responses.ok()) {
    client->Close();
    return "call: " + responses.status().ToString();
  }
  for (const auto& response : responses.value()) {
    if (response.status != serve::WireStatus::kOk) {
      return std::string("status ") + serve::WireStatusName(response.status);
    }
  }
  if (Canonical(responses.take()) != frame.expected) {
    return "response differs from in-process Execute";
  }
  return "";
}

// One client: mix cycles back to back on its own connection until
// `deadline_ns`, the last cycle run to its end. Its frames are requests
// `first_request`, `first_request + 1`, ...; a failed frame is charged
// `window_s` as its latency.
void Drive(const std::string& socket, const std::vector<Frame>& frames,
           const std::vector<size_t> (&by_kind)[3], int64_t deadline_ns,
           double window_s, uint64_t first_request, uint64_t seed,
           Tracer& tracer, Samples& out) {
  Prng prng(seed);
  std::vector<Kind> cycle;
  for (int k = 0; k < 3; ++k) {
    cycle.insert(cycle.end(), kCycleFrames[k], static_cast<Kind>(k));
  }
  std::unique_ptr<serve::QueryClient> client;
  uint64_t request = first_request;
  while (NowNs() < deadline_ns) {
    for (size_t i = cycle.size() - 1; i > 0; --i) {
      std::swap(cycle[i], cycle[prng.NextBelow(i + 1)]);
    }
    for (Kind kind : cycle) {
      const std::vector<size_t>& pool = by_kind[kind];
      const Frame& frame = frames[pool[prng.NextBelow(pool.size())]];
      const int64_t start = NowNs();
      int64_t answered = 0;
      std::string failure;
      {
        Span span(&tracer, kCallSpans[kind], request++);
        failure = CallFrame(socket, frame, client, answered);
      }
      ++out.attempted;
      if (failure.empty()) {
        out.latency_s[kind].push_back(
            static_cast<double>(answered - start) * 1e-9);
        continue;
      }
      out.latency_s[kind].push_back(window_s);
      ++out.failed;
      if (out.first_failure.empty()) {
        out.first_failure = failure;
      }
    }
  }
}

struct WindowResult {
  Samples merged;
  double wall_s = 0.0;  // until the last client finished its last cycle
  double cpu_s = 0.0;
  double peak_rss_mib = 0.0;  // when the last client finished
};

// Drives `seconds` of closed-loop load against `socket` while publishing
// alternate snapshots into `store`.
WindowResult RunWindow(const std::string& socket,
                       const std::vector<Frame>& frames,
                       const std::vector<size_t> (&by_kind)[3],
                       serve::GenerationStore& store, const Loaded& loaded,
                       double seconds, uint64_t seed, Tracer& tracer) {
  std::vector<Samples> per_thread(kClients);
  for (auto& samples : per_thread) {
    for (auto& latencies : samples.latency_s) {
      latencies.reserve(static_cast<size_t>(seconds * kSampleRoomPerSecond));
    }
  }
  WindowResult result;
  std::atomic<bool> done{false};
  const double cpu_start = runtime::ProcessCpuSeconds();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        Drive(socket, frames, by_kind, deadline, seconds,
              (static_cast<uint64_t>(t) + 1) << 32,
              seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(t) + 1,
              tracer, per_thread[t]);
      });
    }
    std::jthread publisher([&] {
      bool flip = false;
      int64_t next = start;
      while (!done.load()) {
        next += static_cast<int64_t>(kSwapIntervalS * 1e9);
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::max<int64_t>(0, next - NowNs())));
        if (done.load()) {
          break;
        }
        Traced(tracer, "serve.swap", [&] {
          return store.Publish(flip ? loaded.primary : loaded.alternate);
        });
        flip = !flip;
      }
    });
    for (auto& thread : threads) {
      thread.join();
    }
    done.store(true);
  }
  result.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  result.cpu_s = runtime::ProcessCpuSeconds() - cpu_start;
  result.peak_rss_mib = PeakRssMib();
  for (auto& samples : per_thread) {
    for (int k = 0; k < 3; ++k) {
      auto& into = result.merged.latency_s[k];
      into.insert(into.end(), samples.latency_s[k].begin(),
                  samples.latency_s[k].end());
    }
    result.merged.attempted += samples.attempted;
    result.merged.failed += samples.failed;
    if (result.merged.first_failure.empty()) {
      result.merged.first_failure = samples.first_failure;
    }
  }
  return result;
}

std::vector<double> AllLatencies(const Samples& samples) {
  std::vector<double> all;
  for (const auto& kind : samples.latency_s) {
    all.insert(all.end(), kind.begin(), kind.end());
  }
  return all;
}

}  // namespace

Status RunServeMix(const Config& config, Tracer& tracer, Report& report) {
  std::vector<double> setup_s;
  Loaded loaded;
  for (int i = 0; i < config.setups; ++i) {
    Span span(&tracer, "setup", 0);
    const int64_t start = NowNs();
    LAPIS_ASSIGN_OR_RETURN(loaded, SetUp(config, tracer, report));
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  report.Timing("setup_s", setup_s, "s");
  report.Digest("artifact", cache::HashBytes(loaded.artifact));

  // peak_rss_rise_mib is what a serving process adds: the snapshots are
  // released with the rest of the set-up studies' memory, then loaded from
  // the artifact again and served in the untraced window. Heap the set-up
  // left fragmented stays resident in amounts that vary from run to run,
  // so the rise above the resident size at the reset is reported.
  loaded.primary.reset();
  loaded.alternate.reset();
  const double rss_base_mib = ResetPeakRss();
  report.Check(rss_base_mib >= 0, "cannot reset the peak RSS");
  LAPIS_ASSIGN_OR_RETURN(
      loaded.primary,
      serve::Snapshot::FromFile(config.work_dir + "/artifact.bin"));
  LAPIS_ASSIGN_OR_RETURN(loaded.alternate,
                         serve::Snapshot::FromArtifactBytes(loaded.artifact,
                                                            "alternate"));

  const std::vector<Frame> frames = BuildFrames(*loaded.primary, config.seed);
  uint64_t pool_digest = 0;
  for (const auto& frame : frames) {
    pool_digest = cache::HashBytes(frame.expected, pool_digest ^ 0x100);
  }
  report.Digest("responses", pool_digest);
  std::vector<size_t> by_kind[3];
  for (size_t i = 0; i < frames.size(); ++i) {
    by_kind[frames[i].kind].push_back(i);
  }

  serve::GenerationStore store;
  store.Publish(loaded.primary);
  serve::ServerOptions options;
  options.unix_socket_path = config.work_dir + "/serve.sock";
  options.workers = kClients;
  LAPIS_ASSIGN_OR_RETURN(auto server, serve::Server::Start(options, &store));

  // A traced run measures half its window untraced and half traced.
  Tracer untraced(false);
  const int phases = config.trace ? 2 : 1;
  WindowResult windows[2];
  for (int phase = 0; phase < phases; ++phase) {
    windows[phase] = RunWindow(options.unix_socket_path, frames, by_kind,
                               store, loaded, config.seconds / phases,
                               config.seed + static_cast<uint64_t>(phase),
                               phase == 1 ? tracer : untraced);
  }
  report.Metric("peak_rss_rise_mib", windows[0].peak_rss_mib - rss_base_mib,
                "MiB");
  server->Stop();
  const serve::ServerStats stats = server->stats();

  for (int phase = 0; phase < phases; ++phase) {
    const Samples& s = windows[phase].merged;
    report.Attempts(s.attempted, s.failed, s.first_failure);
  }
  const Samples& measured = windows[0].merged;
  const std::vector<double> latencies = AllLatencies(measured);
  const double frames_sent = static_cast<double>(latencies.size());
  report.Timing("op_p50_ms", latencies, "ms");
  report.Metric("ops_per_s", frames_sent / windows[0].wall_s, "1/s");
  report.Metric("cpu_ms_per_op", windows[0].cpu_s * 1e3 / frames_sent, "ms");
  for (int k = 0; k < 3; ++k) {
    const std::string base = std::string("serve.") + kKindNames[k];
    report.Timing(base + "_p50_us", measured.latency_s[k], "us");
    report.Metric(base + "_p99_us",
                  Percentile(measured.latency_s[k], 99.0) * 1e6, "us");
  }
  report.Metric("serve.frames_served",
                static_cast<double>(stats.frames_served), "count");
  report.Metric("serve.requests_served",
                static_cast<double>(stats.requests_served), "count");
  report.Metric("serve.protocol_errors",
                static_cast<double>(stats.protocol_errors), "count");
  report.Metric("serve.frames_shed", static_cast<double>(stats.frames_shed),
                "count");
  report.Metric("serve.connections_shed",
                static_cast<double>(stats.connections_shed), "count");
  report.Check(stats.protocol_errors == 0 && stats.frames_shed == 0 &&
                   stats.connections_shed == 0,
               "uncapped server dropped or shed frames");
  uint64_t attempted = 0;
  for (int phase = 0; phase < phases; ++phase) {
    attempted += windows[phase].merged.attempted;
  }
  report.Check(stats.frames_served == attempted,
               "server frame count differs from frames sent");

  if (config.trace) {
    report.Metric("trace.overhead",
                  Median(AllLatencies(windows[1].merged)) /
                      Median(latencies),
                  "ratio");
    // In-process execution of every pooled request: client latency minus
    // this is protocol, socket and queue time.
    for (int round = 0; round < 20; ++round) {
      for (const auto& frame : frames) {
        for (const auto& request : frame.batch) {
          Traced(tracer, kExecuteSpans[frame.kind], [&] {
            return loaded.primary->Execute(request).status;
          });
        }
        if (frame.kind == kEval) {
          core::CompletenessOptions completeness;
          completeness.evaluated_kinds = {core::ApiKind::kSyscall};
          std::set<core::ApiId> supported;
          for (const auto& ref : frame.batch[0].supported) {
            core::ApiId api;
            bool absent = false;
            if (loaded.primary->ResolveApi(ref, &api, &absent) ==
                serve::WireStatus::kOk) {
              supported.insert(api);
            }
          }
          Traced(tracer, "core.weighted_completeness", [&] {
            return core::WeightedCompleteness(loaded.primary->dataset(),
                                              supported, completeness);
          });
        }
      }
    }
    ByteReader reader(loaded.artifact);
    auto artifact = Traced(tracer, "corpus.deserialize",
                           [&] { return corpus::DeserializeStudy(reader); });
    if (!artifact.ok()) {
      return artifact.status();
    }
    Status finalize = TimedFinalize(*artifact.value().dataset, tracer);
    report.Check(finalize.ok(), "finalize: " + finalize.ToString());
    LAPIS_RETURN_IF_ERROR(
        RunPlanPass(artifact.value(), config.seed, tracer, report));
  }
  return Status::Ok();
}

}  // namespace lapis::perfbench
