// serve: open-loop serving. Requests, each one 3 x 16 x 18 clip, arrive
// on a seeded Poisson schedule at 40 req/s and go through
// InferenceServer::Submit: DhgcnConfig::Small (Kinetics-18, 8 classes)
// with int8 fused plans, 2 workers, max batch 8, 2 ms coalescing delay,
// queue 64, ThreadPool at 2 threads. The 50 ms deadline is also the
// latency limit. Latency runs from each request's scheduled due time (not
// from Submit) to its completion callback, so a generator stall is
// charged to the requests it delays.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "alloc_count.h"
#include "base/thread_pool.h"
#include "core/dhgcn_model.h"
#include "data/dataloader.h"
#include "data/dataset.h"
#include "data/synthetic_generator.h"
#include "model_prep.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int64_t kClasses = 8;
constexpr int64_t kFrames = 16;
constexpr int64_t kClipsPerClass = 8;  // 64 distinct clips, cycled
constexpr double kRatePerS = 40.0;
constexpr int64_t kLimitNs = 50'000'000;
constexpr int64_t kThreads = 2;
constexpr int64_t kMaxBatch = 8;
constexpr int kWarmupRounds = 4;
constexpr int64_t kDrainTimeoutNs = 10'000'000'000;

struct Collector;

/// One scheduled request. Fields after `complete_ns` are written once by
/// the completing worker and read by the main thread only after it has
/// seen `Collector::done` count the request (acquire/release).
struct Request {
  Collector* owner = nullptr;
  int64_t due_ns = 0;
  int64_t submit_begin_ns = 0;
  int64_t submit_end_ns = 0;
  dhgcn::StatusCode code = dhgcn::StatusCode::kOk;
  bool admitted = false;
  int64_t complete_ns = 0;
  int64_t queue_ns = 0;
  int64_t total_ns = 0;
  bool finite = false;
};

struct Collector {
  std::atomic<int64_t> done{0};
};

void OnDone(void* ctx, const dhgcn::ServeResponse& response) {
  Request* r = static_cast<Request*>(ctx);
  r->complete_ns = NowNs();
  r->code = response.status.code();
  r->queue_ns = response.queue_ns;
  r->total_ns = response.total_ns;
  if (response.status.ok()) {
    const dhgcn::Tensor& logits = response.logits;
    bool finite = logits.numel() == kClasses;
    for (int64_t j = 0; finite && j < kClasses; ++j) {
      finite = std::isfinite(logits.data()[j]);
    }
    r->finite = finite;
  }
  r->owner->done.fetch_add(1, std::memory_order_release);
}

struct Clips {
  std::vector<dhgcn::Tensor> clips;  // (C, T, V), stream-transformed
};

Clips MakeClips(uint64_t seed) {
  const dhgcn::SkeletonDataset dataset =
      dhgcn::SkeletonDataset::Generate(
          dhgcn::KineticsLikeConfig(kClasses, kClipsPerClass, kFrames, seed))
          .ValueOrDie();
  std::vector<int64_t> indices(static_cast<size_t>(dataset.size()));
  for (size_t i = 0; i < indices.size(); ++i) {
    indices[i] = static_cast<int64_t>(i);
  }
  const dhgcn::DataLoader loader(&dataset, indices, /*batch_size=*/1,
                                 dhgcn::InputStream::kJoint,
                                 /*shuffle=*/false);
  Clips c;
  for (int64_t i : indices) {
    c.clips.push_back(loader.TransformData(dataset.sample(i).data));
  }
  return c;
}

dhgcn::DhgcnConfig ModelConfig(uint64_t seed) {
  dhgcn::DhgcnConfig config = dhgcn::DhgcnConfig::Small(
      dhgcn::SkeletonLayoutType::kKinetics18, kClasses);
  config.seed = seed;
  return config;
}

struct Setup {
  Clips data;
  std::unique_ptr<dhgcn::InferenceServer> server;
};

// Waits until `collector` has counted `expected` completions.
bool Drain(const Collector& collector, int64_t expected) {
  const int64_t give_up = NowNs() + kDrainTimeoutNs;
  while (collector.done.load(std::memory_order_acquire) < expected) {
    if (NowNs() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// Submits bursts of every micro-batch size so each worker compiles its
// lazily built plan for each size before timing starts.
void WarmUp(Setup& s) {
  for (int round = 0; round < kWarmupRounds; ++round) {
    for (int64_t size = 1; size <= kMaxBatch; ++size) {
      Collector collector;
      std::vector<Request> burst(static_cast<size_t>(size));
      int64_t admitted = 0;
      for (int64_t i = 0; i < size; ++i) {
        Request& r = burst[static_cast<size_t>(i)];
        r.owner = &collector;
        const dhgcn::Tensor& clip = s.data.clips[static_cast<size_t>(i)];
        if (s.server->Submit(clip, {}, &OnDone, &r).ok()) ++admitted;
      }
      // `burst` must outlive every callback; Shutdown fires the rest.
      if (!Drain(collector, admitted)) s.server->Shutdown();
    }
  }
}

// What a user pays before the first request: clips, server start (each
// worker loads the checkpoint and calibrates and compiles its int8
// plans), and a warm-up that compiles every micro-batch size.
Setup SetUp(uint64_t seed, const std::string& params) {
  Setup s;
  s.data = MakeClips(seed);
  dhgcn::ServerOptions server;
  server.worker_count = 2;
  server.plan_mode = dhgcn::PlanMode::kFused;
  server.precision = dhgcn::Precision::kInt8;
  server.batcher.queue_capacity = 64;
  server.batcher.max_batch_size = kMaxBatch;
  server.batcher.batch_delay_ns = 2'000'000;
  server.default_deadline_ns = kLimitNs;
  s.server = dhgcn::InferenceServer::Create(params, ModelConfig(seed),
                                            kFrames, server)
                 .ValueOrDie();
  WarmUp(s);
  return s;
}

struct Phase {
  int64_t scheduled = 0;
  int64_t ok = 0;
  int64_t ok_in_limit = 0;
  int64_t failed = 0;
  int64_t wrong = 0;  // OK responses with bad logits, or never completed
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t allocs = 0;
  std::vector<double> latency_ms;  // kFailed without a valid answer
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  std::vector<double> submit_us;
  std::vector<double> late_ms;
  dhgcn::ServeStats stats;  // delta over the phase
  std::vector<Request> requests;
};

Phase RunPhase(Setup& s, uint64_t schedule_seed, double seconds) {
  Phase p;
  const std::vector<int64_t> due =
      PoissonSchedule(schedule_seed, kRatePerS, seconds);
  Collector collector;
  p.scheduled = static_cast<int64_t>(due.size());
  p.requests.resize(due.size());
  const dhgcn::ServeStats before = s.server->Stats();
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t a0 = HeapAllocations();
  const int64_t t0 = NowNs() + 5'000'000;
  int64_t admitted = 0;
  for (size_t i = 0; i < due.size(); ++i) {
    Request& r = p.requests[i];
    const size_t clip = i % s.data.clips.size();
    r.owner = &collector;
    r.due_ns = t0 + due[i];
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(r.due_ns)));
    r.submit_begin_ns = NowNs();
    const dhgcn::Status st =
        s.server->Submit(s.data.clips[clip], {}, &OnDone, &r);
    r.submit_end_ns = NowNs();
    r.admitted = st.ok();
    if (r.admitted) {
      ++admitted;
    } else {
      r.code = st.code();
    }
  }
  const bool drained = Drain(collector, admitted);
  // Shutdown fires every outstanding callback before it returns, so no
  // worker can still be writing a record (or the collector) below.
  if (!drained) s.server->Shutdown();
  int64_t end_ns = NowNs();
  if (drained) {
    end_ns = p.requests.empty() ? t0 : p.requests.back().submit_end_ns;
    for (const Request& r : p.requests) {
      if (r.admitted) end_ns = std::max(end_ns, r.complete_ns);
    }
  }
  p.wall_s = static_cast<double>(end_ns - t0) * 1e-9;
  p.cpu_s = ProcessCpuSeconds() - cpu0;
  p.allocs = HeapAllocations() - a0;
  const dhgcn::ServeStats after = s.server->Stats();
  p.stats.batches = after.batches - before.batches;
  p.stats.batched_requests = after.batched_requests - before.batched_requests;
  p.stats.shed_overloaded = after.shed_overloaded - before.shed_overloaded;
  p.stats.expired = after.expired - before.expired;

  p.latency_ms.reserve(due.size());
  for (const Request& r : p.requests) {
    p.submit_us.push_back(
        static_cast<double>(r.submit_end_ns - r.submit_begin_ns) * 1e-3);
    p.late_ms.push_back(static_cast<double>(r.submit_begin_ns - r.due_ns) *
                        1e-6);
    const bool completed = r.admitted && drained;
    const bool ok = completed && r.code == dhgcn::StatusCode::kOk;
    if (ok && !r.finite) ++p.wrong;
    if (r.admitted && !drained) ++p.wrong;
    const int64_t latency = r.complete_ns - r.due_ns;
    // An OK answer keeps its latency even when late; it still fails.
    p.latency_ms.push_back(
        ok && r.finite ? static_cast<double>(latency) * 1e-6 : kFailed);
    if (ok && r.finite) {
      ++p.ok;
      p.queue_ms.push_back(static_cast<double>(r.queue_ns) * 1e-6);
      p.exec_ms.push_back(static_cast<double>(r.total_ns - r.queue_ns) *
                          1e-6);
    }
    if (ok && r.finite && latency <= kLimitNs) {
      ++p.ok_in_limit;
    } else {
      ++p.failed;
    }
  }
  return p;
}

// JSON has no infinity: a percentile that lands on a failed request
// prints as a 1e9 ms stand-in.
double Finite(double ms) { return std::isinf(ms) ? 1e9 : ms; }

// Rebuilds each request's spans from its stamps. The server reports
// queue and total time relative to its own Submit stamp on the same
// steady clock, so server-side submit = completion - total.
void AddSpans(const Phase& p, Tracer* tracer) {
  for (size_t i = 0; i < p.requests.size(); ++i) {
    const Request& r = p.requests[i];
    const int64_t key = static_cast<int64_t>(i);
    const int64_t lane = 1 + key % 64;
    const int64_t end = r.admitted ? r.complete_ns : r.submit_end_ns;
    const int64_t root = tracer->Add("serve.request", r.due_ns, end, -1, key,
                                     lane);
    tracer->Add("serve.generator_late", r.due_ns, r.submit_begin_ns, root,
                key, lane);
    tracer->Add("serve.submit", r.submit_begin_ns, r.submit_end_ns, root, key,
                lane);
    if (!r.admitted) continue;
    const int64_t server_submit = r.complete_ns - r.total_ns;
    const int64_t taken = server_submit + r.queue_ns;
    tracer->Add("serve.queue_wait", server_submit, taken, root, key, lane);
    tracer->Add("serve.exec", taken, r.complete_ns, root, key, lane);
  }
}

}  // namespace

WorkloadResult RunServe(const RunOptions& options) {
  WorkloadResult result;
  result.threads = kThreads;
  dhgcn::ThreadPool::Get().SetThreads(kThreads);

  const std::string params =
      options.work_dir + "/serve-seed" + std::to_string(options.seed) +
      ".params";
  {
    const Clips c = MakeClips(options.seed);
    const dhgcn::Shape& clip = c.clips[0].shape();
    dhgcn::Tensor batch({kMaxBatch, clip[0], clip[1], clip[2]});
    for (int64_t i = 0; i < kMaxBatch; ++i) {
      std::copy_n(c.clips[static_cast<size_t>(i)].data(), c.clips[0].numel(),
                  batch.data() + i * c.clips[0].numel());
    }
    SaveCalibratedModel(ModelConfig(options.seed), batch, params);
  }

  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int r = 0; r < (options.trace ? 1 : kSetupRepeats); ++r) {
    setup.reset();
    const int64_t t0 = NowNs();
    setup = std::make_unique<Setup>(SetUp(options.seed, params));
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  Setup& s = *setup;

  auto count = [&](const Phase& p) {
    result.attempted += p.scheduled;
    result.failed += p.failed;
    if (p.wrong > 0) result.correct = false;
  };
  auto limit_note = [&](const char* what, const Percentile& q) {
    result.notes.push_back(std::string(what) + " samples=" +
                           std::to_string(q.samples) + ", " +
                           std::to_string(q.beyond) + " beyond it");
  };

  if (!options.trace) {
    const Phase p = RunPhase(s, options.seed, options.seconds);
    count(p);
    const Percentile p50 = NearestRank(p.latency_ms, 50);
    const Percentile p99 = NearestRank(p.latency_ms, 99);
    result.Add("setup_s", NearestRank(setup_s, 50).value, "s");
    result.Add("clips_per_s", static_cast<double>(p.ok) / p.wall_s, "1/s");
    result.Add("step_p50_ms", NearestRank(p.exec_ms, 50).value, "ms");
    result.Add("latency_p50_ms", Finite(p50.value), "ms");
    result.Add("goodput_rps", static_cast<double>(p.ok_in_limit) / p.wall_s,
               "1/s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    limit_note("latency_p50_ms", p50);
    limit_note("latency p99", p99);
  } else {
    const Phase plain = RunPhase(s, options.seed, options.seconds / 2);
    count(plain);
    result.trace_origin_ns = NowNs();
    const Phase traced =
        RunPhase(s, options.seed ^ 0x7ace7ace7ace7aceULL, options.seconds / 2);
    count(traced);
    result.tracer.Reserve(traced.requests.size() * 5);
    AddSpans(traced, &result.tracer);
    const Percentile q99 = NearestRank(traced.queue_ms, 99);
    const Percentile p99 = NearestRank(traced.latency_ms, 99);
    const Percentile e99 = NearestRank(traced.exec_ms, 99);
    const double plain_p50 = NearestRank(plain.latency_ms, 50).value;
    const double traced_p50 = NearestRank(traced.latency_ms, 50).value;
    result.Add("serve.latency_p99_ms", Finite(p99.value), "ms");
    result.Add("serve.queue_wait_p50_ms",
               NearestRank(traced.queue_ms, 50).value, "ms");
    result.Add("serve.queue_wait_p99_ms", q99.value, "ms");
    result.Add("serve.exec_p50_ms", NearestRank(traced.exec_ms, 50).value,
               "ms");
    result.Add("serve.exec_p99_ms", e99.value, "ms");
    result.Add("serve.batch_size_mean",
               traced.stats.batches > 0
                   ? static_cast<double>(traced.stats.batched_requests) /
                         static_cast<double>(traced.stats.batches)
                   : 0.0,
               "requests");
    result.Add("serve.shed", static_cast<double>(traced.stats.shed_overloaded),
               "count");
    result.Add("serve.expired", static_cast<double>(traced.stats.expired),
               "count");
    result.Add("serve.submit_p99_us", NearestRank(traced.submit_us, 99).value,
               "us");
    result.Add("serve.generator_late_p99_ms",
               NearestRank(traced.late_ms, 99).value, "ms");
    result.Add("heap.allocs_per_step",
               static_cast<double>(plain.allocs) /
                   static_cast<double>(std::max<int64_t>(plain.scheduled, 1)),
               "count");
    result.Add("base.cpu_per_wall", plain.cpu_s / plain.wall_s, "s/s");
    result.Add("trace.overhead_pct",
               std::isfinite(plain_p50) && std::isfinite(traced_p50)
                   ? 100.0 * (traced_p50 - plain_p50) / plain_p50
                   : 0.0,
               "%");
    limit_note("serve.latency_p99_ms", p99);
    limit_note("serve.queue_wait_p99_ms", q99);
    limit_note("serve.exec_p99_ms", e99);
    result.notes.push_back(
        "serving spans are rebuilt from response stamps after the run, so "
        "tracing adds no work while requests are in flight");
  }
  return result;
}

}  // namespace perfbench
