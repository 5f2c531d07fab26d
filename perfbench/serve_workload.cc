// serve-poisson: open-loop Poisson load on one tenant through ModelRegistry
// and ForecastService with default ServiceOptions. Every request is timed
// from the moment it was due, so a stalled generator or a growing queue shows
// in the latency; the generator's own lateness is reported beside it. The
// load comes from one generator thread; with MUSENET_NUM_THREADS=2 (the
// dispatcher plus one pool worker) the process stays within four cores.

#include <algorithm>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "obs/trace.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "tensor/serialize.h"
#include "tensor/storage_pool.h"
#include "tensor/tensor_ops.h"

namespace perfbench {
namespace {

namespace ts = musenet::tensor;
namespace serve = musenet::serve;
using musenet::data::Batch;

constexpr char kTenant[] = "taxi";
constexpr double kLightRps = 500.0;
/// Busy batches requests (mean batch ~3.3) and leaves the service headroom.
/// When other tenants of the host take CPU time, queueing amplifies it: with
/// two spinning processes beside the benchmark, 2000 rps moved busy p90 from
/// 3.8 to 5.4-7.2 ms and shed requests, 1000 rps held 4.6-4.7 ms.
constexpr double kBusyRps = 1000.0;
constexpr double kSloMs = 10.0;
constexpr double kFp32Gate = 1e-4;
/// A phase whose generator issued more than a tenth of its requests later
/// than this is flagged and not reported: its latencies would describe the
/// generator, not the service.
constexpr double kLatenessBoundMs = 2.0;
constexpr int kProbes = 3;
/// Light and busy load alternate in chunks of about this many seconds.
constexpr double kChunkS = 2.5;

struct ServeWorld {
  std::unique_ptr<musenet::data::TrafficDataset> dataset;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::vector<Batch> windows;     ///< Held-out test windows, batch 1.
  std::vector<ts::Tensor> refs;   ///< The model's own Predict per window.
  double simulate_s = 0.0;
  double ckpt_train_s = 0.0;
  double registry_load_s = 0.0;
};

ServeWorld SetupServe(const Context& ctx, SpanRecorder* spans) {
  ServeWorld w;
  const int64_t root = Open(spans, "client", "setup");
  w.dataset = MakeDataset(
      SimulateCity(musenet::sim::DatasetId::kNycTaxi, 10, 20, 40,
                   spans, root, &w.simulate_s),
      spans, root);
  const musenet::muse::MuseNetConfig config = ModelConfig(*w.dataset, 8, 16);
  const std::string ckpt = ctx.out_dir + "/serve-poisson.ckpt";

  {  // One epoch of training, written as the tenant's container.
    const int64_t span = Open(spans, "eval", "eval.ckpt_train", root);
    const int64_t start = NowNs();
    musenet::muse::MuseNet model(config, ctx.seed);
    musenet::eval::TrainConfig train;
    train.epochs = 1;
    train.batch_size = 8;
    train.learning_rate = 1e-3;
    train.seed = ctx.seed;
    const musenet::Status trained =
        musenet::eval::RunTraining(MakeDriver(model), *w.dataset, train);
    if (!trained.ok()) throw std::runtime_error(trained.ToString());
    const int64_t save = Open(spans, "tensor", "tensor.save", span);
    const musenet::Status saved = ts::SaveTensors(ckpt, model.StateDict());
    if (!saved.ok()) throw std::runtime_error(saved.ToString());
    Close(spans, save);
    w.ckpt_train_s = SecondsSince(start);
    Close(spans, span);
  }

  const std::vector<int64_t>& test = w.dataset->test_indices();
  if (test.size() < 64) throw std::runtime_error("too few test windows");
  {  // Registry load (parse, build, shadow probes) plus warm plans 1..8.
    const int64_t span = Open(spans, "serve", "serve.registry_load", root);
    const int64_t start = NowNs();
    serve::RegistryOptions options;
    for (int p = 0; p < kProbes; ++p) {
      options.probes.push_back(w.dataset->MakeBatch({test[p]}));
    }
    w.registry = std::make_unique<serve::ModelRegistry>(std::move(options));
    serve::ModelSpec spec;
    spec.name = kTenant;
    spec.path = ckpt;
    spec.config = config;
    spec.seed = ctx.seed;
    const musenet::Status loaded = w.registry->Load(spec);
    if (!loaded.ok()) throw std::runtime_error(loaded.ToString());
    auto plan = w.registry->Acquire(kTenant);
    const int64_t warm = Open(spans, "infer", "infer.warm", span);
    for (size_t b = 1; b <= 8; ++b) {
      std::vector<int64_t> idx(test.begin(), test.begin() + b);
      plan->engine->Predict(w.dataset->MakeBatch(idx));
    }
    Close(spans, warm);
    w.registry_load_s = SecondsSince(start);
    Close(spans, span);
  }

  {  // Request pool and references, computed once.
    const int64_t span = Open(spans, "data", "data.make_batch", root);
    for (int64_t idx : test) w.windows.push_back(w.dataset->MakeBatch({idx}));
    Close(spans, span);
    const int64_t ref_span = Open(spans, "muse", "muse.reference", root);
    auto plan = w.registry->Acquire(kTenant);
    constexpr size_t kChunk = 32;
    for (size_t lo = 0; lo < test.size(); lo += kChunk) {
      const size_t hi = std::min(test.size(), lo + kChunk);
      std::vector<int64_t> idx(test.begin() + lo, test.begin() + hi);
      const ts::Tensor pred = plan->model->Predict(w.dataset->MakeBatch(idx));
      for (size_t i = 0; i < idx.size(); ++i) {
        w.refs.push_back(ts::Slice(pred, 0, static_cast<int64_t>(i), 1));
      }
    }
    Close(spans, ref_span);
  }
  Close(spans, root);
  return w;
}

/// One request as the client saw it.
struct Outcome {
  int64_t due_ns = 0;
  int64_t submit_begin_ns = 0;
  int64_t submit_end_ns = 0;
  int64_t done_ns = 0;
  bool completed = false;
};

/// Requests of one phase, gathered over one or more chunks.
struct ServePhase {
  std::vector<Outcome> outcomes;  ///< In issue order.
  ServeTally tally;
  ServeCounters counters;
  double max_delta = 0.0;
  int64_t mismatches = 0;
  int64_t batches = 0;            ///< serve.batch_size histogram delta.
  double batch_size_sum = 0.0;
  int64_t admissions = 0;         ///< serve.queue_depth histogram delta.
  double queue_depth_sum = 0.0;
  int64_t parallel_for = 0;       ///< parallel_for.calls delta.
  int64_t fresh_allocs = 0;       ///< tensor.pool.fresh_allocs delta.
  int64_t reuses = 0;             ///< tensor.pool.reuses delta.
  std::vector<double> waits_ms;   ///< Traced only: Submit to batch start.
  std::vector<double> replay_ms;  ///< Traced only: engine replays.
};

void Merge(ServePhase& into, const ServePhase& chunk) {
  into.outcomes.insert(into.outcomes.end(), chunk.outcomes.begin(),
                       chunk.outcomes.end());
  into.tally.issued += chunk.tally.issued;
  into.tally.completed += chunk.tally.completed;
  into.tally.shed += chunk.tally.shed;
  into.tally.timed_out += chunk.tally.timed_out;
  into.tally.errored += chunk.tally.errored;
  into.counters.requests += chunk.counters.requests;
  into.counters.admitted += chunk.counters.admitted;
  into.counters.shed += chunk.counters.shed;
  into.counters.timed_out += chunk.counters.timed_out;
  into.counters.completed += chunk.counters.completed;
  into.max_delta = std::max(into.max_delta, chunk.max_delta);
  into.mismatches += chunk.mismatches;
  into.batches += chunk.batches;
  into.batch_size_sum += chunk.batch_size_sum;
  into.admissions += chunk.admissions;
  into.queue_depth_sum += chunk.queue_depth_sum;
  into.parallel_for += chunk.parallel_for;
  into.fresh_allocs += chunk.fresh_allocs;
  into.reuses += chunk.reuses;
  into.waits_ms.insert(into.waits_ms.end(), chunk.waits_ms.begin(),
                       chunk.waits_ms.end());
  into.replay_ms.insert(into.replay_ms.end(), chunk.replay_ms.begin(),
                        chunk.replay_ms.end());
}

/// Replay intervals of the engine from the program trace: each sharded run,
/// plus each unsharded run not nested in a sharded one.
std::vector<std::pair<int64_t, int64_t>> ReplayIntervals(const std::string& json) {
  const std::vector<ObsEvent> events =
      ParseObsTrace(json, {"infer.run", "infer.run.sharded"});
  std::vector<std::pair<int64_t, int64_t>> sharded, out;
  for (const ObsEvent& e : events) {
    if (e.name == "infer.run.sharded") sharded.push_back({e.ts_ns, e.ts_ns + e.dur_ns});
  }
  size_t k = 0;
  for (const ObsEvent& e : events) {
    if (e.name == "infer.run.sharded") {
      out.push_back({e.ts_ns, e.ts_ns + e.dur_ns});
      continue;
    }
    while (k < sharded.size() && sharded[k].second < e.ts_ns) ++k;
    const bool nested = k < sharded.size() && sharded[k].first <= e.ts_ns &&
                        e.ts_ns + e.dur_ns <= sharded[k].second;
    if (!nested) out.push_back({e.ts_ns, e.ts_ns + e.dur_ns});
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Adds the spans of a traced chunk: per request the client's view, the
/// Submit call, the wait for a batch (Submit to the start of the serve.batch
/// that served it), and that batch's engine replay. Fills the chunk's waits
/// and replay times.
void AddRequestSpans(SpanRecorder& spans, const std::string& json,
                     ServePhase* chunk, int64_t* rid) {
  std::vector<ObsEvent> batches = ParseObsTrace(json, {"serve.batch"});
  std::sort(batches.begin(), batches.end(),
            [](const ObsEvent& a, const ObsEvent& b) { return a.ts_ns < b.ts_ns; });
  const auto replays = ReplayIntervals(json);
  for (const auto& [lo, hi] : replays) {
    chunk->replay_ms.push_back(static_cast<double>(hi - lo) / 1e6);
  }
  for (const Outcome& o : chunk->outcomes) {
    const int64_t id = (*rid)++;
    const int64_t root = spans.Add({"client", "client.request", o.due_ns,
                                    o.completed ? o.done_ns : o.submit_end_ns,
                                    id, -1});
    spans.Add({"serve", "serve.submit", o.submit_begin_ns, o.submit_end_ns, id,
               root});
    if (!o.completed) continue;
    // The first batch opened after the request was queued, and before it was
    // seen done: one dispatcher forms batches in FIFO order.
    auto it = std::lower_bound(
        batches.begin(), batches.end(), o.submit_end_ns,
        [](const ObsEvent& e, int64_t t) { return e.ts_ns < t; });
    if (it == batches.end() || it->ts_ns > o.done_ns) continue;
    chunk->waits_ms.push_back(static_cast<double>(it->ts_ns - o.submit_begin_ns) / 1e6);
    spans.Add({"serve", "serve.wait", o.submit_end_ns, it->ts_ns, id, root});
    auto rep = std::lower_bound(
        replays.begin(), replays.end(), std::make_pair(it->ts_ns, int64_t{0}));
    if (rep != replays.end() && rep->second <= it->ts_ns + it->dur_ns) {
      spans.Add({"infer", "infer.replay", rep->first, rep->second, id, root});
    }
  }
}

/// One chunk of open-loop load on a fresh ForecastService. With `spans`, the
/// program's trace is on for the chunk and the request spans are recorded.
ServePhase RunChunk(ServeWorld& w, double rps, double seconds, uint64_t seed,
                    SpanRecorder* spans, int64_t* rid) {
  const std::vector<Arrival> schedule = PoissonSchedule(
      seed, rps, seconds, static_cast<int64_t>(w.windows.size()));
  const size_t n = schedule.size();
  ServePhase phase;
  phase.outcomes.resize(n);
  phase.tally.issued = static_cast<int64_t>(n);
  std::vector<std::future<ts::Tensor>> futures(n);

  if (spans != nullptr) musenet::obs::StartTracing();  // Clears old events.
  const RoundPool pool;  // Outlives the service and its dispatcher.
  serve::ForecastService service(*w.registry, serve::ServiceOptions{});
  const Snapshot before = TakeSnapshot();

  // One polling thread issues and collects. Sleeping until each due time or
  // blocking on each future would add a wake-up of up to milliseconds on an
  // idle virtual CPU to both the schedule and the latency. Issuing comes
  // first; completions are collected in issue order, which is the order one
  // FIFO dispatcher resolves them in.
  const int64_t start = NowNs() + 1000000;  // 1 ms lead-in.
  size_t next = 0;  // First request not yet issued.
  size_t head = 0;  // First request not yet resolved.
  while (head < n) {
    const int64_t now = NowNs();
    if (next < n && now >= start + schedule[next].offset_ns) {
      Outcome& out = phase.outcomes[next];
      out.due_ns = start + schedule[next].offset_ns;
      Batch request = w.windows[static_cast<size_t>(schedule[next].window)];
      out.submit_begin_ns = NowNs();
      futures[next] = service.Submit(kTenant, std::move(request));
      out.submit_end_ns = NowNs();
      ++next;
      continue;
    }
    if (head == next ||
        futures[head].wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      continue;
    }
    Outcome& out = phase.outcomes[head];
    out.done_ns = now;
    try {
      const ts::Tensor got = futures[head].get();
      const ts::Tensor& ref =
          w.refs[static_cast<size_t>(schedule[head].window)];
      const double delta =
          got.num_elements() == ref.num_elements()
              ? MaxAbsDiff(got.data(), ref.data(), got.num_elements())
              : 1e30;
      phase.max_delta = std::max(phase.max_delta, delta);
      if (!(delta <= kFp32Gate)) ++phase.mismatches;
      out.completed = true;
      ++phase.tally.completed;
    } catch (const serve::ShedError&) {
      ++phase.tally.shed;
    } catch (const serve::DeadlineError&) {
      ++phase.tally.timed_out;
    } catch (...) {
      ++phase.tally.errored;
    }
    ++head;
  }
  service.Drain();  // Joins the dispatcher, so every histogram update landed.
  const Snapshot after = TakeSnapshot();

  phase.counters.requests = CounterDelta(before, after, "serve.requests");
  phase.counters.admitted = CounterDelta(before, after, "serve.admitted");
  phase.counters.shed = CounterDelta(before, after, "serve.shed");
  phase.counters.timed_out = CounterDelta(before, after, "serve.timed_out");
  phase.counters.completed = CounterDelta(before, after, "serve.completed");
  const auto batch = HistogramDelta(before, after, "serve.batch_size");
  const auto depth = HistogramDelta(before, after, "serve.queue_depth");
  phase.batches = batch.total;
  phase.batch_size_sum = batch.sum;
  phase.admissions = depth.total;
  phase.queue_depth_sum = depth.sum;
  phase.parallel_for = CounterDelta(before, after, "parallel_for.calls");
  phase.fresh_allocs = CounterDelta(before, after, "tensor.pool.fresh_allocs");
  phase.reuses = CounterDelta(before, after, "tensor.pool.reuses");
  if (spans != nullptr) {
    AddRequestSpans(*spans, musenet::obs::TraceToJson(), &phase, rid);
  }
  return phase;
}

struct ServePhases {
  ServePhase light, busy;
};

/// Alternates light and busy chunks of kChunkS over `seconds`, so both
/// phases see the same stretch of host conditions. Chunk seeds derive from
/// `seed` only, so the traced pass replays the untraced pass's schedule.
ServePhases RunPhases(ServeWorld& w, double seconds, uint64_t seed,
                      SpanRecorder* spans) {
  const int rounds = std::max(1, static_cast<int>(seconds / (2.0 * kChunkS)));
  const double chunk_s = seconds / (2.0 * rounds);
  uint64_t state = seed ^ 0x5E12FE0ULL;
  int64_t rid = 0;
  ServePhases p;
  for (int i = 0; i < rounds; ++i) {
    const uint64_t light_seed = SplitMix64(&state);
    const uint64_t busy_seed = SplitMix64(&state);
    Merge(p.light, RunChunk(w, kLightRps, chunk_s, light_seed, spans, &rid));
    Merge(p.busy, RunChunk(w, kBusyRps, chunk_s, busy_seed, spans, &rid));
  }
  return p;
}

std::vector<double> LatenciesMs(const ServePhase& phase) {
  std::vector<double> ms;
  for (const Outcome& o : phase.outcomes) {
    if (o.completed) ms.push_back(static_cast<double>(o.done_ns - o.due_ns) / 1e6);
  }
  return ms;
}

/// Checks one phase and records its end-to-end metrics under `prefix`
/// ("serve.light" / "serve.busy"). Returns false when the phase is flagged.
bool ReportPhase(Report& r, const std::string& p, const ServePhase& phase) {
  for (const std::string& why : ReconcileServe(phase.tally, phase.counters)) {
    r.Check(false, p + " reconcile: " + why);
  }
  r.Check(phase.mismatches == 0,
          p + ": " + std::to_string(phase.mismatches) +
              " responses differ from Predict by more than 1e-4 (max " +
              std::to_string(phase.max_delta) + ")");
  r.Info(p + ".max_abs_delta", phase.max_delta);

  std::vector<double> late_ms;
  for (const Outcome& o : phase.outcomes) {
    late_ms.push_back(static_cast<double>(o.submit_begin_ns - o.due_ns) / 1e6);
  }
  r.Info(p + ".issued", static_cast<double>(phase.tally.issued));
  r.Info(p + ".completed", static_cast<double>(phase.tally.completed));
  r.Info(p + ".shed", static_cast<double>(phase.tally.shed));
  r.Info(p + ".timed_out", static_cast<double>(phase.tally.timed_out));
  const double late_p90 = Percentile(late_ms, 90.0);
  r.Info(p + ".generator_late_ms.p50", Percentile(late_ms, 50.0));
  r.Info(p + ".generator_late_ms.p90", late_p90);
  r.Info(p + ".generator_late_ms.p99", Percentile(late_ms, 99.0));
  r.Info(p + ".generator_late_ms.max", Percentile(late_ms, 100.0));
  if (!(late_p90 <= kLatenessBoundMs)) {
    r.Check(false, p + " flagged: generator p90 lateness " +
                       std::to_string(late_p90) + " ms exceeds " +
                       std::to_string(kLatenessBoundMs) + " ms");
    return false;
  }

  const std::vector<double> lat = LatenciesMs(phase);
  const Summary s = Summarize(lat);
  r.Info(p + ".latency_ms.tail_q", s.tail_q);
  r.Info(p + ".latency_ms.tail", s.tail);
  r.Check(TailSupported(s.n, 90.0),
          p + ": " + std::to_string(s.n) + " samples do not support p90");
  r.Windows(p + ".p50_ms", WindowedPercentile(lat, 50.0, kMaxWindows), "ms", s.n);
  r.Windows(p + ".p90_ms", WindowedPercentile(lat, 90.0, kMaxWindows), "ms", s.n);
  return true;
}

void ReportServe(Report& r, const ServePhases& p) {
  const bool light_ok = ReportPhase(r, "serve.light", p.light);
  const bool busy_ok = ReportPhase(r, "serve.busy", p.busy);
  // Share of busy requests served within the SLO, per window of issue order
  // (a failed request misses); the best window, as for the latencies.
  const std::vector<Outcome>& busy = p.busy.outcomes;
  const size_t windows = std::min<size_t>(kMaxWindows, busy.size());
  std::vector<double> within_share;
  for (size_t i = 0; i < windows; ++i) {
    const size_t lo = i * busy.size() / windows;
    const size_t hi = (i + 1) * busy.size() / windows;
    int64_t within = 0;
    for (size_t k = lo; k < hi; ++k) {
      within += busy[k].completed &&
                static_cast<double>(busy[k].done_ns - busy[k].due_ns) / 1e6 <= kSloMs;
    }
    within_share.push_back(static_cast<double>(within) /
                           static_cast<double>(std::max<size_t>(1, hi - lo)));
  }
  const int64_t issued = p.light.tally.issued + p.busy.tally.issued;
  const int64_t completed = p.light.tally.completed + p.busy.tally.completed;
  if (light_ok && busy_ok) {
    r.Metric("serve.busy.slo_share", Percentile(within_share, 100.0), "share",
             p.busy.tally.issued);
    r.Info("serve.busy.slo_share.median_window", Percentile(within_share, 50.0));
    r.Metric("serve.ok_share",
             static_cast<double>(completed) / static_cast<double>(issued),
             "share", issued);
  }
  r.attempted += issued;
  r.failed += issued - completed;
}

double MeanOf(double sum, int64_t count) {
  return sum / static_cast<double>(std::max<int64_t>(1, count));
}

}  // namespace

void RunServePoisson(Context& ctx) {
  ServeWorld w = RepeatSetup<ServeWorld>(
      ctx, [&ctx](SpanRecorder* spans) { return SetupServe(ctx, spans); });
  Report& r = ctx.report;
  const ServePhases u = RunPhases(w, ctx.pass_seconds(), ctx.seed, nullptr);
  ReportServe(r, u);
  if (!ctx.trace) return;

  // Per request of the untraced pass, and per batch-1 window of the plan.
  const int64_t requests = u.light.tally.issued + u.busy.tally.issued;
  const double fresh = static_cast<double>(u.light.fresh_allocs + u.busy.fresh_allocs);
  const double reused = static_cast<double>(u.light.reuses + u.busy.reuses);
  r.Metric("parallel_for.calls_per_request",
           MeanOf(static_cast<double>(u.light.parallel_for + u.busy.parallel_for),
                  requests),
           "count", requests);
  r.Metric("tensor.pool.fresh_allocs_per_request", MeanOf(fresh, requests), "count",
           requests);
  r.Metric("tensor.pool.reuse_share", reused / std::max(1e-12, reused + fresh),
           "share", requests);
  {
    auto plan = w.registry->Acquire(kTenant);
    const musenet::infer::Plan* b1 = plan->engine->plan_for(1);
    r.Check(b1 != nullptr, "serve: no batch-1 plan");
    if (b1 != nullptr) {
      r.Metric("gemm.flops_per_window", static_cast<double>(b1->flops), "flop", 1);
      r.Metric("gemm.calls_per_window", static_cast<double>(GemmSteps(*b1)), "count",
               1);
      r.Metric("infer.bytes_per_window", PlanBytes(*b1), "bytes", 1);
    }
    r.Metric("infer.lanes.b8", static_cast<double>(plan->engine->shard_lanes_for(8)),
             "count", 1);
  }

  // Traced pass: the same schedule with the program's trace on and the
  // benchmark's spans recorded, for the per-layer table and the overhead.
  musenet::tensor::StoragePool::Instance().ResetStats();
  const size_t first_span = ctx.spans.spans().size();
  const ServePhases t = RunPhases(w, ctx.pass_seconds(), ctx.seed, &ctx.spans);
  const Snapshot after = TakeSnapshot();
  r.Metric("tensor.pool.bytes_peak",
           after.gauges.count("tensor.pool.bytes_peak")
               ? after.gauges.at("tensor.pool.bytes_peak")
               : 0.0,
           "bytes", 1);
  (void)musenet::obs::StopTracingAndWrite(ctx.out_dir +
                                          "/serve-poisson.obs_last_chunk.json");
  Report traced;
  ReportServe(traced, t);
  r.Absorb(traced, "traced ");
  r.Overhead(traced, {"serve.light.p50_ms", "serve.light.p90_ms",
                      "serve.busy.p50_ms", "serve.busy.p90_ms",
                      "serve.busy.slo_share", "serve.ok_share"});

  r.Metric("serve.wait_ms.p50", Percentile(t.light.waits_ms, 50.0), "ms",
           static_cast<int64_t>(t.light.waits_ms.size()));
  r.Metric("serve.wait_share",
           r.metric("serve.wait_ms.p50") / Percentile(LatenciesMs(t.light), 50.0),
           "share", static_cast<int64_t>(t.light.waits_ms.size()));
  r.Metric("infer.replay_ms.p50", Percentile(t.busy.replay_ms, 50.0), "ms",
           static_cast<int64_t>(t.busy.replay_ms.size()));
  r.Metric("serve.batches", static_cast<double>(t.busy.batches), "count",
           t.busy.batches);
  r.Metric("serve.batch_size.mean", MeanOf(t.busy.batch_size_sum, t.busy.batches),
           "count", t.busy.batches);
  r.Metric("serve.queue_depth.mean", MeanOf(t.busy.queue_depth_sum, t.busy.admissions),
           "count", t.busy.admissions);

  std::vector<double> submit_us;
  for (const ServePhase* ph : {&t.light, &t.busy}) {
    for (const Outcome& o : ph->outcomes) {
      submit_us.push_back(static_cast<double>(o.submit_end_ns - o.submit_begin_ns) / 1e3);
    }
  }
  const int64_t issued = t.light.tally.issued + t.busy.tally.issued;
  r.Metric("serve.submit_us.p50", Percentile(submit_us, 50.0), "us", issued);
  r.Metric("serve.shed_share",
           MeanOf(static_cast<double>(t.light.tally.shed + t.busy.tally.shed), issued),
           "share", issued);
  r.Metric("serve.timed_out_share",
           MeanOf(static_cast<double>(t.light.tally.timed_out + t.busy.tally.timed_out),
                  issued),
           "share", issued);
  r.Metric("sim.simulate_s", w.simulate_s, "s", 1);
  r.Metric("eval.ckpt_train_s", w.ckpt_train_s, "s", 1);
  r.Metric("serve.registry_load_s", w.registry_load_s, "s", 1);
  r.Layers(LayerTable(ctx.spans.spans(), first_span), issued);
}

}  // namespace perfbench
