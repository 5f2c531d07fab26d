// train: eval::RunTraining at batch 8 on the bj flows, single stream and
// 4-way data-parallel. Step times are wall clock from the start of one
// step's loss calls to the next step's, so everything between (backward,
// reduction, optimizer, prefetch waits, validation at epoch ends) counts;
// throughput is wall clock over the whole call, validation included.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "bench.h"
#include "obs/trace.h"
#include "optim/adam.h"
#include "optim/optimizer.h"
#include "tensor/storage_pool.h"

namespace perfbench {
namespace {

namespace ag = musenet::autograd;
using musenet::eval::TrainConfig;

constexpr int kEpochs = 3;
constexpr int kBatch = 8;
constexpr double kLearningRate = 1e-3;
constexpr double kClipNorm = 5.0;  // TrainConfig default.
constexpr int kOwnLoopSteps = 40;  // One epoch of 320 samples at batch 8.
constexpr size_t kMinRounds = 2;

struct TrainWorld {
  std::unique_ptr<musenet::data::TrafficDataset> dataset;
  double simulate_s = 0.0;
};

TrainWorld SetupTrain(SpanRecorder* spans) {
  TrainWorld w;
  const int64_t root = Open(spans, "client", "setup");
  w.dataset = MakeDataset(
      SimulateCity(musenet::sim::DatasetId::kTaxiBj, 16, 16, 70,
                   spans, root, &w.simulate_s),
      spans, root);
  Close(spans, root);
  return w;
}

struct TrainRun {
  std::vector<double> step_ms;  ///< Wall time of each step, in order.
  double wall_s = 0.0;
  double samples_per_s = 0.0;
  double best_val = 0.0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Snapshot before, after;
};

/// One RunTraining call from a fresh, seeded model.
TrainRun RunOnce(const Context& ctx, const TrainWorld& w, int shards,
                 int workers, bool prefetch, Report& r, const std::string& name) {
  musenet::muse::MuseNet model(ModelConfig(*w.dataset, 12, 32), ctx.seed);
  TrainConfig config;
  config.epochs = kEpochs;
  config.batch_size = kBatch;
  config.learning_rate = kLearningRate;
  config.patience = 0;
  config.seed = ctx.seed;
  config.train_shards = shards;
  config.train_workers = workers;
  config.prefetch = prefetch;
  musenet::eval::TrainReport report;
  TrainRun run;
  StepClock clock;
  const RoundPool pool;
  run.before = TakeSnapshot();
  run.start_ns = NowNs();
  const musenet::Status status = musenet::eval::RunTraining(
      MakeDriver(model, &clock), *w.dataset, config, &report);
  run.end_ns = NowNs();
  run.step_ms = StepIntervalsMs(clock.starts(), shards);
  run.after = TakeSnapshot();
  run.wall_s = static_cast<double>(run.end_ns - run.start_ns) / 1e9;
  const double samples =
      static_cast<double>(w.dataset->train_indices().size()) * kEpochs;
  run.samples_per_s = samples / run.wall_s;
  run.best_val = report.best_val;
  r.Check(status.ok(), name + ": RunTraining failed: " + status.ToString());
  r.Check(report.epochs_run == kEpochs,
          name + ": ran " + std::to_string(report.epochs_run) + " epochs");
  r.Check(report.skipped_batches == 0 && report.rollbacks == 0,
          name + ": numeric guard skipped or rolled back steps");
  const size_t steps = w.dataset->train_indices().size() / kBatch * kEpochs;
  r.Check(run.step_ms.size() + 1 == steps,
          name + ": timed " + std::to_string(run.step_ms.size() + 1) + " of " +
              std::to_string(steps) + " steps");
  r.attempted += 1;
  r.failed += status.ok() ? 0 : 1;
  return run;
}

/// Step-time percentiles of a phase over all its calls, one window per call.
void ReportSteps(Report& r, const std::string& name,
                 const std::vector<TrainRun>& runs) {
  std::vector<double> ms;
  std::vector<size_t> starts;  // Each call runs on its own fresh pool.
  for (const TrainRun& run : runs) {
    starts.push_back(ms.size());
    ms.insert(ms.end(), run.step_ms.begin(), run.step_ms.end());
  }
  const int64_t n = static_cast<int64_t>(ms.size());
  r.Check(TailSupported(n, 90.0), name + ": too few steps for p90");
  r.Windows(name + ".step_ms.p50", RoundPercentile(ms, starts, 50.0), "ms", n);
  r.Windows(name + ".step_ms.p90", RoundPercentile(ms, starts, 90.0), "ms", n);
}

/// Throughput of the fastest call. Interference from the host only ever
/// slows a call down, so the fastest of a run's calls is the steadiest
/// estimate of what the program itself costs; the median is in the report.
double BestRate(Report& r, const std::string& name,
                const std::vector<TrainRun>& runs) {
  std::vector<double> rates;
  for (const TrainRun& run : runs) rates.push_back(run.samples_per_s);
  r.Info(name + ".median", Percentile(rates, 50.0));
  return Percentile(rates, 100.0);
}

struct TrainPhases {
  std::vector<TrainRun> s1, s4w4;
};

/// Alternates s1 and s4w4 calls, so both phases see the same stretch of
/// host conditions: at least kMinRounds rounds, then more while another
/// round still fits in `seconds`.
TrainPhases RunPhases(const Context& ctx, const TrainWorld& w, double seconds,
                      Report& r) {
  TrainPhases p;
  const int64_t start = NowNs();
  double round_s = 0.0;
  do {
    const int64_t round_start = NowNs();
    p.s1.push_back(RunOnce(ctx, w, 1, 1, false, r, "train.s1"));
    p.s4w4.push_back(RunOnce(ctx, w, 4, 4, true, r, "train.s4w4"));
    round_s = SecondsSince(round_start);
  } while (p.s1.size() < kMinRounds ||
           SecondsSince(start) + round_s <= seconds);
  ReportSteps(r, "train.s1", p.s1);
  ReportSteps(r, "train.s4w4", p.s4w4);
  r.Metric("train.s1.samples_per_s", BestRate(r, "train.s1.samples_per_s", p.s1),
           "1/s", static_cast<int64_t>(p.s1.size()));
  r.Metric("train.s4w4.samples_per_s",
           BestRate(r, "train.s4w4.samples_per_s", p.s4w4), "1/s",
           static_cast<int64_t>(p.s4w4.size()));
  const double val = p.s4w4.back().best_val;
  r.Check(std::isfinite(val), "train.s4w4.val_mse is not finite");
  r.Metric("train.s4w4.val_mse", val, "mse", 1);
  // S-shard training is bit-exact for a fixed shard count, so repeats agree.
  for (const TrainRun& run : p.s4w4) {
    r.Check(run.best_val == val, "train.s4w4: repeated runs disagree on val_mse");
  }
  return p;
}

/// The public calls bench_training_step makes, one optimizer step at a time,
/// each wrapped in a benchmark span.
void OwnLoop(const Context& ctx, const TrainWorld& w, SpanRecorder& spans,
             Report& r) {
  musenet::muse::MuseNet model(ModelConfig(*w.dataset, 12, 32), ctx.seed);
  musenet::optim::Adam optimizer(model.Parameters(), kLearningRate);
  const std::vector<int64_t>& pool = w.dataset->train_indices();
  std::map<std::string, std::vector<double>> ms;
  auto timed = [&spans, &ms](const char* layer, const char* name,
                             int64_t parent, auto&& fn) {
    const int64_t span = spans.Begin(layer, name, parent);
    const int64_t start = NowNs();
    fn();
    ms[name].push_back(static_cast<double>(NowNs() - start) / 1e6);
    spans.End(span);
  };
  musenet::tensor::StoragePool::Instance().ResetStats();
  const Snapshot before = TakeSnapshot();
  double compute_ms = 0.0;
  for (int step = 0; step < kOwnLoopSteps; ++step) {
    const int64_t root = spans.Begin("client", "client.step", -1, step);
    musenet::data::Batch batch;
    timed("data", "data.make_batch", root, [&] {
      batch = w.dataset->MakeBatchFromPool(
          pool, static_cast<size_t>(step * kBatch) % pool.size(), kBatch);
    });
    ag::Variable loss;
    timed("muse", "muse.forward", root, [&] {
      auto forward = model.Forward(batch, /*stochastic=*/true);
      loss = model.ComputeLoss(forward, batch, nullptr);
    });
    timed("autograd", "autograd.backward", root, [&] {
      model.ZeroGrad();
      ag::Backward(loss);
    });
    timed("optim", "optim.step", root, [&] {
      musenet::optim::ClipGradNorm(optimizer.params(), kClipNorm);
      optimizer.Step();
    });
    timed("autograd", "autograd.release", root, [&] { ag::ReleaseGraph(loss); });
    compute_ms += ms["muse.forward"].back() + ms["autograd.backward"].back();
    spans.End(root);
  }
  const Snapshot after = TakeSnapshot();
  const double steps = kOwnLoopSteps;
  auto per_step = [&](const char* counter) {
    return static_cast<double>(CounterDelta(before, after, counter)) / steps;
  };
  r.Metric("muse.forward_ms.p50", Percentile(ms["muse.forward"], 50.0), "ms", kOwnLoopSteps);
  r.Metric("autograd.backward_ms.p50", Percentile(ms["autograd.backward"], 50.0), "ms",
           kOwnLoopSteps);
  r.Metric("optim.step_ms.p50", Percentile(ms["optim.step"], 50.0), "ms", kOwnLoopSteps);
  r.Metric("data.make_batch_ms.p50", Percentile(ms["data.make_batch"], 50.0), "ms",
           kOwnLoopSteps);
  r.Metric("autograd.backward.nodes_per_step", per_step("autograd.backward.nodes"),
           "count", kOwnLoopSteps);
  r.Metric("gemm.flops_per_step", per_step("gemm.flops"), "flop", kOwnLoopSteps);
  r.Metric("gemm.calls_per_step", per_step("gemm.calls"), "count", kOwnLoopSteps);
  r.Metric("gemm.gflops",
           static_cast<double>(CounterDelta(before, after, "gemm.flops")) /
               (compute_ms * 1e6),
           "GFLOP/s", kOwnLoopSteps);
  r.Metric("parallel_for.calls_per_step", per_step("parallel_for.calls"), "count",
           kOwnLoopSteps);
  r.Metric("tensor.pool.fresh_allocs_per_step", per_step("tensor.pool.fresh_allocs"),
           "count", kOwnLoopSteps);
  const double fresh = per_step("tensor.pool.fresh_allocs");
  const double reused = per_step("tensor.pool.reuses");
  r.Metric("tensor.pool.reuse_share", reused / std::max(1e-12, reused + fresh), "share",
           kOwnLoopSteps);
  r.Metric("tensor.pool.bytes_peak",
           after.gauges.count("tensor.pool.bytes_peak")
               ? after.gauges.at("tensor.pool.bytes_peak")
               : 0.0,
           "bytes", kOwnLoopSteps);
}

/// The program's `name` spans that lie inside [lo, hi].
std::vector<ObsEvent> EventsIn(const std::vector<ObsEvent>& events,
                               const std::string& name, int64_t lo, int64_t hi) {
  std::vector<ObsEvent> out;
  for (const ObsEvent& e : events) {
    if (e.name == name && e.ts_ns >= lo && e.ts_ns + e.dur_ns <= hi) out.push_back(e);
  }
  return out;
}

std::vector<double> DurationsMs(const std::vector<ObsEvent>& events) {
  std::vector<double> ms;
  for (const ObsEvent& e : events) ms.push_back(static_cast<double>(e.dur_ns) / 1e6);
  return ms;
}

/// 1 - mean shard time / slowest shard time, averaged over steps: the share
/// of the step's shard slots that sat idle waiting for the slowest shard.
double ShardIdleShare(const std::vector<ObsEvent>& steps,
                      const std::vector<ObsEvent>& shards) {
  double sum = 0.0;
  int64_t counted = 0;
  size_t k = 0;
  for (const ObsEvent& step : steps) {
    const int64_t end = step.ts_ns + step.dur_ns;
    while (k < shards.size() && shards[k].ts_ns < step.ts_ns) ++k;
    double total = 0.0, slowest = 0.0;
    int n = 0;
    for (size_t j = k; j < shards.size() && shards[j].ts_ns <= end; ++j) {
      const double d = static_cast<double>(shards[j].dur_ns);
      total += d;
      slowest = std::max(slowest, d);
      ++n;
    }
    if (n > 1 && slowest > 0.0) {
      sum += 1.0 - total / n / slowest;
      ++counted;
    }
  }
  return counted > 0 ? sum / static_cast<double>(counted) : 0.0;
}

}  // namespace

void RunTrain(Context& ctx) {
  TrainWorld w = RepeatSetup<TrainWorld>(
      ctx, [](SpanRecorder* spans) { return SetupTrain(spans); });
  Report& r = ctx.report;
  r.Info("train.samples", static_cast<double>(w.dataset->train_indices().size()));
  RunPhases(ctx, w, ctx.pass_seconds(), r);
  if (!ctx.trace) return;

  r.Metric("sim.simulate_s", w.simulate_s, "s", 1);
  const size_t first_span = ctx.spans.spans().size();
  OwnLoop(ctx, w, ctx.spans, r);
  r.Layers(LayerTable(ctx.spans.spans(), first_span), kOwnLoopSteps);

  // Traced pass: the program's trace on over kMinRounds rounds of both
  // phases plus an S=4, W=1 run for the sharding overhead.
  musenet::obs::StartTracing();
  Report traced;
  const TrainPhases p = RunPhases(ctx, w, /*seconds=*/0.0, traced);
  const TrainRun s4w1 = RunOnce(ctx, w, 4, 1, false, traced, "train.s4w1");
  const std::string json = musenet::obs::TraceToJson();
  (void)musenet::obs::StopTracingAndWrite(ctx.out_dir + "/train.obs.json");
  r.Absorb(traced, "traced ");
  r.Overhead(traced, {"train.s1.step_ms.p50", "train.s1.step_ms.p90",
                      "train.s4w4.step_ms.p50", "train.s4w4.step_ms.p90",
                      "train.s1.samples_per_s", "train.s4w4.samples_per_s",
                      "train.s4w4.val_mse"});

  const std::vector<ObsEvent> events = ParseObsTrace(
      json, {"train.step", "train.shard", "train.reduce", "train.validate"});
  const TrainRun& s1 = p.s1.front();
  const TrainRun& s4 = p.s4w4.front();
  const auto s1_steps = EventsIn(events, "train.step", s1.start_ns, s1.end_ns);
  const auto s4_steps = EventsIn(events, "train.step", s4.start_ns, s4.end_ns);
  const auto w1_steps = EventsIn(events, "train.step", s4w1.start_ns, s4w1.end_ns);
  const auto s4_shards = EventsIn(events, "train.shard", s4.start_ns, s4.end_ns);
  const auto s4_reduce = EventsIn(events, "train.reduce", s4.start_ns, s4.end_ns);
  const auto s4_validate = EventsIn(events, "train.validate", s4.start_ns, s4.end_ns);

  const double s1_step = Percentile(DurationsMs(s1_steps), 50.0);
  const double s4_step = Percentile(DurationsMs(s4_steps), 50.0);
  const double w1_step = Percentile(DurationsMs(w1_steps), 50.0);
  r.Metric("eval.step_ms.p50", s4_step, "ms", static_cast<int64_t>(s4_steps.size()));
  r.Metric("eval.s1.step_ms.p50", s1_step, "ms", static_cast<int64_t>(s1_steps.size()));
  r.Metric("eval.sharding_overhead", w1_step / s1_step, "ratio",
           static_cast<int64_t>(w1_steps.size()));
  double validate_ms = 0.0;
  for (double d : DurationsMs(s4_validate)) validate_ms += d;
  r.Metric("eval.validate_share", validate_ms / (s4.wall_s * 1e3), "share",
           static_cast<int64_t>(s4_validate.size()));
  r.Metric("eval.shard_idle_share", ShardIdleShare(s4_steps, s4_shards), "share",
           static_cast<int64_t>(s4_steps.size()));
  r.Metric("optim.reduce_ms.p50", Percentile(DurationsMs(s4_reduce), 50.0), "ms",
           static_cast<int64_t>(s4_reduce.size()));
  const double hits = static_cast<double>(
      CounterDelta(s4.before, s4.after, "train.prefetch_hits"));
  const double misses = static_cast<double>(
      CounterDelta(s4.before, s4.after, "train.prefetch_misses"));
  r.Metric("data.prefetch_hit_share", hits / std::max(1.0, hits + misses), "share",
           static_cast<int64_t>(hits + misses));
}

}  // namespace perfbench
