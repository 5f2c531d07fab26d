// infer-replay: one caller thread replays held-out windows through
// infer::Engine in a closed loop. The serve layer is bypassed, so this
// workload moves only with plan replay and the tensor/infer kernels.

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "infer/engine.h"
#include "infer/plan.h"
#include "tensor/storage_pool.h"
#include "tensor/tensor_ops.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

namespace ts = musenet::tensor;
namespace infer = musenet::infer;
using musenet::data::Batch;

constexpr double kFp32Gate = 1e-4;
constexpr int64_t kPool = 256;  ///< Held-out windows replayed (32 groups of 8).
constexpr int64_t kBatch = 8;
/// The three phases alternate in rounds of about this many seconds each,
/// each round on a fresh pool: a 20 s run makes 13 rounds, so a phase sees
/// 13 thread placements (b1 p50 sat at 0.40-0.46 or 0.52-0.60 ms per pool).
constexpr double kRoundS = 0.5;

struct InferWorld {
  std::unique_ptr<musenet::data::TrafficDataset> dataset;
  std::unique_ptr<musenet::muse::MuseNet> model;
  std::unique_ptr<infer::Engine> base;
  std::unique_ptr<infer::Engine> spec;
  std::vector<Batch> singles;   ///< kPool batch-1 windows.
  std::vector<Batch> groups;    ///< kPool / kBatch batch-8 windows.
  std::vector<ts::Tensor> refs_single;
  std::vector<ts::Tensor> refs_group;
  double simulate_s = 0.0;
  double build_b1_ms = 0.0, build_spec_ms = 0.0, build_b8_ms = 0.0;
};

double TimedPredictMs(infer::Engine& engine, const Batch& batch) {
  const int64_t start = NowNs();
  engine.Predict(batch);
  return static_cast<double>(NowNs() - start) / 1e6;
}

InferWorld SetupInfer(const Context& ctx, SpanRecorder* spans) {
  InferWorld w;
  const int64_t root = Open(spans, "client", "setup");
  w.dataset = MakeDataset(
      SimulateCity(musenet::sim::DatasetId::kTaxiBj, 16, 16, 70,
                   spans, root, &w.simulate_s),
      spans, root);
  w.model = std::make_unique<musenet::muse::MuseNet>(
      ModelConfig(*w.dataset, 12, 32), ctx.seed);
  w.model->SetTraining(false);

  const std::vector<int64_t>& test = w.dataset->test_indices();
  if (static_cast<int64_t>(test.size()) < kPool) {
    throw std::runtime_error("too few test windows");
  }
  uint64_t state = ctx.seed ^ 0x1FE2ULL;
  const size_t first = SplitMix64(&state) % (test.size() - kPool + 1);
  const int64_t batches = Open(spans, "data", "data.make_batch", root);
  for (int64_t i = 0; i < kPool; ++i) {
    w.singles.push_back(w.dataset->MakeBatch({test[first + i]}));
  }
  for (int64_t g = 0; g < kPool / kBatch; ++g) {
    std::vector<int64_t> idx(test.begin() + first + g * kBatch,
                             test.begin() + first + (g + 1) * kBatch);
    w.groups.push_back(w.dataset->MakeBatch(idx));
  }
  Close(spans, batches);

  const int64_t refs = Open(spans, "muse", "muse.reference", root);
  for (const Batch& group : w.groups) {
    const ts::Tensor pred = w.model->Predict(group);
    w.refs_group.push_back(pred);
    for (int64_t i = 0; i < kBatch; ++i) {
      w.refs_single.push_back(ts::Slice(pred, 0, i, 1));
    }
  }
  Close(spans, refs);

  // First Predict per engine and batch size builds the plan.
  const int64_t build = Open(spans, "infer", "infer.plan_build", root);
  w.base = std::make_unique<infer::Engine>(*w.model);
  w.build_b1_ms = TimedPredictMs(*w.base, w.singles[0]);
  w.build_b8_ms = TimedPredictMs(*w.base, w.groups[0]);
  infer::EngineOptions options;
  options.specialize = true;
  w.spec = std::make_unique<infer::Engine>(*w.model, options);
  w.build_spec_ms = TimedPredictMs(*w.spec, w.singles[0]);
  Close(spans, build);
  Close(spans, root);
  return w;
}

/// Replay calls of one phase, gathered over one or more rounds, with the
/// deltas of the program counters the checks and per-layer figures read.
struct ReplayPhase {
  std::vector<double> ms;
  std::vector<size_t> round_starts;  ///< Index in `ms` of each round's first call.
  double max_delta = 0.0;
  int64_t mismatches = 0;
  int64_t errors = 0;
  int64_t fallbacks = 0;     ///< infer.engine.fallbacks
  int64_t fresh_allocs = 0;  ///< tensor.pool.fresh_allocs
  int64_t reuses = 0;        ///< tensor.pool.reuses
  int64_t parallel_for = 0;  ///< parallel_for.calls
  Snapshot after;            ///< After the last round (gauges).
};

/// Closed-loop PredictInto over `batches` for `seconds`, appended to
/// `phase`; every output is checked against `refs`.
void Replay(infer::Engine& engine, const std::vector<Batch>& batches,
            const std::vector<ts::Tensor>& refs, double seconds,
            SpanRecorder* spans, const char* span_name, ReplayPhase* phase) {
  ts::Tensor out = engine.Predict(batches[0]);  // Materialized output.
  phase->round_starts.push_back(phase->ms.size());
  const Snapshot before = TakeSnapshot();
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  size_t k = 0;
  while (NowNs() < end) {
    const size_t i = k++ % batches.size();
    const int64_t start = NowNs();
    const musenet::Status status = engine.PredictInto(batches[i], &out);
    const int64_t stop = NowNs();
    phase->ms.push_back(static_cast<double>(stop - start) / 1e6);
    if (spans != nullptr) {
      spans->Add({"infer", span_name, start, stop,
                  static_cast<int64_t>(phase->ms.size()), -1});
    }
    if (!status.ok()) {
      ++phase->errors;
      continue;
    }
    const double delta =
        MaxAbsDiff(out.data(), refs[i].data(), refs[i].num_elements());
    phase->max_delta = std::max(phase->max_delta, delta);
    if (!(delta <= kFp32Gate)) ++phase->mismatches;
  }
  phase->after = TakeSnapshot();
  phase->fallbacks += CounterDelta(before, phase->after, "infer.engine.fallbacks");
  phase->fresh_allocs += CounterDelta(before, phase->after, "tensor.pool.fresh_allocs");
  phase->reuses += CounterDelta(before, phase->after, "tensor.pool.reuses");
  phase->parallel_for += CounterDelta(before, phase->after, "parallel_for.calls");
}

void CheckPhase(Report& r, const std::string& name, const ReplayPhase& p) {
  r.Check(p.errors == 0, name + ": " + std::to_string(p.errors) +
                             " PredictInto calls failed");
  r.Check(p.mismatches == 0,
          name + ": " + std::to_string(p.mismatches) +
              " outputs differ from Predict by more than 1e-4 (max " +
              std::to_string(p.max_delta) + ")");
  r.Check(p.fallbacks == 0, name + ": infer.engine.fallbacks moved");
  r.Info(name + ".max_abs_delta", p.max_delta);
  r.attempted += static_cast<int64_t>(p.ms.size());
  r.failed += p.errors;
}

/// The three end-to-end phases; latency metrics go to `r`.
struct InferPhases {
  ReplayPhase b1, spec, b8;
};

/// Alternates b1, b1_spec and b8 in rounds of kRoundS each over `seconds`,
/// so all three phases see the same stretch of host conditions.
InferPhases RunPhases(InferWorld& w, Report& r, double seconds,
                      SpanRecorder* spans) {
  const int rounds = std::max(1, static_cast<int>(seconds / (3.0 * kRoundS)));
  const double round_s = seconds / (3.0 * rounds);
  InferPhases p;
  for (int i = 0; i < rounds; ++i) {
    const RoundPool pool;
    Replay(*w.base, w.singles, w.refs_single, round_s, spans, "infer.b1", &p.b1);
    Replay(*w.spec, w.singles, w.refs_single, round_s, spans, "infer.b1_spec",
           &p.spec);
    Replay(*w.base, w.groups, w.refs_group, round_s, spans, "infer.b8", &p.b8);
  }
  CheckPhase(r, "infer.b1", p.b1);
  CheckPhase(r, "infer.b1_spec", p.spec);
  CheckPhase(r, "infer.b8", p.b8);
  r.Check(w.spec->spec_active_for(1), "infer.b1_spec: specialization not active");
  r.Check(p.b1.fresh_allocs == 0, "infer.b1: replay allocated fresh tensor storage");

  const Summary b1 = Summarize(p.b1.ms);
  r.Check(TailSupported(b1.n, 99.0), "infer.b1: too few samples for p99");
  r.Windows("infer.b1.p50_ms", RoundPercentile(p.b1.ms, p.b1.round_starts, 50.0),
            "ms", b1.n);
  r.Windows("infer.b1.p99_ms", RoundPercentile(p.b1.ms, p.b1.round_starts, 99.0),
            "ms", b1.n);
  r.Info("infer.b1.tail_q", b1.tail_q);
  r.Info("infer.b1.tail_ms", b1.tail);
  const Summary spec = Summarize(p.spec.ms);
  r.Windows("infer.b1_spec.p50_ms",
            RoundPercentile(p.spec.ms, p.spec.round_starts, 50.0), "ms", spec.n);
  r.Check(TailSupported(spec.n, 99.0), "infer.b1_spec: too few samples for p99");
  r.Windows("infer.b1_spec.p99_ms",
            RoundPercentile(p.spec.ms, p.spec.round_starts, 99.0), "ms", spec.n);
  r.Info("infer.b1_spec.tail_q", spec.tail_q);
  r.Info("infer.b1_spec.tail_ms", spec.tail);
  // Throughput from the median call of the fastest window, so neither one
  // descheduled call nor one slow stretch of the host can move it.
  const Summary b8 = Summarize(p.b8.ms);
  const Windowed b8_ms = RoundPercentile(p.b8.ms, p.b8.round_starts, 50.0);
  r.Windows("infer.b8.call_ms", b8_ms, "ms", b8.n);
  r.Check(TailSupported(b8.n, 90.0), "infer.b8: too few samples for p90");
  r.Windows("infer.b8.call_ms.p90", RoundPercentile(p.b8.ms, p.b8.round_starts, 90.0),
            "ms", b8.n);
  r.Metric("infer.b8.samples_per_s",
           static_cast<double>(kBatch) / r.metric("infer.b8.call_ms") * 1e3, "1/s",
           b8.n);
  r.Info("infer.b8.tail_q", b8.tail_q);
  r.Info("infer.b8.tail_ms", b8.tail);
  return p;
}

}  // namespace

void RunInferReplay(Context& ctx) {
  InferWorld w = RepeatSetup<InferWorld>(
      ctx, [&ctx](SpanRecorder* spans) { return SetupInfer(ctx, spans); });
  Report& r = ctx.report;
  const InferPhases untraced = RunPhases(w, r, ctx.pass_seconds(), nullptr);
  const int64_t lanes = std::min<int64_t>(
      kBatch, musenet::util::ThreadPool::Global().num_threads());
  r.Check(w.base->shard_lanes_for(kBatch) == lanes,
          "infer.b8: batch 8 does not run on " + std::to_string(lanes) + " lanes");
  if (!ctx.trace) return;

  const infer::Plan* plan = w.base->plan_for(1);
  r.Check(plan != nullptr, "infer.b1: no plan for batch 1");
  if (plan == nullptr) return;

  // Per-layer figures from the untraced pass: counts per run and the
  // achieved GEMM/conv rate at the reported b1 replay time.
  const double runs = static_cast<double>(untraced.b1.ms.size());
  const int64_t n1 = static_cast<int64_t>(untraced.b1.ms.size());
  r.Metric("gemm.flops_per_run", static_cast<double>(plan->flops), "flop", 1);
  r.Metric("gemm.calls_per_run", static_cast<double>(GemmSteps(*plan)), "count", 1);
  r.Metric("gemm.gflops",
           static_cast<double>(plan->flops) / (r.metric("infer.b1.p50_ms") * 1e6),
           "GFLOP/s", n1);
  r.Metric("infer.bytes_per_run", PlanBytes(*plan), "bytes", 1);
  r.Metric("infer.lanes.b8", static_cast<double>(w.base->shard_lanes_for(kBatch)),
           "count", 1);
  r.Metric("tensor.pool.fresh_allocs_per_run",
           static_cast<double>(untraced.b1.fresh_allocs) / runs, "count", n1);
  const double fresh = static_cast<double>(untraced.b1.fresh_allocs);
  const double reused = static_cast<double>(untraced.b1.reuses);
  r.Metric("tensor.pool.reuse_share", reused / std::max(1e-12, reused + fresh),
           "share", n1);
  r.Metric("parallel_for.calls_per_run",
           static_cast<double>(untraced.b1.parallel_for) / runs, "count", n1);
  r.Metric("parallel_for.b8.calls_per_run",
           static_cast<double>(untraced.b8.parallel_for) /
               static_cast<double>(untraced.b8.ms.size()),
           "count", static_cast<int64_t>(untraced.b8.ms.size()));
  r.Metric("infer.b1.plan_build_ms", w.build_b1_ms, "ms", 1);
  r.Metric("infer.b1_spec.plan_build_ms", w.build_spec_ms, "ms", 1);
  r.Metric("infer.b8.plan_build_ms", w.build_b8_ms, "ms", 1);
  r.Metric("sim.simulate_s", w.simulate_s, "s", 1);

  // Peak pooled bytes over a b1 replay pass.
  const double phase_s = ctx.pass_seconds() / 3.0;
  musenet::tensor::StoragePool::Instance().ResetStats();
  ReplayPhase peak;
  Replay(*w.base, w.singles, w.refs_single, phase_s / 4.0, nullptr, "", &peak);
  CheckPhase(r, "infer.b1.peak", peak);
  r.Metric("tensor.pool.bytes_peak",
           peak.after.gauges.count("tensor.pool.bytes_peak")
               ? peak.after.gauges.at("tensor.pool.bytes_peak")
               : 0.0,
           "bytes", static_cast<int64_t>(peak.ms.size()));

  // Batch-8 scaling: the same replay on a fresh engine under a 1-thread pool.
  {
    musenet::util::ThreadPool single(1);
    musenet::util::ScopedActivePool scoped(&single);
    infer::Engine engine(*w.model);
    ReplayPhase t1;
    Replay(engine, w.groups, w.refs_group, phase_s, nullptr, "", &t1);
    CheckPhase(r, "infer.b8.t1", t1);
    const Windowed t1_ms = WindowedPercentile(t1.ms, 50.0, kMaxWindows);
    const double t1_rate =
        static_cast<double>(kBatch) * 1e3 / Percentile(t1_ms.per_window, 0.0);
    r.Metric("infer.b8.scaling_t4_t1", r.metric("infer.b8.samples_per_s") / t1_rate,
             "ratio", static_cast<int64_t>(t1.ms.size()));
  }

  // Traced pass: the same phases with the benchmark's spans recorded.
  const size_t first_span = ctx.spans.spans().size();
  Report traced;
  RunPhases(w, traced, ctx.pass_seconds(), &ctx.spans);
  r.Absorb(traced, "traced ");
  r.Overhead(traced, {"infer.b1.p50_ms", "infer.b1.p99_ms", "infer.b1_spec.p50_ms",
                      "infer.b1_spec.p99_ms", "infer.b8.call_ms",
                      "infer.b8.call_ms.p90", "infer.b8.samples_per_s"});
  const std::vector<Span> spans = ctx.spans.spans();
  r.Layers(LayerTable(spans, first_span),
           static_cast<int64_t>(spans.size() - first_span));
}

}  // namespace perfbench
