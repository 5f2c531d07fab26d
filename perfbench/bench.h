// Shared pieces of the three workloads: the run context and report, program
// counter deltas, and the seeded city/dataset/model set-up every workload
// starts from. Everything here drives the program through its public
// headers only.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "eval/train_loop.h"
#include "harness.h"
#include "infer/plan.h"
#include "muse/model.h"
#include "obs/metrics.h"
#include "sim/presets.h"
#include "util/thread_pool.h"

namespace perfbench {

/// Metrics, checks and details of one run. The binary prints it as one JSON
/// object; run.py turns that into the benchmark's result line.
class Report {
 public:
  /// Records a metric measured over `n` samples.
  void Metric(const std::string& name, double value, const std::string& unit,
              int64_t n);
  /// Records a failed correctness check when `ok` is false.
  void Check(bool ok, const std::string& what);
  /// Free-form numeric detail (lateness, sample counts, thread settings).
  void Info(const std::string& key, double value);
  void Text(const std::string& key, const std::string& value);
  /// Records a windowed latency percentile as metric `name`: the value of the
  /// fastest window. Interference from other tenants of the host comes in
  /// stretches that only ever slow a window down (serve-poisson busy p50
  /// moved from 2.6 to 11.6 ms between windows of one run), so the fastest
  /// window is the steadiest estimate of the program's own latency. Every
  /// window value and the median window go into the report.
  void Windows(const std::string& name, const Windowed& w,
               const std::string& unit, int64_t n);
  /// Per-layer span rollup of the traced run.
  void Layers(const std::map<std::string, LayerRow>& table, int64_t per);

  bool ok() const { return failures_.empty(); }
  bool has_metric(const std::string& name) const {
    return metrics_.count(name) != 0;
  }
  double metric(const std::string& name) const {
    return metrics_.at(name).value;
  }
  const std::string& unit(const std::string& name) const {
    return metrics_.at(name).unit;
  }
  /// Carries `other`'s failed checks and counts into this report, so a
  /// scratch report of a second (traced) pass cannot hide a failure.
  void Absorb(const Report& other, const std::string& prefix);
  /// Records, for each of `names` both reports have, the traced value minus
  /// this report's value as trace_overhead.<name>.
  void Overhead(const Report& traced, const std::vector<std::string>& names);
  std::string ToJson() const;

  int64_t attempted = 0;
  int64_t failed = 0;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
    int64_t n = 0;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::string> failures_;
  std::map<std::string, double> info_;
  std::map<std::string, std::string> text_;
  std::string layers_json_;
};

struct Context {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< Where the traced run writes its span files.
  SpanRecorder spans;   ///< Benchmark spans; only filled when `trace`.
  Report report;

  /// The recorder to pass down, or nullptr when the run is untraced.
  SpanRecorder* recorder() { return trace ? &spans : nullptr; }
  /// Length of one measured pass. A traced run makes an untraced and a
  /// traced pass of the same phases, each over half of --seconds, so both
  /// kinds of run take about as long.
  double pass_seconds() const { return trace ? seconds / 2.0 : seconds; }
};

/// Span helpers that do nothing when `spans` is null.
int64_t Open(SpanRecorder* spans, const char* layer, const char* name,
             int64_t parent = -1);
void Close(SpanRecorder* spans, int64_t index);

int64_t NowNs();
double SecondsSince(int64_t start_ns);

/// Deltas of the program's obs counters and histograms between two
/// snapshots.
using Snapshot = musenet::obs::MetricsSnapshot;
Snapshot TakeSnapshot();
int64_t CounterDelta(const Snapshot& before, const Snapshot& after,
                     const std::string& name);
musenet::obs::MetricsSnapshot::HistogramData HistogramDelta(
    const Snapshot& before, const Snapshot& after, const std::string& name);

/// Runs `setup` kSetupRepeats times (once in a traced run, which does not
/// report setup_s to the result), reports the median wall time as setup_s,
/// and keeps the state of the last repetition (the only one whose spans are
/// recorded).
inline constexpr int kSetupRepeats = 3;
template <typename World>
World RepeatSetup(Context& ctx,
                  const std::function<World(SpanRecorder*)>& setup) {
  std::vector<double> seconds;
  World world{};
  const int repeats = ctx.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    world = World{};  // Release the previous repetition before rebuilding.
    const int64_t start = NowNs();
    world = setup(i + 1 == repeats ? ctx.recorder() : nullptr);
    seconds.push_back(SecondsSince(start));
  }
  ctx.report.Metric("setup_s", Percentile(seconds, 50.0), "s",
                    static_cast<int64_t>(seconds.size()));
  return world;
}

/// Seed of every workload's simulated city. The city is part of a workload's
/// definition, like its grid and span; --seed varies what is run on it
/// (arrival schedule, window order, model initialisation, shuffle order).
/// A seed-dependent city would move train.s4w4.val_mse by the city's noise
/// level (0.00025 to 0.00055 over five seeds), which says nothing about the
/// program's numerics.
inline constexpr uint64_t kCitySeed = 7;

/// Simulated city of `preset` on an h x w grid over `days` (kCitySeed); the
/// sim.simulate span and its wall time go to `spans` / `*seconds`.
musenet::sim::FlowSeries SimulateCity(musenet::sim::DatasetId preset, int h,
                                      int w, int days, SpanRecorder* spans,
                                      int64_t parent, double* seconds);

/// Dataset over `flows` with the 320-sample training cap every workload uses.
std::unique_ptr<musenet::data::TrafficDataset> MakeDataset(
    musenet::sim::FlowSeries flows, SpanRecorder* spans, int64_t parent);

/// MUSE-Net configuration for the dataset's grid at the given d and k.
musenet::muse::MuseNetConfig ModelConfig(
    const musenet::data::TrafficDataset& dataset, int64_t d, int64_t k);

/// Start times of a training run's loss calls, one per shard per step, from
/// whichever worker thread makes them (StepIntervalsMs turns them into step
/// times).
class StepClock {
 public:
  void Mark();
  std::vector<int64_t> starts() const;

 private:
  mutable std::mutex mu_;
  std::vector<int64_t> starts_;
};

/// The training driver MuseNet::Train builds, so eval::RunTraining can be
/// called directly. With a `clock`, every loss call is marked on it first.
musenet::eval::TrainDriver MakeDriver(musenet::muse::MuseNet& model,
                                      StepClock* clock = nullptr);

/// Bytes a plan's steps read and write per run, computed from its buffer
/// sizes (inputs plus output of every step, 4 bytes per float), not measured.
double PlanBytes(const musenet::infer::Plan& plan);

/// GEMM, batched GEMM and convolution steps of a plan.
int64_t GemmSteps(const musenet::infer::Plan& plan);

/// A fresh thread pool of the global pool's size, active (util::ActivePool)
/// for its scope. Every round of every workload runs on its own pool: how
/// fast a pool's threads land on the host's virtual CPUs persists for the
/// pool's life (b1 replay held 0.42 or 0.58 ms for a whole run on the global
/// pool), so fresh pools let the best window see the program rather than
/// one placement.
class RoundPool {
 public:
  RoundPool();

 private:
  musenet::util::ThreadPool pool_;
  musenet::util::ScopedActivePool active_;  // After pool_: restored first.
};

/// Workload entry points.
void RunServePoisson(Context& ctx);
void RunInferReplay(Context& ctx);
void RunTrain(Context& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
