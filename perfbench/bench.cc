// perfbench: runs one workload of the MUSE-Net system from outside, through
// its public functions, and prints a JSON report on stdout.
//
//   perfbench --workload serve-poisson|infer-replay|train --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// run.py builds this binary, sets MUSENET_NUM_THREADS for the workload, and
// turns the report into the benchmark's result line.

#include "bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <utility>

#include "autograd/op_kind.h"
#include "sim/city.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, int64_t n) {
  Check(std::isfinite(value), "metric " + name + " is not finite");
  metrics_[name] = {value, unit, n};
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) {
    failures_.push_back(what);
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::Info(const std::string& key, double value) { info_[key] = value; }

void Report::Absorb(const Report& other, const std::string& prefix) {
  for (const std::string& why : other.failures_) failures_.push_back(prefix + why);
  attempted += other.attempted;
  failed += other.failed;
}

void Report::Overhead(const Report& traced,
                      const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    if (has_metric(name) && traced.has_metric(name)) {
      Metric("trace_overhead." + name, traced.metric(name) - metric(name),
             unit(name), 1);
    }
  }
}

void Report::Text(const std::string& key, const std::string& value) {
  text_[key] = value;
}

void Report::Windows(const std::string& name, const Windowed& w,
                     const std::string& unit, int64_t n) {
  Metric(name, Percentile(w.per_window, 0.0), unit, n);
  Info(name + ".median_window", w.value);
  std::string list;
  for (double v : w.per_window) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4g", list.empty() ? "" : " ", v);
    list += buf;
  }
  Text(name + ".windows", list);
}

void Report::Layers(const std::map<std::string, LayerRow>& table, int64_t per) {
  double self_total = 0.0;
  for (const auto& entry : table) self_total += entry.second.self_ms;
  std::string out = "{";
  for (const auto& [layer, row] : table) {
    if (out.size() > 1) out += ",";
    out += JsonString(layer) + ":{\"spans\":" + std::to_string(row.count) +
           ",\"total_ms\":" + JsonNumber(row.total_ms) +
           ",\"self_ms\":" + JsonNumber(row.self_ms) + "}";
    std::fprintf(stderr, "  layer %-9s spans %8lld  total %10.3f ms  self %10.3f ms\n",
                 layer.c_str(), static_cast<long long>(row.count), row.total_ms,
                 row.self_ms);
    if (per > 0) {
      Metric("self_ms." + layer, row.self_ms / static_cast<double>(per), "ms",
             per);
    }
    if (self_total > 0.0) {
      Metric("self_share." + layer, row.self_ms / self_total, "share", row.count);
    }
  }
  layers_json_ = out + "}";
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\":";
  out += ok() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":{\"value\":" + JsonNumber(v.value) +
           ",\"unit\":" + JsonString(v.unit) + ",\"n\":" + std::to_string(v.n) +
           "}";
  }
  out += "},\"failures\":[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out += (i ? "," : "") + JsonString(failures_[i]);
  }
  out += "],\"info\":{";
  first = true;
  for (const auto& [key, value] : info_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(key) + ":" + JsonNumber(value);
  }
  for (const auto& [key, value] : text_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(key) + ":" + JsonString(value);
  }
  out += "}";
  if (!layers_json_.empty()) out += ",\"layers\":" + layers_json_;
  return out + "}";
}

int64_t Open(SpanRecorder* spans, const char* layer, const char* name,
             int64_t parent) {
  return spans != nullptr ? spans->Begin(layer, name, parent) : -1;
}

void Close(SpanRecorder* spans, int64_t index) {
  if (spans != nullptr) spans->End(index);
}

RoundPool::RoundPool()
    : pool_(musenet::util::ThreadPool::Global().num_threads()), active_(&pool_) {}

int64_t NowNs() { return musenet::util::MonotonicNowNanos(); }

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

Snapshot TakeSnapshot() {
  return musenet::obs::Registry::Instance().Snapshot();
}

int64_t CounterDelta(const Snapshot& before, const Snapshot& after,
                     const std::string& name) {
  auto value = [&name](const Snapshot& s) -> int64_t {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return value(after) - value(before);
}

musenet::obs::MetricsSnapshot::HistogramData HistogramDelta(
    const Snapshot& before, const Snapshot& after, const std::string& name) {
  musenet::obs::MetricsSnapshot::HistogramData delta;
  auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return delta;
  delta = a->second;
  auto b = before.histograms.find(name);
  if (b != before.histograms.end() && b->second.counts.size() == delta.counts.size()) {
    for (size_t i = 0; i < delta.counts.size(); ++i) {
      delta.counts[i] -= b->second.counts[i];
    }
    delta.total -= b->second.total;
    delta.sum -= b->second.sum;
  }
  return delta;
}

musenet::sim::FlowSeries SimulateCity(musenet::sim::DatasetId preset, int h,
                                      int w, int days, SpanRecorder* spans,
                                      int64_t parent, double* seconds) {
  const int64_t span = Open(spans, "sim", "sim.simulate", parent);
  const int64_t start = NowNs();
  musenet::BenchScale scale{.name = "default",
                            .epochs = 1,
                            .grid_h = h,
                            .grid_w = w,
                            .days = days,
                            .repr_dim = 8,
                            .dist_dim = 16,
                            .batch_size = 8,
                            .seed = kCitySeed};
  musenet::sim::City city(
      musenet::sim::MakeCityConfig(preset, scale, kCitySeed), kCitySeed);
  musenet::sim::FlowSeries flows = city.Simulate().flows;
  *seconds = SecondsSince(start);
  Close(spans, span);
  return flows;
}

std::unique_ptr<musenet::data::TrafficDataset> MakeDataset(
    musenet::sim::FlowSeries flows, SpanRecorder* spans, int64_t parent) {
  const int64_t span = Open(spans, "data", "data.dataset", parent);
  musenet::data::DatasetOptions options;
  options.max_train_samples = 320;
  auto dataset = std::make_unique<musenet::data::TrafficDataset>(
      std::move(flows), options);
  Close(spans, span);
  return dataset;
}

musenet::muse::MuseNetConfig ModelConfig(
    const musenet::data::TrafficDataset& dataset, int64_t d, int64_t k) {
  musenet::muse::MuseNetConfig config;
  config.grid_h = dataset.grid_height();
  config.grid_w = dataset.grid_width();
  config.repr_dim = d;
  config.dist_dim = k;
  return config;
}

void StepClock::Mark() {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  starts_.push_back(now);
}

std::vector<int64_t> StepClock::starts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return starts_;
}

musenet::eval::TrainDriver MakeDriver(musenet::muse::MuseNet& model,
                                      StepClock* clock) {
  musenet::eval::TrainDriver driver;
  driver.module = &model;
  driver.forecaster = &model;
  driver.shuffle_salt = 0x5EEDF00DULL;
  driver.batch_loss = [&model, clock](const musenet::data::Batch& batch) {
    if (clock != nullptr) clock->Mark();
    auto forward = model.Forward(batch, /*stochastic=*/true);
    return model.ComputeLoss(forward, batch, nullptr);
  };
  return driver;
}

double PlanBytes(const musenet::infer::Plan& plan) {
  double elems = 0.0;
  for (const musenet::infer::Step& step : plan.steps) {
    for (int32_t in : step.in) {
      elems += static_cast<double>(plan.buffers[static_cast<size_t>(in)].elems);
    }
    elems += static_cast<double>(plan.buffers[static_cast<size_t>(step.out)].elems);
  }
  return elems * sizeof(float);
}

int64_t GemmSteps(const musenet::infer::Plan& plan) {
  namespace ag = musenet::autograd;
  int64_t n = 0;
  for (const musenet::infer::Step& step : plan.steps) {
    n += step.kind == ag::OpKind::kMatMul || step.kind == ag::OpKind::kMatMulBatched ||
         step.kind == ag::OpKind::kConv2d;
  }
  return n;
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-poisson|infer-replay|train "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Context;
  Context ctx;
  ctx.out_dir = ".";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      ctx.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      ctx.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      ctx.trace = value == "1";
    } else if (key == "--out-dir") {
      ctx.out_dir = value;
    } else {
      return perfbench::Usage();
    }
  }
  if (!have_workload || argc % 2 == 0 || !(ctx.seconds > 0.0)) {
    return perfbench::Usage();
  }

  ctx.report.Text("workload", ctx.workload);
  ctx.report.Info("seed", static_cast<double>(ctx.seed));
  ctx.report.Info("seconds", ctx.seconds);
  ctx.report.Info("trace", ctx.trace ? 1.0 : 0.0);
  ctx.report.Info("pool_threads",
                  musenet::util::ThreadPool::Global().num_threads());
  const char* threads_env = std::getenv("MUSENET_NUM_THREADS");
  ctx.report.Text("MUSENET_NUM_THREADS",
                  threads_env != nullptr ? threads_env : "");

  try {
    if (ctx.workload == "serve-poisson") {
      perfbench::RunServePoisson(ctx);
    } else if (ctx.workload == "infer-replay") {
      perfbench::RunInferReplay(ctx);
    } else if (ctx.workload == "train") {
      perfbench::RunTrain(ctx);
    } else {
      return perfbench::Usage();
    }
  } catch (const std::exception& e) {
    ctx.report.Check(false, std::string("exception: ") + e.what());
  }
  // Units of work (requests, replay calls, RunTraining calls) that completed
  // without an error, over those attempted.
  if (ctx.report.attempted > 0) {
    ctx.report.Metric("ok_share",
                      static_cast<double>(ctx.report.attempted - ctx.report.failed) /
                          static_cast<double>(ctx.report.attempted),
                      "share", ctx.report.attempted);
  }
  if (ctx.trace) {
    const std::string path = ctx.out_dir + "/" + ctx.workload + ".spans.json";
    std::ofstream out(path);
    out << ctx.spans.ToChromeJson();
    out.close();
    ctx.report.Check(!out.fail(), "cannot write " + path);
    ctx.report.Text("spans_file", path);
  }
  std::printf("%s\n", ctx.report.ToJson().c_str());
  std::fflush(stdout);
  return ctx.report.ok() ? 0 : 1;
}
