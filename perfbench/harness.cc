#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "util/stopwatch.h"

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

bool TailSupported(int64_t n, double q) {
  // Integer form of n * (1 - q/100) >= kTailSamples with q in hundredths of
  // a percent, so 99.9 over 10000 samples is exactly 10, not 9.999...
  const int64_t q_hundredths = std::llround(q * 100.0);
  return n * (10000 - q_hundredths) >= kTailSamples * 10000;
}

double HighestSupportedPercentile(int64_t n) {
  for (double q : {99.99, 99.9, 99.0, 90.0}) {
    if (TailSupported(n, q)) return q;
  }
  return 0.0;
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = static_cast<int64_t>(samples.size());
  if (samples.empty()) return s;
  s.p50 = Percentile(samples, 50.0);
  s.tail_q = HighestSupportedPercentile(s.n);
  if (s.tail_q > 0.0) s.tail = Percentile(samples, s.tail_q);
  return s;
}

Windowed WindowedPercentile(const std::vector<double>& samples, double q,
                            int64_t max_windows) {
  Windowed out;
  const int64_t n = static_cast<int64_t>(samples.size());
  if (n == 0) {
    out.value = std::numeric_limits<double>::quiet_NaN();
    return out;
  }
  // Largest window count whose every window still supports q.
  out.windows = std::max<int64_t>(1, max_windows);
  while (out.windows > 1 && !TailSupported(n / out.windows, q)) --out.windows;
  for (int64_t i = 0; i < out.windows; ++i) {
    const auto lo = samples.begin() + i * n / out.windows;
    const auto hi = samples.begin() + (i + 1) * n / out.windows;
    out.per_window.push_back(Percentile(std::vector<double>(lo, hi), q));
  }
  out.value = Percentile(out.per_window, 50.0);
  return out;
}

Windowed RoundPercentile(const std::vector<double>& samples,
                         const std::vector<size_t>& round_starts, double q) {
  Windowed out;
  std::vector<std::vector<double>> windows;
  std::vector<double> current;
  for (size_t r = 0; r < round_starts.size(); ++r) {
    const size_t lo = std::min(round_starts[r], samples.size());
    const size_t hi = r + 1 < round_starts.size()
                          ? std::min(round_starts[r + 1], samples.size())
                          : samples.size();
    current.insert(current.end(), samples.begin() + lo, samples.begin() + hi);
    if (TailSupported(static_cast<int64_t>(current.size()), q)) {
      windows.push_back(std::move(current));
      current.clear();
    }
  }
  if (windows.empty()) {
    windows.push_back(std::move(current));
  } else {
    windows.back().insert(windows.back().end(), current.begin(), current.end());
  }
  for (const std::vector<double>& w : windows) {
    out.per_window.push_back(Percentile(w, q));
  }
  out.windows = static_cast<int64_t>(windows.size());
  out.value = Percentile(out.per_window, 50.0);
  return out;
}

std::vector<double> StepIntervalsMs(std::vector<int64_t> starts_ns,
                                    int64_t shards) {
  std::vector<double> ms;
  if (shards <= 0) return ms;
  std::sort(starts_ns.begin(), starts_ns.end());
  const size_t steps = starts_ns.size() / static_cast<size_t>(shards);
  for (size_t k = 1; k < steps; ++k) {
    const size_t begin = (k - 1) * static_cast<size_t>(shards);
    const size_t next = k * static_cast<size_t>(shards);
    ms.push_back(static_cast<double>(starts_ns[next] - starts_ns[begin]) / 1e6);
  }
  return ms;
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_rps,
                                     double seconds, int64_t num_windows) {
  std::vector<Arrival> schedule;
  if (rate_rps <= 0.0 || seconds <= 0.0 || num_windows <= 0) return schedule;
  uint64_t state = seed;
  const int64_t start =
      static_cast<int64_t>(SplitMix64(&state) % static_cast<uint64_t>(num_windows));
  schedule.reserve(static_cast<size_t>(rate_rps * seconds * 1.1) + 16);
  double t = 0.0;
  for (int64_t k = 0;; ++k) {
    // 53 random bits -> u in [0, 1); 1 - u is in (0, 1] so the log is finite.
    const double u = static_cast<double>(SplitMix64(&state) >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / rate_rps;
    if (t >= seconds) break;
    schedule.push_back({static_cast<int64_t>(t * 1e9), (start + k) % num_windows});
  }
  return schedule;
}

std::vector<std::string> ReconcileServe(const ServeTally& tally,
                                        const ServeCounters& counters) {
  std::vector<std::string> failures;
  auto expect = [&failures](const char* what, int64_t got, int64_t want) {
    if (got != want) {
      failures.push_back(std::string(what) + ": " + std::to_string(got) +
                         " != " + std::to_string(want));
    }
  };
  expect("serve.requests vs issued", counters.requests, tally.issued);
  expect("serve.requests vs admitted + shed", counters.requests,
         counters.admitted + counters.shed);
  expect("serve.admitted vs completed + timed_out", counters.admitted,
         counters.completed + counters.timed_out);
  expect("serve.completed vs completed futures", counters.completed,
         tally.completed);
  expect("serve.shed vs ShedError futures", counters.shed, tally.shed);
  expect("serve.timed_out vs DeadlineError futures", counters.timed_out,
         tally.timed_out);
  expect("futures with another error", tally.errored, 0);
  expect("issued vs resolved futures", tally.issued,
         tally.completed + tally.shed + tally.timed_out + tally.errored);
  return failures;
}

double MaxAbsDiff(const float* a, const float* b, int64_t n) {
  double worst = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(a[i]) || !std::isfinite(b[i])) {
      return std::numeric_limits<double>::infinity();
    }
    worst = std::max(worst, std::fabs(static_cast<double>(a[i]) - b[i]));
  }
  return worst;
}

int64_t SpanRecorder::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t SpanRecorder::Begin(const char* layer, const char* name,
                            int64_t parent, int64_t rid) {
  const int64_t now = musenet::util::MonotonicNowNanos();
  return Add({layer, name, now, now, rid, parent});
}

void SpanRecorder::End(int64_t index) {
  const int64_t now = musenet::util::MonotonicNowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanRecorder::ToChromeJson() const {
  const std::vector<Span> all = spans();
  std::string out = "{\"traceEvents\":[\n";
  char buf[160];
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out += "{\"name\":\"" + s.name + "\",\"cat\":\"" + s.layer + "\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"rid\":%lld,\"parent\":%lld,\"id\":%zu}}",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<long long>(s.rid),
                  static_cast<long long>(s.parent), i);
    out += buf;
    out += i + 1 < all.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = std::max<int64_t>(0, hi - lo - covered);
  }
  return self;
}

std::map<std::string, LayerRow> LayerTable(const std::vector<Span>& spans,
                                           size_t first) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, LayerRow> table;
  for (size_t i = first; i < spans.size(); ++i) {
    LayerRow& row = table[spans[i].layer];
    row.count += 1;
    row.total_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    row.self_ms += static_cast<double>(self[i]) / 1e6;
  }
  return table;
}

namespace {

/// Value of the JSON number following `"key":` in `line`, or false.
bool NumberAfter(const char* line, const char* key, double* value) {
  const char* at = std::strstr(line, key);
  if (at == nullptr) return false;
  char* end = nullptr;
  *value = std::strtod(at + std::strlen(key), &end);
  return end != at + std::strlen(key);
}

}  // namespace

std::vector<ObsEvent> ParseObsTrace(const std::string& json,
                                    const std::vector<std::string>& names) {
  std::vector<ObsEvent> events;
  size_t pos = 0;
  while (pos < json.size()) {
    size_t eol = json.find('\n', pos);
    if (eol == std::string::npos) eol = json.size();
    const std::string line = json.substr(pos, eol - pos);
    pos = eol + 1;
    static constexpr char kName[] = "{\"name\":\"";
    if (line.rfind(kName, 0) != 0) continue;
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    const size_t name_begin = sizeof(kName) - 1;
    const size_t name_end = line.find('"', name_begin);
    if (name_end == std::string::npos) continue;
    ObsEvent event;
    event.name = line.substr(name_begin, name_end - name_begin);
    if (!names.empty() &&
        std::find(names.begin(), names.end(), event.name) == names.end()) {
      continue;
    }
    double ts_us = 0.0, dur_us = 0.0;
    if (!NumberAfter(line.c_str(), "\"ts\":", &ts_us) ||
        !NumberAfter(line.c_str(), "\"dur\":", &dur_us)) {
      continue;
    }
    event.ts_ns = std::llround(ts_us * 1e3);
    event.dur_ns = std::llround(dur_us * 1e3);
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace perfbench
