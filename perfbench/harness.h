// Benchmark-side logic that does not touch the program under test: sample
// statistics, the seeded open-loop arrival schedule, the serve-counter
// reconciliation and output checks, the benchmark's own span recorder, and a
// reader for the program's `obs` trace JSON. Kept apart from the workloads so
// harness_test.cc can pin it down.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// --- Statistics --------------------------------------------------------------

/// q-th percentile (q in [0, 100]) of `samples` by linear interpolation
/// between closest ranks (the "type 7" rule numpy and Python's
/// statistics.quantiles(method="inclusive") use). Sorts a copy; NaN for an
/// empty input.
double Percentile(std::vector<double> samples, double q);

/// True when `n` samples leave at least `kTailSamples` samples strictly
/// beyond the q-th percentile, i.e. n * (1 - q / 100) >= kTailSamples.
inline constexpr int64_t kTailSamples = 10;
bool TailSupported(int64_t n, double q);

/// Highest percentile of the ladder {99.99, 99.9, 99, 90} that `n` samples
/// support (TailSupported), or 0 when not even p90 is supported.
double HighestSupportedPercentile(int64_t n);

/// Median plus the highest supported tail percentile of a sample set.
struct Summary {
  int64_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  ///< 0 when no tail percentile is supported.
  double tail = 0.0;
};
Summary Summarize(const std::vector<double>& samples);

/// Median over consecutive windows of the per-window q-th percentile.
/// `samples` are in time order and split into as many equal windows as each
/// keep kTailSamples beyond q, at most `max_windows`, so a short burst of
/// host stalls moves one window's percentile, not the result. One window is
/// the plain percentile.
inline constexpr int64_t kMaxWindows = 10;
struct Windowed {
  double value = 0.0;
  int64_t windows = 0;
  std::vector<double> per_window;
};
Windowed WindowedPercentile(const std::vector<double>& samples, double q,
                            int64_t max_windows);

/// Wall time of each training step, from the start times of the step's
/// loss calls (one per shard, in any order). Steps run one after another and
/// every step makes exactly `shards` calls, so after sorting, calls
/// [k * shards, (k + 1) * shards) belong to step k; step k lasts from its
/// first call to step k + 1's first call. The last step has no successor and
/// is left out. Calls that do not fill a whole step are ignored.
std::vector<double> StepIntervalsMs(std::vector<int64_t> starts_ns,
                                    int64_t shards);

/// Like WindowedPercentile, but each window is made of whole rounds, where a
/// round is the samples (in time order) measured on one fresh thread pool
/// and `round_starts` holds the index of each round's first sample.
/// Consecutive rounds are merged until the window supports q; a remainder
/// that does not joins the last window. How well a pool's threads land on
/// the host's virtual CPUs holds for the pool's life, so a window never
/// mixes two placements.
Windowed RoundPercentile(const std::vector<double>& samples,
                         const std::vector<size_t>& round_starts, double q);

// --- Open-loop arrival schedule ---------------------------------------------

/// One scheduled request: when it is due, relative to the phase start, and
/// which held-out window it carries.
struct Arrival {
  int64_t offset_ns = 0;
  int64_t window = 0;
};

/// Poisson arrivals at `rate_rps` over `seconds`: exponential inter-arrival
/// gaps drawn by inversion from a SplitMix64 stream seeded with `seed` (no
/// std:: distribution, whose output differs between standard libraries).
/// Windows cycle through [0, num_windows) from a seeded starting point.
std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_rps,
                                     double seconds, int64_t num_windows);

/// SplitMix64 step: the benchmark's only source of seeded choices.
uint64_t SplitMix64(uint64_t* state);

// --- Checks ------------------------------------------------------------------

/// The benchmark's own count of what happened to the requests it issued.
struct ServeTally {
  int64_t issued = 0;
  int64_t completed = 0;  ///< Resolved with a prediction.
  int64_t shed = 0;       ///< Resolved with serve::ShedError.
  int64_t timed_out = 0;  ///< Resolved with serve::DeadlineError.
  int64_t errored = 0;    ///< Any other exception.
};

/// Deltas of the program's serve.* counters over the same span of requests.
struct ServeCounters {
  int64_t requests = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  int64_t timed_out = 0;
  int64_t completed = 0;
};

/// Human-readable reasons the counters disagree with the tally (empty when
/// they reconcile): requests == issued == admitted + shed, admitted ==
/// completed + timed_out, and each counter equals the benchmark's own count.
std::vector<std::string> ReconcileServe(const ServeTally& tally,
                                        const ServeCounters& counters);

/// Largest |a[i] - b[i]|; +inf when any element of either side is not finite.
double MaxAbsDiff(const float* a, const float* b, int64_t n);

// --- Spans ---------------------------------------------------------------------

/// One span the benchmark recorded around a call into a layer.
struct Span {
  std::string layer;     ///< Module name: sim, data, serve, infer, ...
  std::string name;      ///< Call, e.g. "serve.submit".
  int64_t start_ns = 0;  ///< util::MonotonicNowNanos clock.
  int64_t end_ns = 0;
  int64_t rid = -1;      ///< Request id shared by the spans of one request.
  int64_t parent = -1;   ///< Index of the enclosing span, -1 for a root.
};

/// In-memory span store, written out only at the end of a run. Spans are
/// either opened and closed around a call (Begin/End, so children can name
/// the parent while it is open) or appended whole once their times are known
/// (Add), which lets a request's spans be recorded from whichever thread saw
/// it finish.
class SpanRecorder {
 public:
  /// Appends a complete span and returns its index.
  int64_t Add(Span span);
  /// Opens a span starting now; returns its index.
  int64_t Begin(const char* layer, const char* name, int64_t parent = -1,
                int64_t rid = -1);
  /// Closes the span `index` now.
  void End(int64_t index);
  std::vector<Span> spans() const;
  /// Chrome trace_event JSON of every span (ts/dur in microseconds), with
  /// rid and parent in args.
  std::string ToChromeJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (clipped to the span).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per-layer rollup of the spans from index `first` on (self times are
/// computed over the whole set, so children recorded later still count).
struct LayerRow {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, LayerRow> LayerTable(const std::vector<Span>& spans,
                                           size_t first = 0);

// --- Program trace -------------------------------------------------------------

/// One complete ("ph":"X") event of the program's obs trace JSON.
struct ObsEvent {
  std::string name;
  int64_t ts_ns = 0;
  int64_t dur_ns = 0;
};

/// Parses the one-event-per-line JSON obs::TraceToJson emits, keeping the
/// complete events whose name is in `names` (all when empty).
std::vector<ObsEvent> ParseObsTrace(const std::string& json,
                                    const std::vector<std::string>& names);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
