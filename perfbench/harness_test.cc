// Tests of the benchmark's own logic: percentiles and the tail percentile a
// sample count supports, the seeded arrival schedule, and the checks that
// must reject a mismatch.

#include "harness.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};  // Unsorted on purpose.
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25.0), 1.75);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 99.0), 7.0);
  EXPECT_TRUE(std::isnan(Percentile({}, 50.0)));
}

TEST(PercentileTest, MatchesNumpyDefaultOnARamp) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  // numpy.percentile(range(1, 1001), 99) == 990.01
  EXPECT_NEAR(Percentile(v, 99.0), 990.01, 1e-9);
  EXPECT_NEAR(Percentile(v, 90.0), 900.1, 1e-9);
}

TEST(TailTest, NeedsTenSamplesBeyondThePercentile) {
  EXPECT_FALSE(TailSupported(999, 99.0));
  EXPECT_TRUE(TailSupported(1000, 99.0));
  EXPECT_FALSE(TailSupported(99, 90.0));
  EXPECT_TRUE(TailSupported(100, 90.0));
  EXPECT_TRUE(TailSupported(10000, 99.9));
  EXPECT_FALSE(TailSupported(9999, 99.9));
}

TEST(TailTest, PicksTheHighestSupportedRung) {
  EXPECT_EQ(HighestSupportedPercentile(50), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(2500), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(15000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
}

TEST(TailTest, SummaryCarriesCountMedianAndTail) {
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  const Summary s = Summarize(v);
  EXPECT_EQ(s.n, 1000);
  EXPECT_DOUBLE_EQ(s.p50, 499.5);
  EXPECT_EQ(s.tail_q, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, Percentile(v, 99.0));
  const Summary few = Summarize({1.0, 2.0, 3.0});
  EXPECT_EQ(few.tail_q, 0.0);
}

TEST(WindowedPercentileTest, OneStalledWindowDoesNotMoveTheResult) {
  std::vector<double> v;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 1000; ++i) v.push_back(1.0 + i * 1e-3);
  }
  const Windowed clean = WindowedPercentile(v, 99.0, 10);
  EXPECT_EQ(clean.windows, 5);  // 5000 samples hold five p99-capable windows.
  for (int i = 0; i < 50; ++i) v[2000 + i] = 50.0;  // A stall in window 3.
  EXPECT_GT(Percentile(v, 99.0), 1.999);
  EXPECT_DOUBLE_EQ(WindowedPercentile(v, 99.0, 10).value, clean.value);
}

TEST(WindowedPercentileTest, FallsBackToOneWindow) {
  std::vector<double> v(1500, 2.0);
  v.back() = 9.0;
  const Windowed w = WindowedPercentile(v, 99.0, 10);
  EXPECT_EQ(w.windows, 1);
  EXPECT_DOUBLE_EQ(w.value, Percentile(v, 99.0));
  EXPECT_EQ(WindowedPercentile(v, 50.0, 10).windows, 10);
}

TEST(RoundPercentileTest, WindowsHoldWholeRounds) {
  // Rounds of 30, 30, 5 and 30 samples at levels 1, 3, 9 and 2. p50 needs
  // 20 samples per window: the 5-sample round joins the next round.
  std::vector<double> v;
  std::vector<size_t> starts;
  for (const auto& [n, level] : std::vector<std::pair<int, double>>{
           {30, 1.0}, {30, 3.0}, {5, 9.0}, {30, 2.0}}) {
    starts.push_back(v.size());
    v.insert(v.end(), n, level);
  }
  const Windowed w = RoundPercentile(v, starts, 50.0);
  ASSERT_EQ(w.windows, 3);
  EXPECT_DOUBLE_EQ(w.per_window[0], 1.0);
  EXPECT_DOUBLE_EQ(w.per_window[1], 3.0);
  EXPECT_DOUBLE_EQ(w.per_window[2], 2.0);
  // Too few samples for one supported window: everything is one window.
  const Windowed one = RoundPercentile({1.0, 2.0, 3.0}, {0, 1, 2}, 90.0);
  EXPECT_EQ(one.windows, 1);
  EXPECT_DOUBLE_EQ(one.value, Percentile({1.0, 2.0, 3.0}, 90.0));
  // A trailing round too small for a window joins the last one.
  const Windowed tail = RoundPercentile(std::vector<double>(25, 1.0), {0, 20}, 50.0);
  EXPECT_EQ(tail.windows, 1);
}

TEST(StepIntervalsTest, GroupsShardCallsIntoSteps) {
  // Two shards per step, recorded out of order; steps start at 0, 10, 25, 45
  // ms and a lone call of an unfinished fifth step trails.
  const std::vector<int64_t> starts = {10'300'000, 0, 25'000'000, 200'000,
                                       45'100'000, 10'000'000, 45'000'000,
                                       25'400'000, 60'000'000};
  const std::vector<double> ms = StepIntervalsMs(starts, 2);
  ASSERT_EQ(ms.size(), 3u);
  EXPECT_DOUBLE_EQ(ms[0], 10.0);
  EXPECT_DOUBLE_EQ(ms[1], 15.0);
  EXPECT_DOUBLE_EQ(ms[2], 20.0);
  EXPECT_EQ(StepIntervalsMs({0, 5'000'000}, 1), std::vector<double>{5.0});
  EXPECT_TRUE(StepIntervalsMs({0}, 1).empty());
}

TEST(PoissonScheduleTest, ReproducesExactlyFromTheSeed) {
  const auto a = PoissonSchedule(42, 3000.0, 2.0, 624);
  const auto b = PoissonSchedule(42, 3000.0, 2.0, 624);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset_ns, b[i].offset_ns);
    EXPECT_EQ(a[i].window, b[i].window);
  }
  const auto c = PoissonSchedule(43, 3000.0, 2.0, 624);
  bool differs = c.size() != a.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].offset_ns != c[i].offset_ns;
  }
  EXPECT_TRUE(differs);
}

TEST(PoissonScheduleTest, HasTheRequestedRateAndCyclesWindows) {
  const auto s = PoissonSchedule(7, 3000.0, 10.0, 100);
  // 30,000 expected arrivals; Poisson sd is ~173, so 5 sd is ~870.
  EXPECT_NEAR(static_cast<double>(s.size()), 30000.0, 870.0);
  for (size_t i = 1; i < s.size(); ++i) {
    ASSERT_GE(s[i].offset_ns, s[i - 1].offset_ns);
    ASSERT_EQ(s[i].window, (s[i - 1].window + 1) % 100);
  }
  EXPECT_LT(s.back().offset_ns, 10'000'000'000);
  // Exponential gaps: the coefficient of variation is 1.
  double sum = 0.0, sq = 0.0;
  for (size_t i = 1; i < s.size(); ++i) {
    const double gap = static_cast<double>(s[i].offset_ns - s[i - 1].offset_ns);
    sum += gap;
    sq += gap * gap;
  }
  const double n = static_cast<double>(s.size() - 1);
  const double mean = sum / n;
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean) / mean, 1.0, 0.05);
}

ServeTally CleanTally() {
  ServeTally t;
  t.issued = 100;
  t.completed = 97;
  t.shed = 2;
  t.timed_out = 1;
  return t;
}

ServeCounters CleanCounters() {
  ServeCounters c;
  c.requests = 100;
  c.admitted = 98;
  c.shed = 2;
  c.timed_out = 1;
  c.completed = 97;
  return c;
}

TEST(ReconcileTest, AcceptsConsistentCounts) {
  EXPECT_TRUE(ReconcileServe(CleanTally(), CleanCounters()).empty());
}

TEST(ReconcileTest, RejectsEachSeededMismatch) {
  {
    ServeCounters c = CleanCounters();
    c.requests += 1;  // A request the benchmark never issued.
    EXPECT_FALSE(ReconcileServe(CleanTally(), c).empty());
  }
  {
    ServeCounters c = CleanCounters();
    c.admitted -= 1;  // requests != admitted + shed.
    EXPECT_FALSE(ReconcileServe(CleanTally(), c).empty());
  }
  {
    ServeCounters c = CleanCounters();
    c.completed -= 1;  // admitted != completed + timed_out.
    EXPECT_FALSE(ReconcileServe(CleanTally(), c).empty());
  }
  {
    ServeTally t = CleanTally();
    t.completed -= 1;  // A future the service counted as completed failed.
    t.errored += 1;
    EXPECT_FALSE(ReconcileServe(t, CleanCounters()).empty());
  }
  {
    ServeTally t = CleanTally();
    t.shed += 1;  // More ShedErrors than serve.shed counted.
    t.completed -= 1;
    EXPECT_FALSE(ReconcileServe(t, CleanCounters()).empty());
  }
}

TEST(OutputCheckTest, RejectsADeltaAboveTheGateAndNonFinite) {
  std::vector<float> ref(512, 0.25f);
  std::vector<float> got = ref;
  EXPECT_EQ(MaxAbsDiff(got.data(), ref.data(), 512), 0.0);
  got[17] += 5e-5f;
  EXPECT_LE(MaxAbsDiff(got.data(), ref.data(), 512), 1e-4);
  got[300] += 2e-4f;  // Seeded mismatch.
  EXPECT_GT(MaxAbsDiff(got.data(), ref.data(), 512), 1e-4);
  got[300] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(MaxAbsDiff(got.data(), ref.data(), 512) <= 1e-4);
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"client", "root", 0, 100, 1, -1},
      {"serve", "a", 10, 40, 1, 0},
      {"serve", "b", 30, 60, 1, 0},  // Overlaps a: union covers 10..60.
      {"infer", "c", 35, 45, 1, 2},
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 10);
  const auto table = LayerTable(spans);
  EXPECT_EQ(table.at("serve").count, 2);
  EXPECT_DOUBLE_EQ(table.at("serve").self_ms, 50e-6);
  EXPECT_EQ(LayerTable(spans, 3).count("serve"), 0u);
}

TEST(ObsTraceTest, ParsesCompleteEventsByName) {
  const std::string json =
      "{\"traceEvents\":[\n"
      "{\"name\":\"train.step\",\"ph\":\"X\",\"ts\":12.500,\"dur\":3.250,"
      "\"pid\":1,\"tid\":2,\"args\":{\"step\":7}},\n"
      "{\"name\":\"mark\",\"ph\":\"i\",\"s\":\"t\",\"ts\":13.000,\"pid\":1,"
      "\"tid\":2},\n"
      "{\"name\":\"train.shard\",\"ph\":\"X\",\"ts\":12.600,\"dur\":1.000,"
      "\"pid\":1,\"tid\":3}\n"
      "]}\n";
  const auto all = ParseObsTrace(json, {});
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name, "train.step");
  EXPECT_EQ(all[0].ts_ns, 12500);
  EXPECT_EQ(all[0].dur_ns, 3250);
  const auto shards = ParseObsTrace(json, {"train.shard"});
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].ts_ns, 12600);
}

}  // namespace
}  // namespace perfbench
