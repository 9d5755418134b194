// Fixed-input checks of the benchmark's summary code. Exits non-zero on
// the first disagreement. Expected quartiles come from Python:
//   statistics.quantiles([...], n=4)

#include <cmath>
#include <cstdio>
#include <vector>

#include "summary.hpp"

namespace {

int g_failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-12 * std::max(1.0, std::fabs(want))) {
    std::printf("FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++g_failures;
  }
}

void expect_true(bool cond, const char* what) {
  if (!cond) {
    std::printf("FAIL %s\n", what);
    ++g_failures;
  }
}

}  // namespace

int main() {
  using namespace perfbench;

  expect_near(median({3.0, 1.0, 2.0}), 2.0, "median odd");
  expect_near(median({4.0, 1.0, 3.0, 2.0}), 2.5, "median even");
  expect_near(median({7.5}), 7.5, "median single");

  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles q10 = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect_near(q10.q1, 2.75, "quartiles 1..10 q1");
  expect_near(q10.q2, 5.5, "quartiles 1..10 q2");
  expect_near(q10.q3, 8.25, "quartiles 1..10 q3");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Quartiles q2 = quartiles({2.0, 1.0});
  expect_near(q2.q1, 0.75, "quartiles pair q1");
  expect_near(q2.q2, 1.5, "quartiles pair q2");
  expect_near(q2.q3, 2.25, "quartiles pair q3");
  // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
  const Quartiles q5 = quartiles({5, 1, 4, 2, 3});
  expect_near(q5.q1, 1.5, "quartiles five q1");
  expect_near(q5.q2, 3.0, "quartiles five q2");
  expect_near(q5.q3, 4.5, "quartiles five q3");

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect_near(percentile(hundred, 50), 50.0, "p50 of 1..100");
  expect_near(percentile(hundred, 99), 99.0, "p99 of 1..100");
  expect_near(percentile(hundred, 100), 100.0, "p100 of 1..100");
  expect_near(percentile({42.0}, 99), 42.0, "p99 of one sample");

  expect_near(highest_supported_percentile(9), 0.0, "no percentile at n=9");
  expect_near(highest_supported_percentile(20), 50.0, "p50 at n=20");
  expect_near(highest_supported_percentile(100), 90.0, "p90 at n=100");
  expect_near(highest_supported_percentile(999), 90.0, "p90 at n=999");
  expect_near(highest_supported_percentile(1000), 99.0, "p99 at n=1000");
  expect_near(highest_supported_percentile(10000), 99.9, "p99.9 at n=10000");

  expect_true(kP99Samples == 1000 && highest_supported_percentile(kP99Samples) == 99.0 &&
                  highest_supported_percentile(kP99Samples - 1) < 99.0,
              "kP99Samples is the fewest samples that support a p99");

  // 3000 latencies in three windows of 1000; the middle one holds a stall.
  std::vector<double> stream;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 1000; ++i) stream.push_back(w == 1 && i > 900 ? 1e6 : i + 100.0 * w);
  }
  const std::vector<double> p99s = window_percentiles(stream, 99, 5);
  expect_true(p99s.size() == 3, "three windows of 1000");
  expect_near(p99s[0], 990.0, "first window p99");
  expect_near(p99s[1], 1e6, "stalled window p99");
  expect_near(median(p99s), 1190.0, "median window p99 ignores one stalled window");
  expect_true(window_percentiles(stream, 99, 2).size() == 2, "window count capped");
  expect_true(window_percentiles(std::span<const double>(stream).first(1999), 99, 5).size() == 1,
              "one window below two windows' worth");
  expect_near(window_percentiles(stream, 90, 5)[1], 1000.0, "p90 below the stall");

  // Four requests due at 0,1,2,3; the third is never answered.
  const std::vector<double> due = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> done = {0.5, 2.5, -1.0, 3.1};
  expect_true(outstanding_at(due, done, 0.0) == 1, "outstanding at 0");
  expect_true(outstanding_at(due, done, 1.0) == 1, "outstanding at 1");
  expect_true(outstanding_at(due, done, 2.0) == 2, "outstanding at 2");
  expect_true(outstanding_at(due, done, 3.0) == 2, "outstanding at 3");
  expect_true(outstanding_at(due, done, 4.0) == 1, "outstanding at 4");

  // Steady queue: every request answered 0.5 after it was due.
  std::vector<double> steady_due, steady_done, late_done;
  for (int i = 0; i < 100; ++i) {
    steady_due.push_back(i);
    steady_done.push_back(i + 0.5);
    // Falling behind: service takes 1.5 per request from the start.
    late_done.push_back(1.5 * (i + 1));
  }
  expect_true(!backlog_growing(steady_due, steady_done, 100.0, 2.0),
              "steady queue is not a growing backlog");
  expect_true(backlog_growing(steady_due, late_done, 100.0, 2.0),
              "a server at 2/3 of the rate builds a backlog");
  // A stall just before the end: 20 requests answered only at 99.5.
  std::vector<double> stall_done = steady_done;
  for (int i = 79; i < 99; ++i) stall_done[static_cast<std::size_t>(i)] = 99.5;
  expect_true(outstanding_at(steady_due, stall_done, 99.0) == 21, "stall backlog at 99");
  expect_true(backlog_growing(steady_due, stall_done, 100.0, 2.0),
              "a long stall at the end reads as a backlog");
  expect_true(!backlog_growing(steady_due, stall_done, 100.0, 12.0),
              "a stall shorter than the slack allows is not a growing backlog");

  // A rung of 1000 requests, one every ms, answered 100..1099 us after due.
  std::vector<Outcome> served;
  for (int i = 0; i < 1000; ++i) served.push_back({1e-3 * i, 1e-3 * i + 1e-6 * (100 + i), false});
  const Rung clean = summarize_rung(1000, 1.0, served, 2000, 5);
  expect_true(clean.sent == 1000 && clean.ok == 1000 && clean.failed == 0, "clean rung counts");
  expect_near(clean.p50_us, 599.0, "clean rung p50");
  expect_near(clean.p90_us, 999.0, "clean rung p90");
  expect_true(rung_meets_limit(clean, 2000), "clean rung meets the limit");
  // The slowest fifth fail (retry-later, error or no answer): failures are
  // charged the timeout, so they make every percentile worse, not better.
  std::vector<Outcome> failing_requests = served;
  for (int i = 800; i < 1000; ++i) {
    failing_requests[static_cast<std::size_t>(i)].failed = true;
    if (i % 2 == 0) failing_requests[static_cast<std::size_t>(i)].done = -1.0;
  }
  const Rung failed_rung = summarize_rung(1000, 1.0, failing_requests, 2000, 5);
  expect_true(failed_rung.ok == 800 && failed_rung.failed == 200, "failing rung counts");
  expect_near(failed_rung.p50_us, 599.0, "failures above the median leave the p50");
  expect_near(failed_rung.p90_us, kFailedLatencyUs, "failed requests set the p90");
  expect_near(failed_rung.p99_us, kFailedLatencyUs, "failed requests set the p99");
  expect_true(!rung_meets_limit(failed_rung, 2000), "a failing rung misses the limit");
  std::vector<Outcome> all_failed = served;
  for (Outcome& r : all_failed) r = {r.due, -1.0, true};
  expect_near(summarize_rung(1000, 1.0, all_failed, 2000, 5).p50_us, kFailedLatencyUs,
              "a rung with no answers has the timeout as its p50, not 0");

  // Rungs of one pass.
  const auto rung = [](double rate, double p50_us) {
    Rung r;
    r.rate = rate;
    r.sent = r.ok = static_cast<std::size_t>(rate / 4);  // 0.25 s of requests
    r.p50_us = p50_us;
    return r;
  };
  const std::vector<Rung> ladder = {
      rung(4000, 400), rung(8000, 600), rung(16000, 1900),
      rung(32000, 2100),  // p50 over the limit
  };
  expect_near(max_passing_rate(ladder, 2000), 16000, "highest rung within the limit");
  expect_true(!ladder_done(ladder, 2000), "one miss does not end the ladder");
  std::vector<Rung> failing = ladder;
  failing[2].failed = 1;
  failing[2].ok -= 1;
  expect_near(max_passing_rate(failing, 2000), 8000, "a failed request misses the limit");
  expect_true(ladder_done(failing, 2000), "two misses in a row end the ladder");
  std::vector<Rung> backlog = ladder;
  backlog[2].backlog_growing = true;
  expect_near(max_passing_rate(backlog, 2000), 8000, "a growing backlog misses the limit");
  std::vector<Rung> stall = ladder;
  stall[1] = rung(8000, 9000);  // one stall below a passing rung
  expect_near(max_passing_rate(stall, 2000), 16000, "a lone stall does not cap the rate");
  std::vector<Rung> thin = ladder;
  for (Rung& r : thin) r.ok = 999;
  expect_near(max_passing_rate(thin, 2000), 0, "too few answers for a p99");

  // Three passes: the second ran in a stall and stopped at 16k. Per rate,
  // the median rung decides, so one stalled pass does not cap the rate.
  std::vector<Rung> passes = ladder;
  for (const Rung& r : {rung(4000, 5000), rung(8000, 6000), rung(16000, 7000)}) {
    passes.push_back(r);
  }
  for (const Rung& r : ladder) passes.push_back(r);
  expect_near(max_passing_rate(passes, 2000), 16000, "one stalled pass of three");
  std::vector<Rung> mostly_stalled = passes;
  mostly_stalled[9] = rung(16000, 7000);  // the third pass stalls at 16k too
  expect_near(max_passing_rate(mostly_stalled, 2000), 8000,
              "a rate that misses in most passes misses");
  std::vector<Rung> mostly_growing = passes;
  mostly_growing[2].backlog_growing = true;
  mostly_growing[9].backlog_growing = true;
  expect_near(max_passing_rate(mostly_growing, 2000), 8000,
              "a backlog growing in half the passes misses");

  if (g_failures != 0) {
    std::printf("%d summary check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("summary checks passed\n");
  return 0;
}
