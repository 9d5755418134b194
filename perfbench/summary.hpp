#pragma once

// Summary statistics and the serving rate-ladder rule of the repo
// benchmark. Pure functions of their inputs, so summary_test.cpp can pin
// them on fixed data.

#include <cstddef>
#include <span>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle elements for even sizes).
/// Requires a non-empty input.
double median(std::vector<double> values);

/// First, second and third quartile with the same method as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// Requires at least two values.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

/// Nearest-rank percentile `p` (in percent, 0 < p <= 100) of `values`.
/// Requires a non-empty input.
double percentile(std::vector<double> values, double p);

/// The highest of 50, 90, 99, 99.9 and 99.99 that leaves at least
/// `min_beyond` of `n` samples above its nearest rank; 0 when even the
/// median does not.
double highest_supported_percentile(std::size_t n, std::size_t min_beyond = 10);

/// The fewest samples whose p99 has ten samples beyond it.
inline constexpr std::size_t kP99Samples = 1000;

/// Percentile `p` of each of consecutive windows of a stream of latencies
/// (in due order): as many windows of at least kP99Samples values as fit,
/// at most `max_windows`, and at least one. Their median is a percentile
/// that one stall of a shared host moves by at most one window.
std::vector<double> window_percentiles(std::span<const double> latencies, double p,
                                       std::size_t max_windows);

/// Requests of an open-loop schedule still unanswered at time `t`: due at
/// or before `t` and answered after it. `done[i] < 0` marks a request that
/// was never answered. Times share one clock.
std::size_t outstanding_at(std::span<const double> due,
                           std::span<const double> done, double t);

/// True when, over a step of `duration` seconds starting at 0, the mean
/// backlog of the last quarter exceeds that of the second quarter by more
/// than `slack` requests: the server fell behind the schedule instead of
/// holding a steady queue. Means over many instants keep one stall from
/// deciding it.
bool backlog_growing(std::span<const double> due, std::span<const double> done,
                     double duration, double slack);

/// How long the load generator waits for answers after the last request
/// of a rung was due. A failed request is charged this as its latency: far
/// past any limit, and finite, so every percentile stays a number.
inline constexpr double kTimeoutS = 2.0;
inline constexpr double kFailedLatencyUs = 1e6 * kTimeoutS;

/// One request of an open-loop schedule, in seconds from its rung's start.
struct Outcome {
  double due = 0.0;
  double done = -1.0;   ///< < 0: never answered
  bool failed = false;  ///< retry-later, error, or never answered
};

/// One step of the serving rate ladder.
struct Rung {
  double rate = 0.0;  ///< scheduled requests per second
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;  ///< retry-later, error or disconnect
  double p50_us = 0.0;  ///< over every request, failures charged kFailedLatencyUs
  double p90_us = 0.0;  ///< median of window_p90s
  double p99_us = 0.0;  ///< median of window_p99s
  bool backlog_growing = false;
  std::vector<double> window_p90s;  ///< window_percentiles(…, 90, …)
  std::vector<double> window_p99s;  ///< window_percentiles(…, 99, …)
};

/// Summary of a rung of `duration` seconds at `rate` from its requests in
/// due order. Failed requests count in every percentile at
/// kFailedLatencyUs. The backlog slack is the requests due within the
/// limit, and at least 10.
Rung summarize_rung(double rate, double duration, std::span<const Outcome> requests,
                    double p50_limit_us, std::size_t max_windows);

/// A rung meets the latency limit when nothing failed (a failed request
/// misses any limit), its answers support a p99, the p50 is within
/// `p50_limit_us` and the backlog did not grow. The limit sits on the p50
/// because on a shared host the host's own multi-millisecond stalls set
/// the p90 and p99 for whole runs at a time (see README.md).
bool rung_meets_limit(const Rung& rung, double p50_limit_us);

/// Highest rate whose rungs, from every pass of the ladder, meet the limit
/// together; 0 when none does. The rungs of a rate meet it when none had a
/// failed request, each supports a p99, fewer than half grew a backlog,
/// and the median of their p50s is within `p50_limit_us`. So a stall of a
/// shared host during one pass, or a lone miss below a passing rate, does
/// not cap the result.
double max_passing_rate(std::span<const Rung> rungs, double p50_limit_us);

/// An ascending ladder stops once its last two rungs both missed the
/// limit: the server is past its knee and higher rates only overload it.
bool ladder_done(std::span<const Rung> ladder, double p50_limit_us);

}  // namespace perfbench
