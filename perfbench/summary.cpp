#include "summary.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace perfbench {
namespace {

/// 1-based nearest rank of percentile `p` among `n` samples; the epsilon
/// keeps 99.9% of 10000 at rank 9990 despite binary rounding.
double nearest_rank(double p, std::size_t n) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2) throw std::invalid_argument("quartiles need two values");
  std::sort(values.begin(), values.end());
  const std::size_t ld = values.size();
  const std::size_t m = ld + 1;
  double q[3] = {0.0, 0.0, 0.0};
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    q[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return {q[0], q[1], q[2]};
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of no values");
  std::sort(values.begin(), values.end());
  const double rank = nearest_rank(p, values.size());
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double highest_supported_percentile(std::size_t n, std::size_t min_beyond) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const double rank = nearest_rank(p, n);
    if (static_cast<double>(n) - rank >= static_cast<double>(min_beyond)) best = p;
  }
  return best;
}

std::vector<double> window_percentiles(std::span<const double> latencies, double p,
                                       std::size_t max_windows) {
  if (latencies.empty()) throw std::invalid_argument("percentile of no values");
  const std::size_t windows = std::clamp<std::size_t>(latencies.size() / kP99Samples, 1,
                                                      std::max<std::size_t>(max_windows, 1));
  std::vector<double> result;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t begin = latencies.size() * w / windows;
    const std::size_t end = latencies.size() * (w + 1) / windows;
    result.push_back(percentile({latencies.begin() + static_cast<std::ptrdiff_t>(begin),
                                 latencies.begin() + static_cast<std::ptrdiff_t>(end)},
                                p));
  }
  return result;
}

std::size_t outstanding_at(std::span<const double> due,
                           std::span<const double> done, double t) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (due[i] <= t && (done[i] < 0.0 || done[i] > t)) ++count;
  }
  return count;
}

bool backlog_growing(std::span<const double> due, std::span<const double> done,
                     double duration, double slack) {
  constexpr int kPoints = 32;
  const auto mean_backlog = [&](double from, double to) {
    double sum = 0.0;
    for (int i = 1; i <= kPoints; ++i) {
      sum += static_cast<double>(outstanding_at(due, done, from + (to - from) * i / kPoints));
    }
    return sum / kPoints;
  };
  return mean_backlog(0.75 * duration, duration) - mean_backlog(0.25 * duration, 0.5 * duration) >
         slack;
}

Rung summarize_rung(double rate, double duration, std::span<const Outcome> requests,
                    double p50_limit_us, std::size_t max_windows) {
  if (requests.empty()) throw std::invalid_argument("rung without requests");
  Rung rung;
  rung.rate = rate;
  rung.sent = requests.size();
  std::vector<double> latency_us, due, done;
  for (const Outcome& r : requests) {
    due.push_back(r.due);
    done.push_back(r.done);
    ++(r.failed ? rung.failed : rung.ok);
    latency_us.push_back(r.failed ? kFailedLatencyUs : 1e6 * (r.done - r.due));
  }
  rung.p50_us = percentile(latency_us, 50);
  rung.window_p90s = window_percentiles(latency_us, 90, max_windows);
  rung.window_p99s = window_percentiles(latency_us, 99, max_windows);
  rung.p90_us = median(rung.window_p90s);
  rung.p99_us = median(rung.window_p99s);
  const double slack = std::max(10.0, rate * p50_limit_us * 1e-6);
  rung.backlog_growing = backlog_growing(due, done, duration, slack);
  return rung;
}

bool rung_meets_limit(const Rung& rung, double p50_limit_us) {
  return rung.failed == 0 && highest_supported_percentile(rung.ok) >= 99.0 &&
         rung.p50_us <= p50_limit_us && !rung.backlog_growing;
}

double max_passing_rate(std::span<const Rung> rungs, double p50_limit_us) {
  std::map<double, std::vector<const Rung*>> by_rate;
  for (const Rung& rung : rungs) by_rate[rung.rate].push_back(&rung);
  double best = 0.0;
  for (const auto& [rate, group] : by_rate) {
    bool clean = true;
    std::size_t growing = 0;
    std::vector<double> p50s;
    for (const Rung* rung : group) {
      clean = clean && rung->failed == 0 && highest_supported_percentile(rung->ok) >= 99.0;
      growing += rung->backlog_growing ? 1 : 0;
      p50s.push_back(rung->p50_us);
    }
    if (clean && 2 * growing < group.size() && median(p50s) <= p50_limit_us) best = rate;
  }
  return best;
}

bool ladder_done(std::span<const Rung> ladder, double p50_limit_us) {
  const std::size_t n = ladder.size();
  return n >= 2 && !rung_meets_limit(ladder[n - 1], p50_limit_us) &&
         !rung_meets_limit(ladder[n - 2], p50_limit_us);
}

}  // namespace perfbench
