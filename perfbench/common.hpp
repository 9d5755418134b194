#pragma once

// Shared plumbing of the repo benchmark: run configuration, named metrics,
// per-phase accounting, output checks, and the four phases every workload
// runs (build, set-up, nas, serve).

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "anb/anb/benchmark.hpp"
#include "anb/util/json.hpp"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunConfig {
  std::string workload;    ///< nas | serve
  std::uint64_t seed = 0;  ///< every generated input derives from it
  double seconds = 10.0;   ///< nominal time of the workload's own phase
  bool trace = false;      ///< per-layer pass (obs tracing on)
  std::string workdir;     ///< scratch directory inside the checkout
};

/// Named metrics with units.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// The median of `samples`; the record also keeps their count and
  /// quartiles.
  void set(const std::string& name, const std::vector<double>& samples,
           const std::string& unit);
  double value(const std::string& name) const;
  /// {name: {value, unit}}, the form of the result line.
  anb::Json to_json() const { return anb::Json(values_); }
  /// to_json() plus {samples, q1, q3} for every median.
  anb::Json to_record() const;

 private:
  anb::Json::Object values_;
  anb::Json::Object spreads_;
};

/// Requests (or runs) a phase attempted and how they ended.
struct PhaseCount {
  std::string name;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
};

/// Everything one benchmark pass produces.
struct Report {
  Metrics end_to_end;
  Metrics per_layer;
  std::vector<PhaseCount> phases;
  std::vector<std::string> mismatches;  ///< failed output checks

  /// Record an output check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
};

/// Summed wall seconds, by span name, of the spans the program recorded
/// since the last call (tracing must be on); clears the span buffers.
/// Requires quiescence.
std::map<std::string, double> take_span_seconds();

/// Scratch path for one file of this process.
std::string scratch_path(const RunConfig& config, const std::string& tag);

/// The objective every search scores: accuracy scaled by ZCU102
/// throughput, as in the paper's Fig. 4 bi-objective search (MnasNet
/// reward, w = 0.07, target = median throughput of random architectures).
struct Objective {
  anb::MetricKey key{anb::DeviceKind::kZcu102, anb::PerfMetric::kThroughput};
  double target = 1.0;
  double weight = 0.07;
  double reward(double accuracy, double perf) const;
};
Objective make_objective(const anb::AccelNASBench& bench, std::uint64_t seed);

// ---- phases ------------------------------------------------------------
// Each phase accumulates samples over the rounds of a pass and reports
// medians (and its per-layer metrics on a traced pass) in finish().

/// `construct_benchmark` at the fixed scale plus `save_binary`. The first
/// build's artifact is the one every other phase opens.
class BuildPhase {
 public:
  explicit BuildPhase(const RunConfig& config);
  ~BuildPhase();
  BuildPhase(const BuildPhase&) = delete;
  BuildPhase& operator=(const BuildPhase&) = delete;

  void run_once(Report& report);
  const std::string& artifact() const { return artifact_; }
  void finish(Report& report);

 private:
  const RunConfig& config_;
  std::string artifact_;
  std::string artifact_bytes_;
  PhaseCount count_{"build"};
  std::vector<double> build_s_, proxy_s_, collect_s_, fit_s_, fit_rows_per_s_, save_ms_;
  std::uint64_t retries_ = 0;
  std::size_t unstable_bytes_ = 0;  ///< vs the first artifact, over later builds
  double min_r2_ = 1.0;             ///< worst held-out fit of the first build
  double min_tau_ = 1.0;
};

/// Cold start: `open(kMap)` of the artifact, one answered in-process query,
/// then an in-process server up and one answered served query.
class SetupPhase {
 public:
  SetupPhase(const RunConfig& config, const std::string& artifact);
  void run_once(Report& report);
  void finish(Report& report);

 private:
  const RunConfig& config_;
  const std::string artifact_;
  PhaseCount count_{"setup"};
  std::vector<double> setup_s_, open_ms_;
  std::uint64_t probes_ = 0;
};

/// RE and RS over a batched oracle and REINFORCE over the scalar oracle.
class NasPhase {
 public:
  NasPhase(const RunConfig& config, const std::string& artifact);
  ~NasPhase();
  NasPhase(const NasPhase&) = delete;
  NasPhase& operator=(const NasPhase&) = delete;

  /// One repetition: every search once per (fresh) sub-seed.
  void run_once(Report& report);
  void finish(Report& report);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// An in-process server with default ServeOptions under an open-loop
/// stream: short bursts at a fixed reference rate, and passes stepping up
/// a rate ladder.
class ServePhase {
 public:
  ServePhase(const RunConfig& config, const std::string& artifact);
  ~ServePhase();
  ServePhase(const ServePhase&) = delete;
  ServePhase& operator=(const ServePhase&) = delete;

  /// One burst at the reference rate: a sample of serve_p50_us and a
  /// window of serve.p90_us / serve.p99_us.
  void run_reference(Report& report);
  /// One pass up the ladder: a sample of serve_max_qps.
  void run_ladder(Report& report);
  void finish(Report& report);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace perfbench
