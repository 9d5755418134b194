// NAS phase: what a NAS researcher runs against a downloaded artifact —
// Regularized Evolution and Random Search over a batched accuracy+perf
// oracle, and REINFORCE over the scalar oracle, all scoring the Fig. 4
// bi-objective reward.

#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "anb/nas/evolution.hpp"
#include "anb/nas/random_search.hpp"
#include "anb/nas/reinforce.hpp"
#include "anb/obs/trace.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/util/rng.hpp"
#include "common.hpp"
#include "summary.hpp"

namespace perfbench {
namespace {

enum class Search { kRe, kRs, kReinforce };

struct SearchSpec {
  Search kind;
  const char* name;  ///< metric prefix
  int n_evals;
  std::uint64_t stream;  ///< seed stream of the search's RNG
};

/// Each repetition runs every search once per sub-seed, and every
/// repetition draws fresh sub-seeds: RE's speed follows its cache hit ratio,
/// which varies from trajectory to trajectory, so a run's rate must
/// average over several of them instead of riding on one.
constexpr std::size_t kSubSeeds = 3;

constexpr SearchSpec kSearches[] = {
    {Search::kRe, "re", 20000, 0x5E1},
    {Search::kRs, "rs", 20000, 0x5E2},
    {Search::kReinforce, "reinforce", 10000, 0x5E3},
};

/// Per-call timings of the oracle, recorded only on the traced pass.
struct OracleLog {
  std::vector<double> batch_call_us;
  std::vector<double> batch_rows;
  std::vector<double> scalar_call_us;
};

struct SearchRun {
  anb::SearchTrajectory trajectory;
  double wall_s = 0.0;
  double oracle_s = 0.0;  ///< time inside the oracle (traced pass only)
  anb::QueryCacheStats cache;
};

SearchRun run_search(const anb::AccelNASBench& bench, const Objective& objective,
                     const SearchSpec& spec, std::uint64_t seed, OracleLog* log) {
  bench.clear_cache();
  anb::Rng rng(anb::hash_combine(seed, spec.stream));
  SearchRun run;

  const anb::BatchEvalOracle batched = [&](std::span<const anb::Arch> archs) {
    const double t0 = log != nullptr ? now_s() : 0.0;
    const std::vector<double> acc = bench.query_accuracy_batch(archs);
    const double t1 = log != nullptr ? now_s() : 0.0;
    const std::vector<double> perf = bench.query_perf_batch(archs, objective.key);
    if (log != nullptr) {
      const double t2 = now_s();
      log->batch_call_us.push_back(1e6 * (t1 - t0));
      log->batch_call_us.push_back(1e6 * (t2 - t1));
      log->batch_rows.push_back(static_cast<double>(archs.size()));
      log->batch_rows.push_back(static_cast<double>(archs.size()));
      run.oracle_s += t2 - t0;
    }
    std::vector<double> reward(archs.size());
    for (std::size_t i = 0; i < archs.size(); ++i) reward[i] = objective.reward(acc[i], perf[i]);
    return reward;
  };
  const anb::EvalOracle scalar = [&](const anb::Arch& arch) {
    const double t0 = log != nullptr ? now_s() : 0.0;
    const double acc = bench.query_accuracy(arch);
    const double t1 = log != nullptr ? now_s() : 0.0;
    const double perf = bench.query_perf(arch, objective.key);
    if (log != nullptr) {
      const double t2 = now_s();
      log->scalar_call_us.push_back(1e6 * (t1 - t0));
      log->scalar_call_us.push_back(1e6 * (t2 - t1));
      run.oracle_s += t2 - t0;
    }
    return objective.reward(acc, perf);
  };

  const double start = now_s();
  switch (spec.kind) {
    case Search::kRe: {
      anb::RegularizedEvolution optimizer;
      run.trajectory = optimizer.run(anb::SearchOracle(batched), spec.n_evals, rng);
      break;
    }
    case Search::kRs: {
      anb::RandomSearchNas optimizer;
      run.trajectory = optimizer.run(anb::SearchOracle(batched), spec.n_evals, rng);
      break;
    }
    case Search::kReinforce: {
      anb::Reinforce optimizer;
      run.trajectory = optimizer.run(anb::SearchOracle(scalar), spec.n_evals, rng);
      break;
    }
  }
  run.wall_s = now_s() - start;
  run.cache = bench.cache_stats();
  return run;
}

/// Sampled trajectory entries equal the reward recomputed from direct
/// scalar queries on an independent, cache-off instance.
bool trajectory_matches_scalar(const anb::SearchTrajectory& trajectory,
                               const anb::AccelNASBench& reference,
                               const Objective& objective, std::uint64_t seed) {
  anb::Rng rng(anb::hash_combine(seed, 0xC4EC));
  for (int i = 0; i < 64; ++i) {
    const auto at = static_cast<std::size_t>(rng.uniform_index(trajectory.size()));
    const anb::Arch& arch = trajectory.archs[at];
    const double direct = objective.reward(reference.query_accuracy(arch),
                                           reference.query_perf(arch, objective.key));
    if (direct != trajectory.values[at]) return false;
  }
  return true;
}

/// Cache-off batched prediction rate over a fixed matrix, every target.
double predict_rows_per_s(const anb::AccelNASBench& reference, std::uint64_t seed) {
  anb::Rng rng(anb::hash_combine(seed, 0x9ED));
  std::vector<anb::Arch> archs;
  for (int i = 0; i < 4096; ++i) archs.push_back(anb::MnasSpace::instance().sample(rng));
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    const double start = now_s();
    std::size_t rows = reference.query_accuracy_batch(archs).size();
    for (const anb::MetricKey& key : reference.perf_targets()) {
      rows += reference.query_perf_batch(archs, key).size();
    }
    rates.push_back(static_cast<double>(rows) / (now_s() - start));
  }
  return median(rates);
}

}  // namespace

struct NasPhase::State {
  State(const RunConfig& run_config, const std::string& artifact)
      : config(run_config),
        bench(anb::AccelNASBench::open(artifact, anb::io::MapMode::kMap)),
        reference(anb::AccelNASBench::open(artifact, anb::io::MapMode::kMap)) {
    reference.set_cache_enabled(false);
    objective = make_objective(reference, config.seed);
  }

  static constexpr std::size_t kN = std::size(kSearches);
  const RunConfig& config;
  const anb::AccelNASBench bench;
  anb::AccelNASBench reference;  ///< cache off: direct answers for the checks
  Objective objective;
  PhaseCount count{"nas"};
  OracleLog log;
  // Per search: evaluations and wall time over every run, and one sample
  // per repetition over its sub-seeds.
  double evals[kN] = {}, wall_s[kN] = {};
  std::vector<double> self_s[kN], oracle_frac[kN];
  anb::SearchTrajectory first[kN];  ///< first sub-seed of the first repetition
  anb::QueryCacheStats cache[kN];
  int reps = 0;
};

NasPhase::NasPhase(const RunConfig& config, const std::string& artifact)
    : state_(std::make_unique<State>(config, artifact)) {}

NasPhase::~NasPhase() = default;

void NasPhase::run_once(Report& report) {
  State& st = *state_;
  OracleLog* log = st.config.trace ? &st.log : nullptr;
  const int rep = st.reps++;
  for (std::size_t s = 0; s < State::kN; ++s) {
    const SearchSpec& spec = kSearches[s];
    double wall = 0.0, oracle = 0.0;
    for (std::size_t k = 0; k < kSubSeeds; ++k) {
      const std::uint64_t sub_seed =
          anb::hash_combine(st.config.seed, static_cast<std::uint64_t>(rep) * kSubSeeds + k);
      const SearchRun run = run_search(st.bench, st.objective, spec, sub_seed, log);
      if (log != nullptr) anb::obs::clear_trace_events();  // bound span memory
      wall += run.wall_s;
      oracle += run.oracle_s;
      st.count.sent += static_cast<std::uint64_t>(spec.n_evals);
      const bool complete = run.trajectory.size() == static_cast<std::size_t>(spec.n_evals);
      st.count.ok += complete ? run.trajectory.size() : 0;
      st.count.failed += complete ? 0 : static_cast<std::uint64_t>(spec.n_evals);
      report.check(complete, std::string("nas: ") + spec.name + " evaluated a wrong count");
      report.check(
          trajectory_matches_scalar(run.trajectory, st.reference, st.objective, sub_seed),
          std::string("nas: ") + spec.name + " trajectory differs from scalar queries");
      st.cache[s].hits += run.cache.hits;
      st.cache[s].misses += run.cache.misses;
      if (rep == 0 && k == 0) st.first[s] = run.trajectory;
    }
    st.evals[s] += static_cast<double>(kSubSeeds) * spec.n_evals;
    st.wall_s[s] += wall;
    st.self_s[s].push_back((wall - oracle) / kSubSeeds);  // per search run
    st.oracle_frac[s].push_back(oracle / wall);
  }
}

void NasPhase::finish(Report& report) {
  State& st = *state_;
  // Same-seed repeat of the first trajectory of every search.
  for (std::size_t s = 0; s < State::kN; ++s) {
    const SearchRun again = run_search(st.bench, st.objective, kSearches[s],
                                       anb::hash_combine(st.config.seed, 0), nullptr);
    report.check(again.trajectory.archs == st.first[s].archs &&
                     again.trajectory.values == st.first[s].values,
                 std::string("nas: ") + kSearches[s].name + " same-seed repeat diverged");
  }
  if (st.config.trace) anb::obs::clear_trace_events();
  // Pooled over every run rather than a median of repetitions: a run's
  // speed follows its trajectory (RE's cache hits), so the rate of many
  // trajectories together is the steady quantity.
  report.end_to_end.set("re_evals_per_s", st.evals[0] / st.wall_s[0], "1/s");
  report.end_to_end.set("rs_evals_per_s", st.evals[1] / st.wall_s[1], "1/s");
  report.end_to_end.set("reinforce_evals_per_s", st.evals[2] / st.wall_s[2], "1/s");
  report.phases.push_back(st.count);
  if (!st.config.trace) return;
  const auto ratio = [](const anb::QueryCacheStats& c) {
    return static_cast<double>(c.hits) / static_cast<double>(c.hits + c.misses);
  };
  const OracleLog& log = st.log;
  report.per_layer.set("anb.query_batch_us", percentile(log.batch_call_us, 50), "us");
  report.per_layer.set("anb.query_batch_rows",
                       std::accumulate(log.batch_rows.begin(), log.batch_rows.end(), 0.0) /
                           static_cast<double>(log.batch_rows.size()),
                       "rows");
  report.per_layer.set("anb.query_scalar_us", percentile(log.scalar_call_us, 50), "us");
  // Counts per RE run: the number of runs follows the workload's plan.
  const double re_runs = static_cast<double>(st.reps) * static_cast<double>(kSubSeeds);
  report.per_layer.set("anb.cache_hit_ratio", ratio(st.cache[0]), "ratio");
  report.per_layer.set("anb.cache_hits", static_cast<double>(st.cache[0].hits) / re_runs,
                       "count");
  report.per_layer.set("anb.cache_queries",
                       static_cast<double>(st.cache[0].hits + st.cache[0].misses) / re_runs,
                       "count");
  report.per_layer.set("anb.rs_cache_hit_ratio", ratio(st.cache[1]), "ratio");
  report.per_layer.set("surrogate.predict_rows_per_s",
                       predict_rows_per_s(st.reference, st.config.seed), "rows/s");
  for (std::size_t s = 0; s < State::kN; ++s) {
    const std::string prefix = std::string("nas.") + kSearches[s].name;
    report.per_layer.set(prefix + ".self_s", st.self_s[s], "s");
    report.per_layer.set(prefix + ".oracle_frac", st.oracle_frac[s], "ratio");
  }
}

}  // namespace perfbench
