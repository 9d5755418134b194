// Regression tests for the run()/run_batched() equivalence contract: for
// any fixed seed, evaluating populations through a batched oracle must
// reproduce the scalar trajectory EXACTLY — same architectures, same
// values, same RNG stream. This is what lets the harness switch the NAS
// optimizers to AccelNASBench's batched query path without perturbing any
// published trajectory.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "anb/anb/benchmark.hpp"
#include "anb/anb/tuning.hpp"
#include "anb/nas/evolution.hpp"
#include "anb/nas/nsga2.hpp"
#include "anb/nas/random_search.hpp"
#include "anb/nas/reinforce.hpp"
#include "anb/nas/successive_halving.hpp"

namespace anb {
namespace {

const SearchSpace& sp() { return MnasSpace::instance(); }

/// Deterministic synthetic objective (no surrogate, no RNG).
double synthetic_objective(const Arch& genotype) {
  double score = 0.0;
  for (const auto& blk : MnasSpace::blocks(genotype)) {
    score += blk.expansion == 6 ? 1.0 : 0.0;
    score += blk.se ? 0.5 : 0.0;
    score += 0.2 * blk.layers + (blk.kernel == 5 ? 0.1 : 0.0);
  }
  return score;
}

std::unique_ptr<Surrogate> fitted_model(std::uint64_t seed,
                                        double scale = 1.0) {
  Dataset ds(static_cast<std::size_t>(sp().feature_dim()));
  Rng rng(seed);
  for (int i = 0; i < 150; ++i) {
    const Arch a = sp().sample(rng);
    const auto f = sp().features(a);
    double y = 0.0;
    for (double v : f) y += v;
    ds.add(f, scale * y + rng.normal(0.0, 0.01));
  }
  auto model = make_default_surrogate(SurrogateKind::kXgb);
  model->fit(ds, rng);
  return model;
}

AccelNASBench make_bench() {
  AccelNASBench bench;
  bench.set_accuracy_surrogate(fitted_model(1));
  bench.set_perf_surrogate(MetricKey{DeviceKind::kA100, PerfMetric::kThroughput},
                           fitted_model(2, 100.0));
  return bench;
}

void expect_same_trajectory(const SearchTrajectory& scalar,
                            const SearchTrajectory& batched) {
  ASSERT_EQ(scalar.size(), batched.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(sp().to_index(scalar.archs[i]),
              sp().to_index(batched.archs[i]))
        << "arch " << i;
    EXPECT_EQ(scalar.values[i], batched.values[i]) << "value " << i;
    EXPECT_EQ(scalar.incumbent[i], batched.incumbent[i]) << "incumbent " << i;
  }
}

/// Runs one optimizer both ways against the same deterministic scoring
/// function and requires identical trajectories. The benchmark-backed
/// variant exercises the full production path (batched surrogate
/// prediction + query cache); the synthetic variant isolates the
/// optimizer's own RNG discipline.
void check_optimizer(NasOptimizer& optimizer, int n_evals,
                     std::uint64_t seed) {
  {
    const EvalOracle scalar = synthetic_objective;
    const BatchEvalOracle batched = batch_from_scalar(scalar);
    Rng rng_a(seed), rng_b(seed);
    expect_same_trajectory(optimizer.run(scalar, n_evals, rng_a),
                           optimizer.run_batched(batched, n_evals, rng_b));
  }
  {
    const AccelNASBench bench = make_bench();
    const EvalOracle scalar = [&](const Arch& a) {
      return bench.query_accuracy(a);
    };
    const BatchEvalOracle batched = [&](std::span<const Arch> archs) {
      return bench.query_accuracy_batch(archs);
    };
    Rng rng_a(seed), rng_b(seed);
    const SearchTrajectory traj_scalar = optimizer.run(scalar, n_evals, rng_a);
    bench.clear_cache();
    const SearchTrajectory traj_batched =
        optimizer.run_batched(batched, n_evals, rng_b);
    expect_same_trajectory(traj_scalar, traj_batched);
  }
}

TEST(BatchedDeterminismTest, RandomSearch) {
  RandomSearchNas rs;
  check_optimizer(rs, 40, 11);
}

TEST(BatchedDeterminismTest, RegularizedEvolution) {
  RegularizedEvolutionParams p;
  p.population_size = 12;
  p.sample_size = 4;
  RegularizedEvolution re(p);
  check_optimizer(re, 40, 12);
}

TEST(BatchedDeterminismTest, ReinforceViaBaseClassWrap) {
  // REINFORCE has no batched override (each sample depends on the policy
  // updated by the previous score); the base-class batch-of-1 wrap must
  // still reproduce the scalar trajectory exactly.
  Reinforce rf;
  check_optimizer(rf, 30, 13);
}

TEST(BatchedDeterminismTest, Nsga2GenerationalBatching) {
  const AccelNASBench bench = make_bench();
  const BiObjectiveOracle scalar = [&](const Arch& a) {
    return std::make_pair(
        bench.query_accuracy(a),
        bench.query_perf(a, MetricKey{DeviceKind::kA100, PerfMetric::kThroughput}));
  };
  const BiObjectiveBatchOracle batched =
      [&](std::span<const Arch> archs) {
        const std::vector<double> acc = bench.query_accuracy_batch(archs);
        const std::vector<double> thr = bench.query_perf_batch(
            archs, MetricKey{DeviceKind::kA100, PerfMetric::kThroughput});
        std::vector<std::pair<double, double>> out(archs.size());
        for (std::size_t i = 0; i < archs.size(); ++i)
          out[i] = {acc[i], thr[i]};
        return out;
      };

  Nsga2Params p;
  p.population_size = 10;
  const Nsga2 nsga2(p);
  Rng rng_a(14), rng_b(14);
  const Nsga2Result res_scalar = nsga2.run(scalar, 50, rng_a);
  bench.clear_cache();
  const Nsga2Result res_batched = nsga2.run_batched(batched, 50, rng_b);

  ASSERT_EQ(res_scalar.archs.size(), res_batched.archs.size());
  for (std::size_t i = 0; i < res_scalar.archs.size(); ++i) {
    EXPECT_EQ(sp().to_index(res_scalar.archs[i]),
              sp().to_index(res_batched.archs[i]))
        << "arch " << i;
    EXPECT_EQ(res_scalar.obj1[i], res_batched.obj1[i]) << "obj1 " << i;
    EXPECT_EQ(res_scalar.obj2[i], res_batched.obj2[i]) << "obj2 " << i;
  }
  EXPECT_EQ(res_scalar.front, res_batched.front);
}

TEST(BatchedDeterminismTest, SuccessiveHalvingRoundBatching) {
  // Deterministic budget-aware oracle: accuracy approaches the synthetic
  // objective as epochs grow, cost is linear in epochs.
  const BudgetedOracle scalar = [](const Arch& a, int epochs) {
    BudgetedEval e;
    const double maturity =
        static_cast<double>(epochs) / (10.0 + static_cast<double>(epochs));
    e.accuracy = synthetic_objective(a) * maturity;
    e.cost_hours = 0.01 * epochs;
    return e;
  };
  const BudgetedBatchOracle batched =
      [&scalar](std::span<const Arch> archs, int epochs) {
        std::vector<BudgetedEval> out;
        out.reserve(archs.size());
        for (const auto& a : archs) out.push_back(scalar(a, epochs));
        return out;
      };

  SuccessiveHalvingParams p;
  p.initial_population = 9;
  const SuccessiveHalving sh(p);
  Rng rng_a(15), rng_b(15);
  const SuccessiveHalvingResult res_scalar = sh.run(scalar, rng_a);
  const SuccessiveHalvingResult res_batched = sh.run_batched(batched, rng_b);

  EXPECT_EQ(sp().to_index(res_scalar.best),
            sp().to_index(res_batched.best));
  EXPECT_EQ(res_scalar.best_accuracy, res_batched.best_accuracy);
  EXPECT_EQ(res_scalar.total_cost_hours, res_batched.total_cost_hours);
  EXPECT_EQ(res_scalar.rounds, res_batched.rounds);
  ASSERT_EQ(res_scalar.evals.size(), res_batched.evals.size());
  for (std::size_t i = 0; i < res_scalar.evals.size(); ++i) {
    EXPECT_EQ(sp().to_index(res_scalar.evals[i].arch),
              sp().to_index(res_batched.evals[i].arch));
    EXPECT_EQ(res_scalar.evals[i].accuracy, res_batched.evals[i].accuracy);
    EXPECT_EQ(res_scalar.evals[i].epochs, res_batched.evals[i].epochs);
  }
}

TEST(BatchedDeterminismTest, BatchFromScalarAdapter) {
  const BatchEvalOracle adapted = batch_from_scalar(synthetic_objective);
  Rng rng(16);
  std::vector<Arch> archs;
  for (int i = 0; i < 7; ++i) archs.push_back(sp().sample(rng));
  const std::vector<double> got = adapted(archs);
  ASSERT_EQ(got.size(), archs.size());
  for (std::size_t i = 0; i < archs.size(); ++i)
    EXPECT_EQ(got[i], synthetic_objective(archs[i]));
}

}  // namespace
}  // namespace anb
