#include <gtest/gtest.h>

#include <cmath>

#include "anb/nas/evolution.hpp"
#include "anb/nas/random_search.hpp"
#include "anb/nas/reinforce.hpp"
#include "anb/util/error.hpp"

namespace anb {
namespace {

const SearchSpace& sp() { return MnasSpace::instance(); }

/// Deterministic synthetic objective: rewards expansion-6 + SE + depth.
double synthetic_objective(const Arch& genotype) {
  double score = 0.0;
  for (const auto& blk : MnasSpace::blocks(genotype)) {
    score += blk.expansion == 6 ? 1.0 : (blk.expansion == 4 ? 0.5 : 0.0);
    score += blk.se ? 0.5 : 0.0;
    score += 0.2 * blk.layers;
    score += blk.kernel == 5 ? 0.1 : 0.0;
  }
  return score;
}

constexpr double kMaxObjective = 7.0 * (1.0 + 0.5 + 0.6 + 0.1);

TEST(SearchTrajectoryTest, IncumbentIsRunningMax) {
  SearchTrajectory traj;
  Rng rng(1);
  const Arch a = sp().sample(rng);
  traj.add(a, 1.0);
  traj.add(a, 0.5);
  traj.add(a, 2.0);
  EXPECT_EQ(traj.incumbent, (std::vector<double>{1.0, 1.0, 2.0}));
  EXPECT_DOUBLE_EQ(traj.best_value(), 2.0);
}

TEST(SearchTrajectoryTest, BestArchMatchesBestValue) {
  SearchTrajectory traj;
  Rng rng(2);
  Arch best;
  double best_value = -1.0;
  for (int i = 0; i < 20; ++i) {
    const Arch a = sp().sample(rng);
    const double v = synthetic_objective(a);
    traj.add(a, v);
    if (v > best_value) {
      best_value = v;
      best = a;
    }
  }
  EXPECT_EQ(traj.best_arch(), best);
  EXPECT_THROW(SearchTrajectory{}.best_value(), Error);
}

TEST(RandomSearchNasTest, BudgetRespectedAndValid) {
  RandomSearchNas optimizer;
  Rng rng(3);
  const auto traj = optimizer.run(synthetic_objective, 100, rng);
  EXPECT_EQ(traj.size(), 100u);
  for (const auto& arch : traj.archs) sp().validate(arch);
  EXPECT_EQ(optimizer.name(), "RS");
}

TEST(RegularizedEvolutionTest, ImprovesOverRandomInit) {
  RegularizedEvolution optimizer;
  Rng rng(4);
  const auto traj = optimizer.run(synthetic_objective, 400, rng);
  // Mean of the last 50 evaluations should beat the first 50 (selection
  // pressure), not just the incumbent.
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 50; ++i) {
    early += traj.values[static_cast<std::size_t>(i)];
    late += traj.values[traj.values.size() - 1 - static_cast<std::size_t>(i)];
  }
  EXPECT_GT(late, early + 25.0);
}

TEST(RegularizedEvolutionTest, BeatsRandomSearch) {
  double re_total = 0.0, rs_total = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    RegularizedEvolution re;
    RandomSearchNas rs;
    Rng r1(seed + 10), r2(seed + 20);
    re_total += re.run(synthetic_objective, 300, r1).best_value();
    rs_total += rs.run(synthetic_objective, 300, r2).best_value();
  }
  EXPECT_GT(re_total, rs_total);
}

TEST(RegularizedEvolutionTest, SmallBudgetStillWorks) {
  RegularizedEvolutionParams params;
  params.population_size = 50;
  RegularizedEvolution optimizer(params);
  Rng rng(5);
  // Budget below the population size: seeds only.
  const auto traj = optimizer.run(synthetic_objective, 10, rng);
  EXPECT_EQ(traj.size(), 10u);
}

TEST(RegularizedEvolutionTest, ParamValidation) {
  RegularizedEvolutionParams params;
  params.population_size = 1;
  EXPECT_THROW(RegularizedEvolution{params}, Error);
  params.population_size = 10;
  params.sample_size = 11;
  EXPECT_THROW(RegularizedEvolution{params}, Error);
}

TEST(ReinforceTest, ConvergesTowardGoodRegion) {
  Reinforce optimizer;
  Rng rng(6);
  const auto traj = optimizer.run(synthetic_objective, 600, rng);
  double late = 0.0;
  for (int i = 0; i < 50; ++i)
    late += traj.values[traj.values.size() - 1 - static_cast<std::size_t>(i)];
  late /= 50.0;
  // Random sampling averages ~ (0.5 + 0.25 + 0.4 + 0.05) * 7 = 8.4.
  EXPECT_GT(late, 10.5);
  EXPECT_GT(traj.best_value(), 0.85 * kMaxObjective);
}

TEST(ReinforceTest, PolicySnapshotIsDistribution) {
  Reinforce optimizer;
  Rng rng(7);
  optimizer.run(synthetic_objective, 50, rng);
  const auto& policy = optimizer.last_policy();
  ASSERT_EQ(policy.size(), static_cast<std::size_t>(MnasSpace::kNumDecisions));
  for (const auto& p : policy) {
    double total = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(ReinforceTest, PolicyConcentratesOnBestOption) {
  // With a strong, clean signal the expansion heads should favor e=6.
  Reinforce optimizer;
  Rng rng(8);
  optimizer.run(synthetic_objective, 1500, rng);
  const auto& policy = optimizer.last_policy();
  int favored = 0;
  for (int b = 0; b < kNumBlocks; ++b) {
    const auto& expansion_head = policy[static_cast<std::size_t>(4 * b)];
    if (expansion_head[2] > 0.5) ++favored;  // option index 2 = e6
  }
  EXPECT_GE(favored, 5);
}

TEST(ReinforceTest, ParamValidation) {
  ReinforceParams params;
  params.learning_rate = 0.0;
  EXPECT_THROW(Reinforce{params}, Error);
  params.learning_rate = 0.1;
  params.baseline_decay = 1.0;
  EXPECT_THROW(Reinforce{params}, Error);
}

TEST(MnasnetRewardTest, ShapeAndDirections) {
  // Throughput above target is rewarded with w > 0.
  EXPECT_GT(mnasnet_reward(0.7, 2000.0, 1000.0, 0.07),
            mnasnet_reward(0.7, 500.0, 1000.0, 0.07));
  // Latency below target is rewarded with w < 0.
  EXPECT_GT(mnasnet_reward(0.7, 2.0, 4.0, -0.07),
            mnasnet_reward(0.7, 8.0, 4.0, -0.07));
  // At the target the reward is exactly the accuracy.
  EXPECT_DOUBLE_EQ(mnasnet_reward(0.7, 1000.0, 1000.0, 0.07), 0.7);
  EXPECT_THROW(mnasnet_reward(0.7, 0.0, 1.0, 0.07), Error);
}

TEST(OptimizersTest, CommonBudgetValidation) {
  Rng rng(9);
  RandomSearchNas rs;
  EXPECT_THROW(rs.run(synthetic_objective, 0, rng), Error);
  EXPECT_THROW(rs.run(nullptr, 10, rng), Error);
  RegularizedEvolution re;
  EXPECT_THROW(re.run(synthetic_objective, 0, rng), Error);
  Reinforce rf;
  EXPECT_THROW(rf.run(synthetic_objective, -1, rng), Error);
}

}  // namespace
}  // namespace anb
