#include "anb/nas/nsga2.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "anb/util/error.hpp"
#include "anb/util/pareto.hpp"

namespace anb {
namespace {

/// Synthetic conflicting objectives: "accuracy" rewards capacity,
/// "speed" rewards its absence — a clean trade-off with a wide front.
std::pair<double, double> conflicting_objectives(const Arch& genotype) {
  const auto blocks = MnasSpace::blocks(genotype);
  double capacity = 0.0;
  for (const auto& blk : blocks) {
    capacity += blk.expansion + 2.0 * blk.layers + (blk.se ? 1.5 : 0.0) +
                (blk.kernel == 5 ? 0.7 : 0.0);
  }
  return {capacity, 120.0 - capacity + 0.3 * blocks[0].layers};
}

TEST(Nsga2Test, RanksMatchDominationDefinition) {
  const std::vector<double> o1{1.0, 2.0, 3.0, 0.5, 2.5};
  const std::vector<double> o2{3.0, 2.0, 1.0, 0.5, 2.5};
  const auto ranks = Nsga2::non_dominated_ranks(o1, o2);
  // Points 0,1,2 and 4 are mutually non-dominated; 4 dominates 1; point 3 is
  // dominated by everything.
  EXPECT_EQ(ranks[0], 0);
  EXPECT_EQ(ranks[2], 0);
  EXPECT_EQ(ranks[4], 0);
  EXPECT_EQ(ranks[1], 1);  // dominated by (2.5, 2.5) only
  EXPECT_GT(ranks[3], 0);
}

TEST(Nsga2Test, CrowdingExtremesInfinite) {
  const std::vector<double> o1{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> o2{4.0, 3.0, 2.0, 1.0};
  const std::vector<std::size_t> front{0, 1, 2, 3};
  const auto crowding = Nsga2::crowding_distance(o1, o2, front);
  EXPECT_TRUE(std::isinf(crowding[0]));
  EXPECT_TRUE(std::isinf(crowding[3]));
  EXPECT_FALSE(std::isinf(crowding[1]));
  EXPECT_GT(crowding[1], 0.0);
}

TEST(Nsga2Test, TinyFrontsAllInfinite) {
  const std::vector<double> o1{1.0, 2.0};
  const std::vector<double> o2{2.0, 1.0};
  const std::vector<std::size_t> front{0, 1};
  for (double d : Nsga2::crowding_distance(o1, o2, front))
    EXPECT_TRUE(std::isinf(d));
}

TEST(Nsga2Test, BudgetRespectedAndFrontNonDominated) {
  Nsga2 optimizer;
  Rng rng(1);
  const Nsga2Result result = optimizer.run(conflicting_objectives, 300, rng);
  EXPECT_EQ(result.archs.size(), 300u);
  ASSERT_FALSE(result.front.empty());
  for (std::size_t i : result.front) {
    for (std::size_t j : result.front) {
      if (i == j) continue;
      const bool dominates = result.obj1[j] >= result.obj1[i] &&
                             result.obj2[j] >= result.obj2[i] &&
                             (result.obj1[j] > result.obj1[i] ||
                              result.obj2[j] > result.obj2[i]);
      EXPECT_FALSE(dominates);
    }
  }
}

TEST(Nsga2Test, BeatsRandomSamplingOnHypervolume) {
  Nsga2 optimizer;
  double nsga_hv = 0.0, random_hv = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng(seed + 10);
    const Nsga2Result result = optimizer.run(conflicting_objectives, 250, rng);
    auto hv_of = [](const std::vector<double>& o1, const std::vector<double>& o2,
                    const std::vector<std::size_t>& front) {
      std::vector<ParetoPoint> points;
      for (std::size_t idx : front) points.push_back({o1[idx], o2[idx], idx});
      return hypervolume_2d(points, 0.0, 0.0);
    };
    nsga_hv += hv_of(result.obj1, result.obj2, result.front);

    // Random baseline at the same budget.
    Rng rrng(seed + 20);
    std::vector<double> o1, o2;
    for (int i = 0; i < 250; ++i) {
      const auto [a, b] = conflicting_objectives(MnasSpace::instance().sample(rrng));
      o1.push_back(a);
      o2.push_back(b);
    }
    random_hv += hv_of(o1, o2, pareto_front(o1, o2));
  }
  EXPECT_GE(nsga_hv, random_hv);
}

TEST(Nsga2Test, FrontSpansTheTradeoff) {
  Nsga2 optimizer;
  Rng rng(5);
  const Nsga2Result result = optimizer.run(conflicting_objectives, 400, rng);
  double o1_min = 1e18, o1_max = -1e18;
  for (std::size_t idx : result.front) {
    o1_min = std::min(o1_min, result.obj1[idx]);
    o1_max = std::max(o1_max, result.obj1[idx]);
  }
  // Capacity objective ranges ~[24.7, 86.9] over the space; the front should
  // cover a wide slice, not collapse to a point.
  EXPECT_GT(o1_max - o1_min, 25.0);
}

TEST(Nsga2Test, Validation) {
  Nsga2Params params;
  params.population_size = 2;
  EXPECT_THROW(Nsga2{params}, Error);
  params.population_size = 10;
  params.mutation_prob = 2.0;
  EXPECT_THROW(Nsga2{params}, Error);
  Nsga2 ok;
  Rng rng(6);
  EXPECT_THROW(ok.run(conflicting_objectives, 10, rng), Error);  // < pop
  EXPECT_THROW(ok.run(nullptr, 100, rng), Error);
}

}  // namespace
}  // namespace anb
