#include "anb/searchspace/space.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "anb/util/error.hpp"
#include "arch_test_util.hpp"

namespace anb {
namespace {

const SearchSpace& sp() { return MnasSpace::instance(); }

TEST(SearchSpaceTest, CardinalityMatchesPaper) {
  // (3 * 2 * 3 * 2)^7 = 36^7 ~ 7.8e10 ~ "roughly 10^11 unique models".
  EXPECT_EQ(sp().cardinality(), 78364164096ULL);
}

TEST(SearchSpaceTest, RegistryResolvesMnasNet) {
  EXPECT_EQ(&space(SpaceId::kMnasNet), &MnasSpace::instance());
  EXPECT_EQ(&space_from_name("mnasnet"), &MnasSpace::instance());
  EXPECT_THROW(space_from_name("MnasNet"), Error);  // exact-match contract
  EXPECT_THROW(space_from_name(""), Error);
  EXPECT_TRUE(space_registered(SpaceId::kMnasNet));
}

TEST(SearchSpaceTest, DecisionSizes) {
  const auto& sizes = sp().decision_sizes();
  ASSERT_EQ(sizes.size(), 28u);
  for (int b = 0; b < kNumBlocks; ++b) {
    EXPECT_EQ(sizes[static_cast<std::size_t>(4 * b)], 3);      // expansion
    EXPECT_EQ(sizes[static_cast<std::size_t>(4 * b + 1)], 2);  // kernel
    EXPECT_EQ(sizes[static_cast<std::size_t>(4 * b + 2)], 3);  // layers
    EXPECT_EQ(sizes[static_cast<std::size_t>(4 * b + 3)], 2);  // se
  }
}

TEST(SearchSpaceTest, ValidationAcceptsAllOptionCombos) {
  for (int e : MnasSpace::expansion_options())
    for (int k : MnasSpace::kernel_options())
      for (int L : MnasSpace::layer_options())
        for (bool se : {false, true}) {
          const Arch a = uniform_mnas(e, k, L, se);
          EXPECT_TRUE(sp().is_valid(a));
          for (const BlockConfig& blk : MnasSpace::blocks(a))
            EXPECT_EQ(blk, (BlockConfig{e, k, L, se}));
        }
}

TEST(SearchSpaceTest, ValidationRejectsBadOptions) {
  const std::string rest =
      "-e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0";
  EXPECT_NO_THROW(sp().arch_from_string("e1k3L1s0" + rest));
  EXPECT_THROW(sp().arch_from_string("e3k3L1s0" + rest), Error);
  EXPECT_THROW(sp().arch_from_string("e1k7L1s0" + rest), Error);
  EXPECT_THROW(sp().arch_from_string("e1k3L4s0" + rest), Error);
}

TEST(SearchSpaceTest, StringFormat) {
  const std::string s = sp().arch_to_string(uniform_mnas(6, 5, 3, true));
  EXPECT_EQ(s.substr(0, 8), "e6k5L3s1");
  // 7 groups separated by dashes.
  EXPECT_EQ(std::count(s.begin(), s.end(), '-'), 6);
}

TEST(SearchSpaceTest, StringRoundTrip) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Arch a = sp().sample(rng);
    EXPECT_EQ(sp().arch_from_string(sp().arch_to_string(a)), a);
  }
}

TEST(SearchSpaceTest, StringRejectsMalformed) {
  EXPECT_THROW(sp().arch_from_string(""), Error);
  EXPECT_THROW(sp().arch_from_string("e6k5L3s1"), Error);  // one block
  EXPECT_THROW(sp().arch_from_string("garbage-in-seven-pieces-x-y-z"), Error);
  // Eight blocks.
  const std::string eight =
      "e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0-"
      "e1k3L1s0";
  EXPECT_THROW(sp().arch_from_string(eight), Error);
  // Bad se flag.
  const std::string bad_se =
      "e1k3L1s2-e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0";
  EXPECT_THROW(sp().arch_from_string(bad_se), Error);
}

TEST(SearchSpaceTest, ValidationRejectsForeignGenotypes) {
  Rng rng(11);
  Arch a = sp().sample(rng);
  a.space = SpaceId::kFbnet;  // right bytes, wrong tag
  EXPECT_FALSE(sp().is_valid(a));
  EXPECT_THROW(sp().validate(a), Error);
  Arch b = sp().sample(rng);
  b.d[0] = 3;  // expansion option index out of range
  EXPECT_FALSE(sp().is_valid(b));
  Arch c = sp().sample(rng);
  c.d[static_cast<std::size_t>(c.n)] = 1;  // nonzero padding past n
  EXPECT_FALSE(sp().is_valid(c));
}

TEST(SearchSpaceTest, SampleIsValidAndVaried) {
  Rng rng(1);
  std::set<std::uint64_t> unique;
  for (int i = 0; i < 200; ++i) {
    const Arch a = sp().sample(rng);
    sp().validate(a);
    unique.insert(sp().to_index(a));
  }
  EXPECT_GT(unique.size(), 195u);  // collisions in 7.8e10 are ~impossible
}

TEST(SearchSpaceTest, SampleMarginalsRoughlyUniform) {
  Rng rng(2);
  int e_counts[3] = {0, 0, 0};
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    for (const auto& b : MnasSpace::blocks(sp().sample(rng))) {
      if (b.expansion == 1) ++e_counts[0];
      if (b.expansion == 4) ++e_counts[1];
      if (b.expansion == 6) ++e_counts[2];
    }
  }
  const double total = n * kNumBlocks;
  for (int c : e_counts) EXPECT_NEAR(c / total, 1.0 / 3.0, 0.01);
}

TEST(SearchSpaceTest, MutateChangesExactlyOneDecision) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const Arch a = sp().sample(rng);
    const Arch m = sp().mutate(a, rng);
    EXPECT_NE(a, m);
    int diffs = 0;
    for (int d = 0; d < sp().num_decisions(); ++d) {
      diffs += a.d[static_cast<std::size_t>(d)] !=
               m.d[static_cast<std::size_t>(d)];
    }
    EXPECT_EQ(diffs, 1);
    sp().validate(m);
  }
}

TEST(SearchSpaceTest, NeighborsCountAndDistance) {
  Rng rng(4);
  const Arch a = sp().sample(rng);
  const auto neighbors = sp().neighbors(a);
  // Sum over decisions of (options - 1) = 7 * (2 + 1 + 2 + 1) = 42.
  EXPECT_EQ(neighbors.size(), 42u);
  std::set<std::uint64_t> unique;
  for (const auto& n : neighbors) {
    EXPECT_NE(n, a);
    unique.insert(sp().to_index(n));
  }
  EXPECT_EQ(unique.size(), neighbors.size());
}

TEST(SearchSpaceTest, IndexRoundTripSamples) {
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const Arch a = sp().sample(rng);
    EXPECT_EQ(sp().from_index(sp().to_index(a)), a);
  }
}

TEST(SearchSpaceTest, IndexBoundsChecked) {
  EXPECT_NO_THROW(sp().from_index(0));
  EXPECT_NO_THROW(sp().from_index(sp().cardinality() - 1));
  EXPECT_THROW(sp().from_index(sp().cardinality()), Error);
}

TEST(SearchSpaceTest, DecisionsRoundTrip) {
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const Arch a = sp().sample(rng);
    std::vector<int> decisions;
    for (int d = 0; d < sp().num_decisions(); ++d)
      decisions.push_back(a.d[static_cast<std::size_t>(d)]);
    EXPECT_EQ(sp().from_decisions(decisions), a);
  }
}

TEST(SearchSpaceTest, FromDecisionsValidatesShape) {
  EXPECT_THROW(sp().from_decisions({0, 1, 2}), Error);
  std::vector<int> decisions(28, 0);
  decisions[0] = 5;  // expansion index out of range
  EXPECT_THROW(sp().from_decisions(decisions), Error);
  decisions[0] = -1;
  EXPECT_THROW(sp().from_decisions(decisions), Error);
}

TEST(SearchSpaceTest, BlocksDecodeTheDecisionLayout) {
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    const Arch a = sp().sample(rng);
    const auto blocks = MnasSpace::blocks(a);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const auto option = [&](std::size_t field) {
        return static_cast<std::size_t>(a.d[4 * b + field]);
      };
      EXPECT_EQ(blocks[b].expansion, MnasSpace::expansion_options()[option(0)]);
      EXPECT_EQ(blocks[b].kernel, MnasSpace::kernel_options()[option(1)]);
      EXPECT_EQ(blocks[b].layers, MnasSpace::layer_options()[option(2)]);
      EXPECT_EQ(blocks[b].se, option(3) == 1);
    }
  }
  Arch foreign = sp().sample(rng);
  foreign.space = SpaceId::kFbnet;
  EXPECT_THROW(MnasSpace::blocks(foreign), Error);
}

TEST(SearchSpaceTest, FeaturesOneHotStructure) {
  EXPECT_EQ(sp().feature_dim(), 63);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const Arch a = sp().sample(rng);
    const auto f = sp().features(a);
    ASSERT_EQ(f.size(), 63u);
    for (int b = 0; b < kNumBlocks; ++b) {
      const std::size_t base = static_cast<std::size_t>(b) * 9;
      // Expansion one-hot sums to 1, kernel to 1, layers to 1.
      EXPECT_DOUBLE_EQ(f[base] + f[base + 1] + f[base + 2], 1.0);
      EXPECT_DOUBLE_EQ(f[base + 3] + f[base + 4], 1.0);
      EXPECT_DOUBLE_EQ(f[base + 5] + f[base + 6] + f[base + 7], 1.0);
      EXPECT_TRUE(f[base + 8] == 0.0 || f[base + 8] == 1.0);
    }
  }
}

TEST(SearchSpaceTest, FeaturesInjective) {
  Rng rng(8);
  const Arch a = sp().sample(rng);
  const Arch b = sp().mutate(a, rng);
  EXPECT_NE(sp().features(a), sp().features(b));
}

// Index bijection property over random raw indices (not just sampled archs).
class IndexBijection : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexBijection, RoundTripsFromRawIndex) {
  // Map the parameter into the index range deterministically.
  std::uint64_t state = GetParam() + 12345;
  const std::uint64_t index = splitmix64(state) % sp().cardinality();
  const Arch a = sp().from_index(index);
  sp().validate(a);
  EXPECT_EQ(sp().to_index(a), index);
}

INSTANTIATE_TEST_SUITE_P(RandomIndices, IndexBijection,
                         ::testing::Range<std::uint64_t>(0, 50));

}  // namespace
}  // namespace anb
