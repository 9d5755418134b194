#include "anb/anb/space_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "anb/fbnet/fbnet_space.hpp"
#include "anb/searchspace/zoo.hpp"
#include "anb/util/error.hpp"
#include "anb/util/metrics.hpp"
#include "anb/util/stats.hpp"

namespace anb {
namespace {

TrainingScheme proxy_scheme(int epochs, int res_finish) {
  TrainingScheme s;
  s.batch_size = 512;
  s.total_epochs = epochs;
  s.resize_start_epoch = 0;
  s.resize_finish_epoch = 0;
  s.res_start = res_finish;
  s.res_finish = res_finish;
  return s;
}

// ---- Behaviour every space's simulator shares -----------------------------

class SpaceSimTest : public ::testing::TestWithParam<SpaceId> {
 protected:
  Arch sample() { return sim_->space().sample(rng_); }

  std::unique_ptr<SpaceSim> sim_ = make_space_sim(GetParam(), 42);
  Rng rng_{7};
};

TEST_P(SpaceSimTest, DeterministicAcrossInstances) {
  const auto other = make_space_sim(GetParam(), 42);
  const Arch a = sample();
  const auto r1 = sim_->train(a, reference_scheme(), 3);
  const auto r2 = other->train(a, reference_scheme(), 3);
  EXPECT_DOUBLE_EQ(r1.top1, r2.top1);
  EXPECT_DOUBLE_EQ(r1.gpu_hours, r2.gpu_hours);
}

TEST_P(SpaceSimTest, WorldSeedChangesLandscape) {
  // Latent quality differs between worlds for at least some architectures.
  for (const std::uint64_t world : {43, 99}) {
    const auto other = make_space_sim(GetParam(), world);
    int diffs = 0;
    for (int i = 0; i < 20; ++i) {
      const Arch a = sample();
      diffs +=
          std::abs(sim_->latent_quality(a) - other->latent_quality(a)) > 1e-6;
    }
    EXPECT_GT(diffs, 15) << "world " << world;
  }
}

TEST_P(SpaceSimTest, MoreEpochsMeansHigherAccuracy) {
  for (int i = 0; i < 10; ++i) {
    const Arch a = sample();
    const double a10 = sim_->expected_accuracy(a, proxy_scheme(10, 224));
    const double a15 = sim_->expected_accuracy(a, proxy_scheme(15, 224));
    const double a50 = sim_->expected_accuracy(a, proxy_scheme(50, 224));
    const double a60 = sim_->expected_accuracy(a, proxy_scheme(60, 224));
    const double a200 = sim_->expected_accuracy(a, proxy_scheme(200, 224));
    EXPECT_LT(a10, a50);
    EXPECT_LT(a50, a200);
    EXPECT_LT(a15, a60);
  }
}

TEST_P(SpaceSimTest, AccuracyNonDecreasingInEpochs) {
  // Property: accuracy monotone in epochs for many random architectures.
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 500);
    const Arch a = sim_->space().sample(rng);
    double prev = 0.0;
    for (int epochs : {10, 15, 20, 30, 50, 100, 200}) {
      const double acc = sim_->expected_accuracy(a, proxy_scheme(epochs, 224));
      EXPECT_GE(acc + 1e-12, prev) << "seed=" << seed << " epochs=" << epochs;
      prev = acc;
    }
  }
}

TEST_P(SpaceSimTest, ProxyPreservesRankingsApproximately) {
  // The central premise (Eq. 1), and the generalizability claim: a sane
  // proxy keeps tau high in every space.
  std::vector<double> ref, prox;
  for (int i = 0; i < 150; ++i) {
    const Arch a = sample();
    ref.push_back(sim_->train(a, reference_scheme(), 0).top1);
    prox.push_back(sim_->train(a, proxy_scheme(30, 224), 0).top1);
  }
  EXPECT_GT(kendall_tau(ref, prox), 0.85);
}

TEST_P(SpaceSimTest, TrainingCostScalesWithEpochsAndResolution) {
  const Arch a = sample();
  const double c10 = sim_->training_cost_hours(a, proxy_scheme(10, 224));
  const double c20 = sim_->training_cost_hours(a, proxy_scheme(20, 224));
  EXPECT_NEAR(c20 / c10, 2.0, 1e-9);
  const double c160 = sim_->training_cost_hours(a, proxy_scheme(10, 160));
  EXPECT_NEAR(c10 / c160, (224.0 * 224.0) / (160.0 * 160.0), 1e-9);
}

TEST_P(SpaceSimTest, TraitsInRange) {
  for (int i = 0; i < 30; ++i) {
    const ArchTraits traits = sim_->traits(sample());
    EXPECT_GE(traits.size_factor, 0.0);
    EXPECT_LE(traits.size_factor, 1.0);
    EXPECT_GE(traits.depth_norm, 0.0);
    EXPECT_LE(traits.depth_norm, 1.0);
    EXPECT_GE(traits.expand_norm, 0.0);
    EXPECT_LE(traits.expand_norm, 1.0);
    EXPECT_GT(traits.macs_224, 1e7);
  }
}

TEST_P(SpaceSimTest, InvalidInputsThrow) {
  // One decision past its option count, in every method.
  Arch bad = sample();
  bad.d[1] = static_cast<std::int8_t>(sim_->space().decision_sizes()[1]);
  const TrainingScheme p = proxy_scheme(10, 224);
  EXPECT_THROW(sim_->latent_quality(bad), Error);
  EXPECT_THROW(sim_->traits(bad), Error);
  EXPECT_THROW(sim_->train(bad, p, 0), Error);
  EXPECT_THROW(sim_->reference_accuracy(bad), Error);
  EXPECT_THROW(sim_->expected_accuracy(bad, p), Error);
  EXPECT_THROW(sim_->training_cost_hours(bad, p), Error);
  EXPECT_THROW(sim_->int8_accuracy_drop(bad), Error);
  EXPECT_THROW(sim_->lower(bad, 224), Error);

  TrainingScheme s = proxy_scheme(10, 224);
  s.resize_finish_epoch = 20;  // > total
  EXPECT_THROW(sim_->train(sample(), s, 0), Error);
}

INSTANTIATE_TEST_SUITE_P(BothSpaces, SpaceSimTest,
                         ::testing::Values(SpaceId::kMnasNet, SpaceId::kFbnet),
                         [](const ::testing::TestParamInfo<SpaceId>& p) {
                           return std::string(space_name(p.param));
                         });

// ---- MnasNet-specific checks ---------------------------------------------

Arch uniform_blocks(const BlockConfig& block) {
  Architecture arch;
  for (auto& b : arch.blocks) b = block;
  return MnasSpace::from_blocks(arch);
}

class MnasSimTest : public ::testing::Test {
 protected:
  Arch sample() { return MnasSpace::instance().sample(rng_); }

  std::unique_ptr<SpaceSim> sim_ = make_space_sim(SpaceId::kMnasNet, 42);
  Rng rng_{7};
};

TEST_F(MnasSimTest, SeedNoiseIsSmallAndZeroMeanIsh) {
  const Arch a = sample();
  const double expected = sim_->expected_accuracy(a, reference_scheme());
  std::vector<double> runs;
  for (int s = 0; s < 40; ++s)
    runs.push_back(sim_->train(a, reference_scheme(), s).top1);
  EXPECT_NEAR(mean(runs), expected, 0.002);
  EXPECT_LT(stddev(runs), 0.006);
  EXPECT_GT(stddev(runs), 0.0002);
}

TEST_F(MnasSimTest, HigherResolutionMeansHigherAccuracy) {
  for (int i = 0; i < 10; ++i) {
    const Arch a = sample();
    EXPECT_LT(sim_->expected_accuracy(a, proxy_scheme(30, 160)),
              sim_->expected_accuracy(a, proxy_scheme(30, 224)));
  }
}

TEST_F(MnasSimTest, HugeBatchCostsAccuracy) {
  const Arch a = sample();
  auto big = proxy_scheme(30, 224);
  big.batch_size = 4096;
  EXPECT_LT(sim_->expected_accuracy(a, big),
            sim_->expected_accuracy(a, proxy_scheme(30, 224)));
}

TEST_F(MnasSimTest, AccuracyInValidRange) {
  for (int i = 0; i < 50; ++i) {
    const double acc = sim_->train(sample(), proxy_scheme(10, 160), i).top1;
    EXPECT_GT(acc, 0.0);
    EXPECT_LT(acc, 1.0);
  }
}

TEST_F(MnasSimTest, ReferenceAccuracyRealisticRange) {
  // ImageNet top-1 for this space: roughly 55-80%.
  for (int i = 0; i < 100; ++i) {
    const double acc = sim_->reference_accuracy(sample());
    EXPECT_GT(acc, 0.50);
    EXPECT_LT(acc, 0.85);
  }
  EXPECT_GT(
      sim_->reference_accuracy(MnasSpace::from_blocks(effnet_b0_like().arch)),
      0.74);
}

TEST_F(MnasSimTest, CapacityImprovesQuality) {
  const Arch small = uniform_blocks({1, 3, 1, false});
  const Arch big = uniform_blocks({6, 5, 3, true});
  EXPECT_GT(sim_->latent_quality(big), sim_->latent_quality(small) + 1.0);
  EXPECT_GT(sim_->reference_accuracy(big), sim_->reference_accuracy(small));
}

TEST_F(MnasSimTest, ProgressiveResizingSavesTime) {
  const Arch a = sample();
  TrainingScheme ramp = proxy_scheme(30, 224);
  ramp.res_start = 128;
  ramp.resize_finish_epoch = 20;
  EXPECT_LT(sim_->training_cost_hours(a, ramp),
            sim_->training_cost_hours(a, proxy_scheme(30, 224)));
}

TEST_F(MnasSimTest, ReferenceCostRealistic) {
  // Paper-scale: a mid-size model costs tens of GPU-hours under r and the
  // ~5.6-7x cheaper proxy lands near 3 GPU-hours.
  const double ref = sim_->training_cost_hours(
      MnasSpace::from_blocks(effnet_b0_like().arch), reference_scheme());
  EXPECT_GT(ref, 8.0);
  EXPECT_LT(ref, 60.0);
}

TEST_F(MnasSimTest, BiggerModelsCostMore) {
  const Arch small = uniform_blocks({1, 3, 1, false});
  const Arch big = uniform_blocks({6, 5, 3, true});
  EXPECT_GT(sim_->training_cost_hours(big, reference_scheme()),
            2.0 * sim_->training_cost_hours(small, reference_scheme()));
}

TEST_F(MnasSimTest, AggressiveProxyDegradesRankings) {
  std::vector<double> ref, gentle, harsh;
  for (int i = 0; i < 150; ++i) {
    const Arch a = sample();
    ref.push_back(sim_->expected_accuracy(a, reference_scheme()));
    gentle.push_back(sim_->train(a, proxy_scheme(50, 224), 0).top1);
    harsh.push_back(sim_->train(a, proxy_scheme(10, 160), 0).top1);
  }
  EXPECT_GT(kendall_tau(ref, gentle), kendall_tau(ref, harsh));
}

TEST_F(MnasSimTest, Int8DropSmallAndStructured) {
  const double d_no_se = sim_->int8_accuracy_drop(uniform_blocks({6, 3, 3, false}));
  const double d_all_se = sim_->int8_accuracy_drop(uniform_blocks({6, 3, 3, true}));
  EXPECT_GT(d_all_se, d_no_se);  // SE gates quantize poorly
  for (int i = 0; i < 30; ++i) {
    const double d = sim_->int8_accuracy_drop(sample());
    EXPECT_GT(d, 0.0);
    EXPECT_LT(d, 0.02);  // PTQ on convnets: well under 2 points
  }
}

TEST_F(MnasSimTest, Int8DropLargerForSmallModels) {
  EXPECT_GT(sim_->int8_accuracy_drop(uniform_blocks({1, 3, 1, false})),
            sim_->int8_accuracy_drop(uniform_blocks({6, 5, 3, false})));
}

// ---- FBNet-specific checks -----------------------------------------------

/// All-e6k5 (largest) and skip-where-legal-else-e1k3 (smallest) genotypes.
Arch fbnet_big() {
  FbnetArchitecture big;
  for (auto& o : big.ops) o = FbnetOp::kE6K5;
  return FbnetSpace::from_ops(big);
}

Arch fbnet_small() {
  FbnetArchitecture small;
  for (int i = 0; i < kFbnetNumLayers; ++i) {
    small.ops[static_cast<std::size_t>(i)] =
        FbnetSpace::slots()[static_cast<std::size_t>(i)].skip_allowed
            ? FbnetOp::kSkip
            : FbnetOp::kE1K3;
  }
  return FbnetSpace::from_ops(small);
}

class FbnetSimTest : public ::testing::Test {
 protected:
  std::unique_ptr<SpaceSim> sim_ = make_space_sim(SpaceId::kFbnet, 42);
  Rng rng_{7};
};

TEST_F(FbnetSimTest, AccuracyRangeRealistic) {
  std::vector<double> accs;
  for (int i = 0; i < 150; ++i)
    accs.push_back(
        sim_->reference_accuracy(FbnetSpace::instance().sample(rng_)));
  EXPECT_GT(min_value(accs), 0.45);
  EXPECT_LT(max_value(accs), 0.85);
  EXPECT_GT(stddev(accs), 0.015);  // meaningful spread for ranking studies
}

TEST_F(FbnetSimTest, CapacityImprovesQuality) {
  EXPECT_GT(sim_->latent_quality(fbnet_big()),
            sim_->latent_quality(fbnet_small()) + 1.0);
  EXPECT_GT(sim_->reference_accuracy(fbnet_big()),
            sim_->reference_accuracy(fbnet_small()));
}

TEST_F(FbnetSimTest, CostScalesWithSize) {
  EXPECT_GT(sim_->training_cost_hours(fbnet_big(), reference_scheme()),
            2.0 * sim_->training_cost_hours(fbnet_small(), reference_scheme()));
}

}  // namespace
}  // namespace anb
