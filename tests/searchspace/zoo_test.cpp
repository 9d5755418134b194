#include "anb/searchspace/zoo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>

#include "anb/anb/space_sim.hpp"
#include "anb/searchspace/space.hpp"

namespace anb {
namespace {

TEST(ZooTest, AllReferenceModelsAreInTheSpace) {
  const SearchSpace& sp = MnasSpace::instance();
  for (const auto& model : reference_zoo()) {
    EXPECT_TRUE(sp.is_valid(model.arch)) << model.name;
    EXPECT_FALSE(model.name.empty());
  }
}

TEST(ZooTest, ZooHasFourDistinctBaselines) {
  const SearchSpace& sp = MnasSpace::instance();
  const auto zoo = reference_zoo();
  EXPECT_EQ(zoo.size(), 4u);
  std::set<std::uint64_t> unique;
  std::set<std::string> names;
  for (const auto& model : zoo) {
    unique.insert(sp.to_index(model.arch));
    names.insert(model.name);
  }
  EXPECT_EQ(unique.size(), zoo.size());
  EXPECT_EQ(names.size(), zoo.size());
}

TEST(ZooTest, IndicesAndSeedHashesArePinned) {
  // The Fig. 6 baselines: their index addresses the benchmark, and their
  // seed hash seeds both the simulator's noise and the harness's
  // measurement of them, so neither may drift.
  struct Pin {
    const char* name;
    std::uint64_t index;
    std::uint64_t seed_hash;
  };
  const Pin pins[] = {
      {"effnet-b0", 3866196085ULL, 0x2404ea4eaa38107eULL},
      {"mobilenetv3-l", 886500283ULL, 0x2093ff201888f02fULL},
      {"effnet-edgetpu-s", 1620501504ULL, 0x5d61746ba61769b0ULL},
      {"mnasnet-a1", 1612094388ULL, 0x913c6d2cac91e992ULL},
  };
  const auto sim = make_space_sim(SpaceId::kMnasNet);
  const auto zoo = reference_zoo();
  ASSERT_EQ(zoo.size(), std::size(pins));
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    EXPECT_EQ(zoo[i].name, pins[i].name);
    EXPECT_EQ(MnasSpace::instance().to_index(zoo[i].arch), pins[i].index)
        << pins[i].name;
    EXPECT_EQ(sim->seed_hash(zoo[i].arch), pins[i].seed_hash) << pins[i].name;
  }
}

TEST(ZooTest, EffnetB0UsesSeEverywhere) {
  const auto blocks = MnasSpace::blocks(effnet_b0_like().arch);
  for (const auto& block : blocks) EXPECT_TRUE(block.se);
  EXPECT_EQ(blocks[0].expansion, 1);  // stage 1 is e=1 in B0
}

TEST(ZooTest, EdgeTpuVariantAvoidsSe) {
  // EfficientNet-EdgeTPU drops SE because DPU-style accelerators stall on
  // the global-pool side path — the motif Fig. 6 relies on.
  for (const auto& block : MnasSpace::blocks(effnet_edgetpu_s_like().arch))
    EXPECT_FALSE(block.se);
}

TEST(ZooTest, NamesAreStable) {
  EXPECT_EQ(effnet_b0_like().name, "effnet-b0");
  EXPECT_EQ(mobilenet_v3_like().name, "mobilenetv3-l");
  EXPECT_EQ(effnet_edgetpu_s_like().name, "effnet-edgetpu-s");
  EXPECT_EQ(mnasnet_a1_like().name, "mnasnet-a1");
}

}  // namespace
}  // namespace anb
