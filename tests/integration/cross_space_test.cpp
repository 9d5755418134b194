// Cross-space mini-pipeline (tier-1): the space-generic stack — sampling,
// NAS optimizers, benchmark construction, artifact round-trip — run over
// BOTH registered spaces in one suite.
//
//  1. Golden trajectories per space: RS and RE with pinned seeds against a
//     space-generic objective built from exact binary fractions, compared
//     to committed first/last/checksum constants. Any drift in either
//     space's RNG discipline, index codec, or optimizer logic flips the
//     checksum (same playbook as tests/nas/golden_trajectory_test.cpp;
//     regenerate by pasting the "actual" strings from the failure output).
//  2. A reduced-scale construct_benchmark() per space: the artifact is
//     tagged with its space, survives a binary round-trip, and zero-cost
//     search over it stays inside the space and is run-to-run
//     bit-identical.
//  3. The SpaceSim contract per space: every make_space_sim output on six
//     sampled genotypes matches a committed table of exact bit patterns,
//     and every method rejects a genotype of the other space.
//  4. A simulator checksum per space: the bits of every value the pipeline
//     reads from the simulator (training run, reference accuracy, int8
//     drop, every lowered layer at two resolutions) over 256 genotypes,
//     folded into one pinned u64. It catches what six rows can miss, such
//     as a reordered floating-point sum in the latent quality.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "anb/anb/pipeline.hpp"
#include "anb/anb/space_sim.hpp"
#include "anb/fbnet/fbnet_space.hpp"
#include "anb/ir/model_ir.hpp"
#include "anb/nas/evolution.hpp"
#include "anb/nas/random_search.hpp"
#include "anb/util/error.hpp"

namespace anb {
namespace {

/// Exact-binary-fraction objective over the raw genotype bytes: every
/// space encodes decisions as small non-negative integers, so 0.25*d and
/// the 0.5 bonus are exact doubles in every space — bit-stable on any
/// platform, no training simulator involved.
double golden_objective(const Arch& arch) {
  double score = 0.0;
  for (int i = 0; i < arch.n; ++i) {
    const double d = arch.d[static_cast<std::size_t>(i)];
    score += 0.25 * d + (d == 0.0 ? 0.5 : 0.0);
  }
  return score;
}

class Checksum {
 public:
  explicit Checksum(const SearchSpace& sp) : sp_(sp) {}
  void add_arch(const Arch& arch) { mix(sp_.to_index(arch)); }
  void add_value(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(std::uint64_t x) { h_ = hash_combine(h_, x); }
  std::uint64_t value() const { return h_; }

 private:
  const SearchSpace& sp_;
  std::uint64_t h_ = 0x9E3779B97F4A7C15ULL;
};

std::string summarize(const SearchSpace& sp, const SearchTrajectory& t) {
  Checksum sum(sp);
  for (std::size_t i = 0; i < t.size(); ++i) {
    sum.add_arch(t.archs[i]);
    sum.add_value(t.values[i]);
    sum.add_value(t.incumbent[i]);
  }
  std::ostringstream os;
  os << "n=" << t.size() << " first=" << sp.to_index(t.archs.front()) << ":"
     << std::hexfloat << t.values.front() << std::defaultfloat
     << " last=" << sp.to_index(t.archs.back()) << ":" << std::hexfloat
     << t.values.back() << std::defaultfloat << " sum=0x" << std::hex
     << sum.value();
  return os.str();
}

std::string run_rs(const SearchSpace& sp) {
  RandomSearchNas rs(sp);
  Rng rng(4040);
  return summarize(sp, rs.run(golden_objective, 40, rng));
}

std::string run_re(const SearchSpace& sp) {
  RegularizedEvolutionParams p;
  p.population_size = 10;
  p.sample_size = 3;
  RegularizedEvolution re(p, sp);
  Rng rng(4041);
  return summarize(sp, re.run(golden_objective, 50, rng));
}

TEST(CrossSpaceGolden, MnasNetTrajectories) {
  const SearchSpace& sp = MnasSpace::instance();
  EXPECT_EQ(run_rs(sp), "n=40 first=71681540362:0x1.6p+3 last=41652534927:0x1.6p+3 sum=0x4c200ea8a26e1bea");
  EXPECT_EQ(run_re(sp), "n=50 first=16139128633:0x1.6p+3 last=56883205740:0x1.9p+3 sum=0xb2d32c8f21124df4");
}

TEST(CrossSpaceGolden, FbnetTrajectories) {
  const SearchSpace& sp = FbnetSpace::instance();
  EXPECT_EQ(run_rs(sp), "n=40 first=39320570880638577:0x1.2p+4 last=1278049113573621831:0x1.34p+4 sum=0xbe93d01679f2f4bd");
  EXPECT_EQ(run_re(sp), "n=50 first=136331817324263224:0x1.24p+4 last=843725492523596058:0x1.74p+4 sum=0x61386f68940f8e2a");
}

/// Reduced-scale end-to-end construction per space: the pipeline, cache,
/// artifact, and searcher all agree on what space they are in.
void mini_pipeline_roundtrip(SpaceId space) {
  register_builtin_spaces();
  const SearchSpace& sp = anb::space(space);

  PipelineOptions options;
  options.space = space;
  options.n_archs = 250;
  options.collect_perf = false;
  const PipelineResult result = construct_benchmark(options);
  EXPECT_EQ(result.bench.space(), space);
  EXPECT_TRUE(result.bench.has_accuracy());

  // Binary round-trip preserves the space tag and the predictions.
  const std::string path = ::testing::TempDir() + "/anb_cross_space_" +
                           std::string(sp.name()) + ".anbb";
  result.bench.save_binary(path);
  const AccelNASBench loaded = AccelNASBench::open(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.space(), space);
  Rng rng(17);
  for (int i = 0; i < 16; ++i) {
    const Arch probe = sp.sample(rng);
    EXPECT_DOUBLE_EQ(loaded.query_accuracy(probe),
                     result.bench.query_accuracy(probe));
  }

  // Zero-cost RE over the artifact: stays inside the space and is
  // bit-identical across two identical runs (the determinism half of the
  // acceptance contract, here without any server in the path).
  const auto search_once = [&] {
    RegularizedEvolution re({}, sp);
    Rng re_rng(99);
    return re.run(
        [&](const Arch& arch) { return loaded.query_accuracy(arch); }, 60,
        re_rng);
  };
  const SearchTrajectory a = search_once();
  const SearchTrajectory b = search_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(sp.is_valid(a.archs[i]));
    EXPECT_EQ(sp.to_index(a.archs[i]), sp.to_index(b.archs[i]));
    EXPECT_EQ(a.values[i], b.values[i]);  // exact doubles
  }
}

TEST(CrossSpacePipeline, MnasNetMiniPipelineRoundTrips) {
  mini_pipeline_roundtrip(SpaceId::kMnasNet);
}

TEST(CrossSpacePipeline, FbnetMiniPipelineRoundTrips) {
  mini_pipeline_roundtrip(SpaceId::kFbnet);
}

/// Every SpaceSim output on one sampled genotype, as exact bit patterns:
/// train (top1, gpu_hours) under p* with run seed `run_seed`, reference /
/// expected accuracy, training cost, int8 drop, and the 224 lowering's layer
/// count and GFLOPs.
std::string sim_row(const SpaceSim& sim, const Arch& arch,
                    std::uint64_t run_seed) {
  const TrainingScheme p = canonical_p_star();
  const TrainResult run = sim.train(arch, p, run_seed);
  const ModelIR ir = sim.lower(arch, 224);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::ostringstream os;
  os << std::hex << "top1=" << bits(run.top1) << " gpu=" << bits(run.gpu_hours)
     << " ref=" << bits(sim.reference_accuracy(arch))
     << " exp=" << bits(sim.expected_accuracy(arch, p))
     << " cost=" << bits(sim.training_cost_hours(arch, p))
     << " int8=" << bits(sim.int8_accuracy_drop(arch)) << std::dec
     << " layers=" << ir.layers.size() << std::hex
     << " gflops=" << bits(ir.gflops());
  return os.str();
}

/// Six genotypes per space (Rng(23) draws, run seeds 0..5) pinned bit for
/// bit; regenerate by pasting the "actual" strings from the failure output.
const std::map<SpaceId, std::vector<std::string>>& sim_golden() {
  static const std::map<SpaceId, std::vector<std::string>> kGolden = {
      {SpaceId::kMnasNet,
       {
           "top1=3fe4f33753e540cb gpu=3ffd4dfb27412db5 ref=3fe84150b7b50ea6 exp=3fe4e9019c482141 cost=3ffd4dfb27412db5 int8=3f7470bea0374efd layers=98 gflops=3fe5bfc4eb45cd83",
           "top1=3fe3fed476caf802 gpu=400b2ee780321f54 ref=3fe74271c39afefc exp=3fe408efb580e140 cost=400b2ee780321f54 int8=3f6609ca3c5f08c4 layers=64 gflops=3ff42cb6529e18c0",
           "top1=3fe3a70f01c7f927 gpu=3ffe2fbeb43820f1 ref=3fe6b75134ca575d exp=3fe3a88628f6be54 cost=3ffe2fbeb43820f1 int8=3f75e115b037e9d2 layers=62 gflops=3fe667533a2889a6",
           "top1=3fe35d096a126295 gpu=400161a8c161aa21 ref=3fe64156e75c12fe exp=3fe34773203db0ee cost=400161a8c161aa21 int8=3f75db7cacb54e60 layers=75 gflops=3fe9ccd5e4ac1a2d",
           "top1=3fe4212b5a6b6f51 gpu=3ffeba166bda339d ref=3fe752b4f4f96bfb exp=3fe42898e1234530 cost=3ffeba166bda339d int8=3f73feca4f696219 layers=86 gflops=3fe6cdffd2b3969b",
           "top1=3fe20747ef7f90e5 gpu=3fe6de6f67062a68 ref=3fe4ccf2ad97bc64 exp=3fe20620334af3f4 cost=3fe6de6f67062a68 int8=3f7581b2b3c667f3 layers=48 gflops=3fd0f9013bc7dfdc",
       }},
      {SpaceId::kFbnet,
       {
           "top1=3fe4f1d129a59c91 gpu=3ff79f3d70ae84da ref=3fe82c6e389841b6 exp=3fe4fe046f2e349b cost=3ff79f3d70ae84da int8=3f70624dd2f1a9fb layers=65 gflops=3fe18819721f8abd",
           "top1=3fe4a3c1d3705fde gpu=3ff59ca626546827 ref=3fe7e45d04f8e1da exp=3fe49f5a193e649d cost=3ff59ca626546827 int8=3f70624dd2f1a9fb layers=76 gflops=3fe00a2f0b8edd06",
           "top1=3fe58aff2b695736 gpu=3fff7d52b2e1bd29 ref=3fe8e14a4b6760de exp=3fe58deb17f17091 cost=3fff7d52b2e1bd29 int8=3f72d77318fc5047 layers=76 gflops=3fe75ee5d850526d",
           "top1=3fe51d5646d04561 gpu=3ff8b22ad80e3640 ref=3fe847774a859e00 exp=3fe524f951ac9699 cost=3ff8b22ad80e3640 int8=3f6b089a02752545 layers=72 gflops=3fe25424a300284d",
           "top1=3fe4e08124ba02d3 gpu=3ffa27148fa5e75a ref=3fe821dab2497c06 exp=3fe4ef0228cb09d2 cost=3ffa27148fa5e75a int8=3f6bda5119ce075f layers=66 gflops=3fe368e8bb8494bf",
           "top1=3fe522f7d71132e9 gpu=3ffa07b1845aa713 ref=3fe84322ebd0ad15 exp=3fe50e7501058784 cost=3ffa07b1845aa713 int8=3f70cb295e9e1b08 layers=69 gflops=3fe3519d569288d9",
       }},
  };
  return kGolden;
}

class SpaceSimContract : public ::testing::TestWithParam<SpaceId> {};

TEST_P(SpaceSimContract, MatchesGoldenAndRejectsOtherSpace) {
  const SpaceId id = GetParam();
  const auto sim = make_space_sim(id, 42);
  ASSERT_EQ(sim->space().id(), id);
  const std::vector<std::string>& golden = sim_golden().at(id);
  ASSERT_EQ(golden.size(), 6u);
  Rng rng(23);
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const Arch arch = sim->space().sample(rng);
    EXPECT_EQ(sim_row(*sim, arch, i), golden[i]) << "genotype " << i;
  }

  const SpaceId other =
      id == SpaceId::kMnasNet ? SpaceId::kFbnet : SpaceId::kMnasNet;
  Rng foreign_rng(29);
  const Arch foreign = anb::space(other).sample(foreign_rng);
  const TrainingScheme p = canonical_p_star();
  EXPECT_THROW(sim->train(foreign, p, 0), Error);
  EXPECT_THROW(sim->reference_accuracy(foreign), Error);
  EXPECT_THROW(sim->expected_accuracy(foreign, p), Error);
  EXPECT_THROW(sim->training_cost_hours(foreign, p), Error);
  EXPECT_THROW(sim->int8_accuracy_drop(foreign), Error);
  EXPECT_THROW(sim->lower(foreign, 224), Error);
}

/// Folds, for 256 genotypes (Rng(256) draws), the bits of: a training run
/// under the reference scheme (top1, gpu_hours), reference_accuracy,
/// int8_accuracy_drop, and every field of every layer of lower(arch, 224)
/// and lower(arch, 160) except its name.
std::uint64_t sim_checksum(const SpaceSim& sim) {
  Checksum sum(sim.space());
  Rng rng(256);
  for (int i = 0; i < 256; ++i) {
    const Arch arch = sim.space().sample(rng);
    const TrainResult run = sim.train(arch, reference_scheme(), 0);
    sum.add_value(run.top1);
    sum.add_value(run.gpu_hours);
    sum.add_value(sim.reference_accuracy(arch));
    sum.add_value(sim.int8_accuracy_drop(arch));
    for (const int resolution : {224, 160}) {
      const ModelIR ir = sim.lower(arch, resolution);
      sum.mix(ir.layers.size());
      for (const Layer& l : ir.layers) {
        sum.mix(static_cast<std::uint64_t>(l.kind));
        for (const int dim : {l.in_h, l.in_w, l.in_c, l.out_h, l.out_w,
                              l.out_c, l.kernel, l.stride})
          sum.mix(static_cast<std::uint64_t>(dim));
        for (const std::uint64_t count : {l.macs, l.params, l.input_elems,
                                          l.output_elems, l.weight_elems})
          sum.mix(count);
      }
    }
  }
  return sum.value();
}

TEST_P(SpaceSimContract, ChecksumOver256Genotypes) {
  // Regenerate by pasting the "actual" value from the failure output.
  const std::map<SpaceId, std::uint64_t> golden = {
      {SpaceId::kMnasNet, 0x47161fe75e27bdbfULL},
      {SpaceId::kFbnet, 0x58fa8d440be40dedULL},
  };
  const std::uint64_t actual = sim_checksum(*make_space_sim(GetParam(), 42));
  EXPECT_EQ(actual, golden.at(GetParam())) << "actual 0x" << std::hex
                                           << actual;
}

INSTANTIATE_TEST_SUITE_P(BothSpaces, SpaceSimContract,
                         ::testing::Values(SpaceId::kMnasNet, SpaceId::kFbnet),
                         [](const ::testing::TestParamInfo<SpaceId>& p) {
                           return std::string(space_name(p.param));
                         });

}  // namespace
}  // namespace anb
