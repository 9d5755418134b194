#include "anb/anb/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>

#include "anb/util/error.hpp"
#include "anb/util/io.hpp"

namespace anb {
namespace {

TEST(PipelineTest, CanonicalPStarIsValidAndCheap) {
  const TrainingScheme p = canonical_p_star();
  EXPECT_NO_THROW(p.validate());
  const auto sim = make_space_sim(SpaceId::kMnasNet, 42);
  Rng rng(1);
  const Arch arch = sim->space().sample(rng);
  const double proxy_cost = sim->training_cost_hours(arch, p);
  const double ref_cost = sim->training_cost_hours(arch, reference_scheme());
  EXPECT_GT(ref_cost / proxy_cost, 4.0);
  EXPECT_LT(ref_cost / proxy_cost, 12.0);
}

TEST(PipelineTest, EnergyOptionAddsSurrogatesAndMetrics) {
  PipelineOptions options;
  options.n_archs = 250;
  options.collect_energy = true;
  const PipelineResult result = construct_benchmark(options);
  // 1 acc + 6 thr + 2 lat + 6 enr = 15 datasets.
  EXPECT_EQ(result.test_metrics.size(), 15u);
  EXPECT_TRUE(
      result.bench.has_perf(MetricKey{DeviceKind::kA100, PerfMetric::kEnergy}));
  Rng rng(2);
  const Arch arch = MnasSpace::instance().sample(rng);
  EXPECT_GT(result.bench.query_perf(arch, MetricKey{DeviceKind::kZcu102, PerfMetric::kEnergy}),
            0.0);
}

TEST(PipelineTest, DeterministicAcrossRuns) {
  PipelineOptions options;
  options.n_archs = 200;
  options.collect_perf = false;
  const PipelineResult a = construct_benchmark(options);
  const PipelineResult b = construct_benchmark(options);
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const Arch arch = MnasSpace::instance().sample(rng);
    EXPECT_DOUBLE_EQ(a.bench.query_accuracy(arch),
                     b.bench.query_accuracy(arch));
  }
  EXPECT_DOUBLE_EQ(a.test_metrics.at("ANB-Acc").kendall_tau,
                   b.test_metrics.at("ANB-Acc").kendall_tau);
}

TEST(PipelineTest, SameSeedArtifactsAreByteIdentical) {
  // Every byte of the .anbb artifact is a function of the seeds: two
  // same-seed builds (surrogates fitted on worker threads) must save to
  // identical files, struct padding included.
  PipelineOptions options;
  options.n_archs = 250;
  const std::string path_a = ::testing::TempDir() + "pipeline_same_seed_a.anbb";
  const std::string path_b = ::testing::TempDir() + "pipeline_same_seed_b.anbb";
  construct_benchmark(options).bench.save_binary(path_a);
  construct_benchmark(options).bench.save_binary(path_b);
  const auto a = io::Buffer::read_file(path_a);
  const auto b = io::Buffer::read_file(path_b);
  ASSERT_EQ(a->size(), b->size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a->size(); ++i)
    differing += a->data()[i] != b->data()[i] ? 1 : 0;
  EXPECT_EQ(differing, 0u) << "of " << a->size() << " bytes";
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(PipelineTest, WorldSeedChangesBenchmark) {
  PipelineOptions a_options, b_options;
  a_options.n_archs = b_options.n_archs = 200;
  a_options.collect_perf = b_options.collect_perf = false;
  b_options.world_seed = 43;
  const PipelineResult a = construct_benchmark(a_options);
  const PipelineResult b = construct_benchmark(b_options);
  Rng rng(4);
  int diffs = 0;
  for (int i = 0; i < 10; ++i) {
    const Arch arch = MnasSpace::instance().sample(rng);
    diffs += a.bench.query_accuracy(arch) != b.bench.query_accuracy(arch);
  }
  EXPECT_GT(diffs, 5);
}

TEST(PipelineTest, TunedPipelineRunsEndToEnd) {
  PipelineOptions options;
  options.n_archs = 260;
  options.collect_perf = false;
  options.tune = true;
  options.tuning.n_trials = 4;
  options.tuning.tuning_subsample = 150;
  const PipelineResult result = construct_benchmark(options);
  EXPECT_GT(result.test_metrics.at("ANB-Acc").kendall_tau, 0.5);
}

TEST(PipelineTest, SavedBenchmarkLoadsElsewhere) {
  PipelineOptions options;
  options.n_archs = 200;
  options.collect_perf = false;
  const PipelineResult result = construct_benchmark(options);
  const std::string path = ::testing::TempDir() + "/anb_pipe_bench.anbb";
  result.bench.save_binary(path);
  const AccelNASBench loaded = AccelNASBench::open(path);
  std::remove(path.c_str());
  EXPECT_TRUE(loaded.has_accuracy());
  // Files that are not a .anbb container are rejected cleanly.
  write_text_file(path, "{\"format\": \"accel-nasbench-v1\", \"perf\": 3}");
  EXPECT_THROW(AccelNASBench::open(path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace anb
