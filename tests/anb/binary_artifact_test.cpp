// The differential contract of the .anbb binary artifact: a benchmark
// loaded through a heap read and through an mmap of the file must produce
// predictions *bit-identical* to the benchmark that was saved, for every
// surrogate family and every MetricKey, on the scalar and the batched
// query paths. Plus the format-level rejection guarantees
// (version/checksum mismatch) and save→load→save byte-stability.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "anb/anb/benchmark.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/surrogate/ensemble.hpp"
#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/hist_gbdt.hpp"
#include "anb/surrogate/random_forest.hpp"
#include "anb/surrogate/svr.hpp"
#include "anb/util/binary.hpp"
#include "anb/util/error.hpp"
#include "anb/util/fault.hpp"
#include "anb/util/io.hpp"

namespace anb {
namespace {

std::string scratch(const std::string& name) {
  return ::testing::TempDir() + name;
}

Dataset make_dataset(int n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(static_cast<std::size_t>(MnasSpace::instance().feature_dim()));
  for (int i = 0; i < n; ++i) {
    const Arch arch = MnasSpace::instance().sample(rng);
    const std::vector<double> x = MnasSpace::instance().features(arch);
    double y = 0.0;
    for (std::size_t k = 0; k < x.size(); ++k)
      y += x[k] * (k % 3 == 0 ? 0.5 : -0.25);
    ds.add(x, y + rng.uniform() * 0.01);
  }
  return ds;
}

/// A benchmark exercising every surrogate family: ensemble accuracy
/// (so noisy/dist queries work) + one perf surrogate per family.
AccelNASBench make_full_benchmark() {
  const Dataset train = make_dataset(120, 21);
  const auto fitted = [&](std::unique_ptr<Surrogate> model) {
    Rng fit_rng(22);
    model->fit(train, fit_rng);
    return model;
  };
  GbdtParams gp;
  gp.n_estimators = 6;
  HistGbdtParams hp;
  hp.n_estimators = 6;
  RandomForestParams fp;
  fp.n_trees = 6;
  SvrParams ep;
  ep.kind = SvrKind::kEpsilon;
  ep.gamma = 0.25;
  SvrParams np;
  np.kind = SvrKind::kNu;
  np.nu = 0.4;
  np.gamma = 0.25;

  AccelNASBench bench;
  bench.set_accuracy_surrogate(fitted(std::make_unique<EnsembleSurrogate>(
      [gp] { return std::make_unique<Gbdt>(gp); }, /*size=*/3)));
  bench.set_perf_surrogate(
      MetricKey{DeviceKind::kA100, PerfMetric::kThroughput},
      fitted(std::make_unique<Gbdt>(gp)));
  bench.set_perf_surrogate(
      MetricKey{DeviceKind::kZcu102, PerfMetric::kThroughput},
      fitted(std::make_unique<HistGbdt>(hp)));
  bench.set_perf_surrogate(
      MetricKey{DeviceKind::kZcu102, PerfMetric::kLatency},
      fitted(std::make_unique<RandomForest>(fp)));
  bench.set_perf_surrogate(
      MetricKey{DeviceKind::kVck190, PerfMetric::kThroughput},
      fitted(std::make_unique<Svr>(ep)));
  bench.set_perf_surrogate(
      MetricKey{DeviceKind::kVck190, PerfMetric::kLatency},
      fitted(std::make_unique<Svr>(np)));
  return bench;
}

std::vector<Arch> make_probes(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Arch> archs;
  archs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) archs.push_back(MnasSpace::instance().sample(rng));
  return archs;
}

/// Bit-identity across two loaded benchmarks on every query path. Uses
/// EXPECT_EQ on doubles deliberately: the contract is exact bits, not
/// tolerance.
void expect_identical(const AccelNASBench& a, const AccelNASBench& b,
                      const std::string& what) {
  const std::vector<Arch> probes = make_probes(40, 23);
  ASSERT_EQ(a.perf_targets(), b.perf_targets()) << what;
  for (const Arch& arch : probes) {
    EXPECT_EQ(a.query_accuracy(arch), b.query_accuracy(arch)) << what;
    const auto [mean_a, std_a] = a.query_accuracy_dist(arch);
    const auto [mean_b, std_b] = b.query_accuracy_dist(arch);
    EXPECT_EQ(mean_a, mean_b) << what;
    EXPECT_EQ(std_a, std_b) << what;
    for (const MetricKey key : a.perf_targets())
      EXPECT_EQ(a.query_perf(arch, key), b.query_perf(arch, key))
          << what << " " << dataset_name(key);
  }
  EXPECT_EQ(a.query_accuracy_batch(probes), b.query_accuracy_batch(probes))
      << what;
  for (const MetricKey key : a.perf_targets())
    EXPECT_EQ(a.query_perf_batch(probes, key),
              b.query_perf_batch(probes, key))
        << what << " batch " << dataset_name(key);
  // Noisy queries draw from the same distribution state: identical seeds
  // must give identical draws.
  Rng noise_a(31), noise_b(31);
  for (const Arch& arch : probes)
    EXPECT_EQ(a.query_accuracy_noisy(arch, noise_a),
              b.query_accuracy_noisy(arch, noise_b))
        << what;
}

class BinaryArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    anbb_path_ = scratch("binary_artifact.anbb");
    bench_ = make_full_benchmark();
    bench_.save_binary(anbb_path_);
  }

  AccelNASBench bench_;
  std::string anbb_path_;
};

TEST_F(BinaryArtifactTest, BothLoadModesMatchTheSavedBenchmark) {
  const AccelNASBench heap = AccelNASBench::open(anbb_path_, io::MapMode::kCopy);
  const AccelNASBench mapped =
      AccelNASBench::open(anbb_path_, io::MapMode::kMap);
  expect_identical(bench_, heap, "saved vs binary(heap)");
  expect_identical(bench_, mapped, "saved vs binary(mmap)");
  expect_identical(heap, mapped, "binary(heap) vs binary(mmap)");
}

TEST_F(BinaryArtifactTest, SaveLoadSaveIsByteStable) {
  const AccelNASBench reloaded = AccelNASBench::open(anbb_path_);
  const std::string again = scratch("binary_artifact_again.anbb");
  reloaded.save_binary(again);
  const auto first = io::Buffer::read_file(anbb_path_);
  const auto second = io::Buffer::read_file(again);
  ASSERT_EQ(first->size(), second->size());
  EXPECT_EQ(std::memcmp(first->data(), second->data(), first->size()), 0);
}

TEST_F(BinaryArtifactTest, MappedBenchmarkSurvivesUnlink) {
  const AccelNASBench mapped =
      AccelNASBench::open(anbb_path_, io::MapMode::kMap);
  ASSERT_EQ(std::remove(anbb_path_.c_str()), 0);
  const std::vector<Arch> probes = make_probes(5, 29);
  for (const Arch& arch : probes)
    EXPECT_TRUE(std::isfinite(mapped.query_accuracy(arch)));
}

TEST_F(BinaryArtifactTest, VersionMismatchRejected) {
  auto image = io::Buffer::read_file(anbb_path_);
  std::vector<char> bytes(image->data(), image->data() + image->size());
  std::uint32_t bumped = bin::kFormatVersion + 1;
  std::memcpy(bytes.data() + 12, &bumped, sizeof(bumped));
  // Keep the checksum honest so the *version* check is what rejects.
  std::uint64_t zero = 0;
  std::memcpy(bytes.data() + bin::kChecksumOffset, &zero, sizeof(zero));
  const std::uint64_t sum = bin::checksum64(bytes);
  std::memcpy(bytes.data() + bin::kChecksumOffset, &sum, sizeof(sum));
  const std::string path = scratch("binary_artifact_version.anbb");
  io::write_file(path, bytes);
  try {
    AccelNASBench::open(path);
    ADD_FAILURE() << "future-version artifact loaded";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("version"), std::string::npos) << msg;
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
  }
}

TEST_F(BinaryArtifactTest, ChecksumMismatchRejected) {
  auto image = io::Buffer::read_file(anbb_path_);
  std::vector<char> bytes(image->data(), image->data() + image->size());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  const std::string path = scratch("binary_artifact_checksum.anbb");
  io::write_file(path, bytes);
  for (const io::MapMode mode : {io::MapMode::kCopy, io::MapMode::kMap}) {
    try {
      AccelNASBench::open(path, mode);
      ADD_FAILURE() << "bit-flipped artifact loaded";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("checksum"), std::string::npos) << msg;
      EXPECT_NE(msg.find(path), std::string::npos) << msg;
    }
  }
}

TEST_F(BinaryArtifactTest, FaultSitesCoverTheBinaryPaths) {
  // The save/load fault sites fire on the artifact paths — a short write
  // leaves a file open rejects, and a short read rejects an intact file.
  const std::string path = scratch("binary_artifact_fault.anbb");
  {
    fault::ScopedFault guard(kBenchmarkSaveFaultSite,
                             fault::Policy::one_shot());
    EXPECT_THROW(bench_.save_binary(path), Error);
  }
  // The truncated container on disk must never load as a valid benchmark,
  // and a later fault-free save repairs the file in place.
  EXPECT_THROW(AccelNASBench::open(path), Error);
  bench_.save_binary(path);
  EXPECT_TRUE(AccelNASBench::open(path).has_accuracy());

  {
    fault::ScopedFault guard(kBenchmarkLoadFaultSite, fault::Policy::always());
    EXPECT_THROW(AccelNASBench::open(anbb_path_, io::MapMode::kCopy), Error);
    EXPECT_THROW(AccelNASBench::open(anbb_path_, io::MapMode::kMap), Error);
  }
  // The fault was in the (simulated) read, not the file: clean loads work.
  EXPECT_TRUE(AccelNASBench::open(anbb_path_).has_accuracy());
}

}  // namespace
}  // namespace anb
