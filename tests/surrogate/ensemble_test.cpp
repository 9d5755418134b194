#include "anb/surrogate/ensemble.hpp"

#include <gtest/gtest.h>

#include "anb/surrogate/hist_gbdt.hpp"
#include "anb/util/binary.hpp"
#include "anb/util/error.hpp"
#include "anb/util/stats.hpp"

namespace anb {
namespace {

Dataset noisy_dataset(int n, std::uint64_t seed) {
  Dataset ds(3);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform()};
    ds.add(x, 2.0 * x[0] - x[1] + 0.5 * x[2] + 0.05 * rng.normal());
  }
  return ds;
}

/// Save `model` into an in-memory .anbb image and load it back.
std::unique_ptr<Surrogate> binary_round_trip(const Surrogate& model) {
  bin::Writer w;
  const Json meta = model.to_binary(w);
  return surrogate_from_binary(meta,
                               bin::Reader(io::Buffer::from_bytes(w.finish())));
}

EnsembleSurrogate::Factory lgb_factory() {
  return [] {
    HistGbdtParams p;
    p.n_estimators = 80;
    return std::make_unique<HistGbdt>(p);
  };
}

TEST(EnsembleTest, FitsAndPredictsMean) {
  EnsembleSurrogate ensemble(lgb_factory(), 5);
  Rng rng(1);
  const Dataset train = noisy_dataset(500, 2);
  ensemble.fit(train, rng);
  EXPECT_EQ(ensemble.size(), 5u);
  const Dataset test = noisy_dataset(100, 3);
  EXPECT_GT(ensemble.evaluate(test).r2, 0.9);
}

TEST(EnsembleTest, MeanEqualsAverageOfMembers) {
  EnsembleSurrogate ensemble(lgb_factory(), 4);
  Rng rng(4);
  ensemble.fit(noisy_dataset(300, 5), rng);
  const std::vector<double> x{0.3, 0.6, 0.9};
  double sum = 0.0;
  for (std::size_t k = 0; k < ensemble.size(); ++k)
    sum += ensemble.member(k).predict(x);
  EXPECT_NEAR(ensemble.predict(x), sum / 4.0, 1e-12);
}

TEST(EnsembleTest, UncertaintyPositiveOffManifold) {
  EnsembleSurrogate ensemble(lgb_factory(), 6);
  Rng rng(6);
  ensemble.fit(noisy_dataset(300, 7), rng);
  const auto [mean, std] = ensemble.predict_dist(std::vector<double>{0.5, 0.5,
                                                                     0.5});
  EXPECT_TRUE(std::isfinite(mean));
  EXPECT_GE(std, 0.0);
}

TEST(EnsembleTest, SampleMatchesDistribution) {
  EnsembleSurrogate ensemble(lgb_factory(), 6);
  Rng rng(8);
  ensemble.fit(noisy_dataset(300, 9), rng);
  const std::vector<double> x{0.2, 0.8, 0.4};
  const auto [mean, std] = ensemble.predict_dist(x);
  Rng sample_rng(10);
  std::vector<double> draws;
  for (int i = 0; i < 4000; ++i) draws.push_back(ensemble.sample(x, sample_rng));
  EXPECT_NEAR(anb::mean(draws), mean, 4.0 * std / std::sqrt(4000.0) + 1e-9);
  if (std > 1e-9) {
    EXPECT_NEAR(stddev(draws), std, 0.1 * std + 1e-9);
  }
}

TEST(EnsembleTest, SerializationRoundTrip) {
  EnsembleSurrogate ensemble(lgb_factory(), 3);
  Rng rng(11);
  ensemble.fit(noisy_dataset(200, 12), rng);
  const auto restored = binary_round_trip(ensemble);
  const std::vector<double> x{0.7, 0.1, 0.5};
  EXPECT_DOUBLE_EQ(restored->predict(x), ensemble.predict(x));
  EXPECT_EQ(restored->name(), "ensemble");
}

TEST(EnsembleTest, Validation) {
  EXPECT_THROW(EnsembleSurrogate(nullptr, 3), Error);
  EXPECT_THROW(EnsembleSurrogate(lgb_factory(), 1), Error);
  EXPECT_THROW(EnsembleSurrogate(lgb_factory(), 4, 0.0), Error);
  EnsembleSurrogate unfitted(lgb_factory(), 3);
  EXPECT_THROW(unfitted.predict(std::vector<double>{1.0, 2.0, 3.0}), Error);
  std::vector<std::unique_ptr<Surrogate>> too_few;
  too_few.push_back(std::make_unique<HistGbdt>());
  EXPECT_THROW(EnsembleSurrogate{std::move(too_few)}, Error);
}

TEST(EnsembleTest, DeserializedWrapperCannotRefit) {
  EnsembleSurrogate ensemble(lgb_factory(), 3);
  Rng rng(13);
  const Dataset train = noisy_dataset(200, 14);
  ensemble.fit(train, rng);
  const auto restored = binary_round_trip(ensemble);
  EXPECT_THROW(restored->fit(train, rng), Error);
}

}  // namespace
}  // namespace anb
