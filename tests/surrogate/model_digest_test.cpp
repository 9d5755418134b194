// Golden model digests: default XGB (Gbdt) and RF surrogates fitted on
// fixed MnasNet and FBNet datasets must have exactly the recorded binary
// image (binary_image(): the to_binary meta record plus the container
// bytes of the model's arrays). parallel_fit_test proves thread counts
// agree with each other within one revision; this suite pins the fitted
// models across revisions, so a change to the split search (the exact-greedy scan, its
// fast paths, tie-breaking, RNG consumption) that alters any tree fails
// here. The FBNet encoding carries constant columns (never-legal skip
// slots) next to two-valued ones.
//
// The targets use only + and * on exact inputs, and the digests were
// recorded on x86-64 (baseline ISA, no FMA contraction). If a deliberate
// model change lands, regenerate by pasting the "actual" digests from the
// failure output, and say so in the change log.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "anb/fbnet/fbnet_space.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/random_forest.hpp"

namespace anb {
namespace {

/// Encoded architectures from `space` with a sparse-interaction target:
/// per-column weights plus three pairwise terms and a little noise.
Dataset make_space_dataset(const SearchSpace& space, int n,
                           std::uint64_t seed) {
  const auto d = static_cast<std::size_t>(space.feature_dim());
  Rng rng(seed);
  std::vector<double> w(d);
  for (double& v : w) v = rng.normal();
  Dataset ds(d);
  for (int i = 0; i < n; ++i) {
    const std::vector<double> x = space.features(space.sample(rng));
    double y = 0.0;
    for (std::size_t k = 0; k < d; ++k) y += w[k] * x[k];
    y += 2.0 * x[0] * x[7] - 1.5 * x[3] * x[20] + x[11] * x[42];
    ds.add(x, y + 0.1 * rng.normal());
  }
  return ds;
}

/// FNV-1a 64 over the model's binary image, printed as 16 hex digits.
std::string digest(const Surrogate& model) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : binary_image(model)) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string fit_digest(Surrogate&& model, const Dataset& train,
                       std::uint64_t seed) {
  Rng rng(seed);
  model.fit(train, rng);
  return digest(model);
}

TEST(ModelDigestTest, MnasNetDefaultModels) {
  const Dataset train = make_space_dataset(MnasSpace::instance(), 500, 71);
  EXPECT_EQ(fit_digest(Gbdt(), train, 72), "2ff9ad242db2f56e");
  EXPECT_EQ(fit_digest(RandomForest(), train, 73), "ca6c2b8398411272");
}

TEST(ModelDigestTest, FbnetDefaultModels) {
  const Dataset train = make_space_dataset(FbnetSpace::instance(), 400, 81);
  EXPECT_EQ(fit_digest(Gbdt(), train, 82), "d9b96330fd350e5b");
  EXPECT_EQ(fit_digest(RandomForest(), train, 83), "c25f3899f577ef23");
}

}  // namespace
}  // namespace anb
