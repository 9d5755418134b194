// Differential tests for the parallel training engine: fitting any tree
// surrogate at 1, 2, and hardware_concurrency threads must produce the SAME
// model — byte-identical binary images and bit-identical predictions. This
// is the determinism contract of DESIGN.md "Parallel training & the binned
// matrix": histogram construction parallelizes across features (each cell
// sums its rows in serial order), forests give every tree its own seeded
// stream, and the element-wise update loops are pure partitions. The same
// suite pins the TrainContext overloads to the plain fit and the
// BinnedMatrix quantization to its documented upper_bound semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "anb/surrogate/binned_matrix.hpp"
#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/hist_gbdt.hpp"
#include "anb/surrogate/random_forest.hpp"
#include "anb/surrogate/svr.hpp"
#include "anb/surrogate/train_context.hpp"
#include "anb/util/error.hpp"
#include "anb/util/parallel.hpp"
#include "anb/util/rng.hpp"

namespace anb {
namespace {

constexpr std::size_t kNumFeatures = 9;

/// Restores the global thread-count default on scope exit so a failing
/// assertion cannot leak a pinned value into later tests.
struct ThreadCountGuard {
  ~ThreadCountGuard() { set_default_num_threads(0); }
};

Dataset make_dataset(int n, std::uint64_t seed) {
  Dataset ds(kNumFeatures);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> x(kNumFeatures);
    for (auto& v : x) v = rng.uniform();
    // Discrete and binary columns exercise the distinct-value binning
    // paths; the interaction terms make trees unbalanced.
    x[6] = static_cast<double>(rng.uniform_index(4));
    x[7] = rng.bernoulli(0.3) ? 1.0 : 0.0;
    const double y = 3.0 * x[0] - 2.0 * x[1] + 4.0 * x[2] * x[3] +
                     0.5 * x[6] - 1.5 * x[7] + 0.1 * rng.normal();
    ds.add(x, y);
  }
  return ds;
}

std::vector<double> make_rows(std::size_t n, std::uint64_t seed) {
  std::vector<double> rows(n * kNumFeatures);
  Rng rng(seed);
  for (auto& v : rows) v = rng.uniform();
  return rows;
}

/// Thread counts every fit must agree across: serial, two workers, and
/// whatever the host machine offers.
std::vector<unsigned> thread_counts() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return {1u, 2u, std::max(4u, hw)};
}

/// Fit `model` with the given pinned thread count; returns its binary
/// payload and predictions over a fixed query matrix.
template <typename Model>
std::pair<std::string, std::vector<double>> fit_fingerprint(
    Model& model, const Dataset& train, std::uint64_t fit_seed,
    unsigned num_threads) {
  ThreadCountGuard guard;
  set_default_num_threads(num_threads);
  Rng rng(fit_seed);
  model.fit(train, rng);
  const auto rows = make_rows(128, 99);
  std::vector<double> preds(128);
  model.predict_matrix(rows, kNumFeatures, preds);
  return {binary_image(model), std::move(preds)};
}

template <typename Model>
void expect_thread_invariant_fit(Model&& make_model, const Dataset& train,
                                 std::uint64_t fit_seed) {
  std::string ref_image;
  std::vector<double> ref_preds;
  for (const unsigned t : thread_counts()) {
    auto model = make_model();
    auto [image, preds] = fit_fingerprint(model, train, fit_seed, t);
    if (ref_image.empty()) {
      ref_image = std::move(image);
      ref_preds = std::move(preds);
      continue;
    }
    EXPECT_EQ(ref_image, image) << "binary image differs at " << t
                                << " threads";
    ASSERT_EQ(ref_preds.size(), preds.size());
    for (std::size_t i = 0; i < preds.size(); ++i) {
      // EXPECT_EQ on doubles is exact — bit-identity for non-NaN values.
      EXPECT_EQ(ref_preds[i], preds[i]) << "prediction " << i << " at " << t
                                        << " threads";
    }
  }
}

TEST(ParallelFitTest, HistGbdtIsThreadInvariant) {
  const Dataset train = make_dataset(500, 21);
  HistGbdtParams params;
  params.n_estimators = 60;
  params.max_leaves = 15;
  params.max_bins = 32;
  expect_thread_invariant_fit([&] { return HistGbdt(params); }, train, 5);
}

TEST(ParallelFitTest, HistGbdtWithSamplingIsThreadInvariant) {
  // Row bagging and feature sampling draw from the caller's rng on the
  // calling thread; they must not perturb thread invariance.
  const Dataset train = make_dataset(400, 22);
  HistGbdtParams params;
  params.n_estimators = 40;
  params.max_leaves = 8;
  params.subsample = 0.8;
  params.colsample = 0.7;
  expect_thread_invariant_fit([&] { return HistGbdt(params); }, train, 6);
}

TEST(ParallelFitTest, GbdtIsThreadInvariant) {
  const Dataset train = make_dataset(400, 23);
  GbdtParams params;
  params.n_estimators = 60;
  params.max_depth = 3;
  params.subsample = 0.9;
  expect_thread_invariant_fit([&] { return Gbdt(params); }, train, 7);
}

TEST(ParallelFitTest, RandomForestIsThreadInvariant) {
  const Dataset train = make_dataset(400, 24);
  RandomForestParams params;
  params.n_trees = 40;
  params.max_depth = 9;
  expect_thread_invariant_fit([&] { return RandomForest(params); }, train, 8);
}

TEST(ParallelFitTest, ContextFitMatchesPlainFit) {
  // The TrainContext overloads only share precomputed structures; the
  // fitted model must be byte-identical to the plain fit for every family
  // (SVR routes through the base-class fallback).
  const Dataset train = make_dataset(300, 25);
  TrainContext ctx(train);

  HistGbdtParams hist_params;
  hist_params.n_estimators = 30;
  {
    HistGbdt plain(hist_params), shared(hist_params);
    Rng r1(31), r2(31);
    plain.fit(train, r1);
    shared.fit(train, ctx, r2);
    EXPECT_EQ(binary_image(plain), binary_image(shared));
  }
  {
    GbdtParams params;
    params.n_estimators = 30;
    Gbdt plain(params), shared(params);
    Rng r1(32), r2(32);
    plain.fit(train, r1);
    shared.fit(train, ctx, r2);
    EXPECT_EQ(binary_image(plain), binary_image(shared));
  }
  {
    RandomForestParams params;
    params.n_trees = 20;
    RandomForest plain(params), shared(params);
    Rng r1(33), r2(33);
    plain.fit(train, r1);
    shared.fit(train, ctx, r2);
    EXPECT_EQ(binary_image(plain), binary_image(shared));
  }
  {
    SvrParams params;
    params.kind = SvrKind::kEpsilon;
    Svr plain(params), shared(params);
    Rng r1(34), r2(34);
    plain.fit(train, r1);
    shared.fit(train, ctx, r2);
    EXPECT_EQ(binary_image(plain), binary_image(shared));
  }
}

TEST(ParallelFitTest, ContextForWrongDatasetThrows) {
  const Dataset train = make_dataset(100, 26);
  const Dataset other = make_dataset(100, 27);
  TrainContext ctx(other);
  HistGbdt model;
  Rng rng(1);
  EXPECT_THROW(model.fit(train, ctx, rng), Error);
}

TEST(BinnedMatrixTest, CodesMatchUpperBoundOfEdges) {
  const Dataset data = make_dataset(300, 41);
  const BinnedMatrix binned(data, 16);
  ASSERT_EQ(binned.num_rows(), data.size());
  ASSERT_EQ(binned.num_features(), data.num_features());
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    const auto edges = binned.edges(f);
    EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
    EXPECT_LE(binned.num_bins(f), binned.max_bins());
    for (std::size_t i = 0; i < data.size(); ++i) {
      const double x = data.feature(i, f);
      const auto expected = static_cast<std::uint8_t>(
          std::upper_bound(edges.begin(), edges.end(), x) - edges.begin());
      ASSERT_EQ(binned.code(i, f), expected)
          << "row " << i << " feature " << f;
    }
  }
}

TEST(BinnedMatrixTest, BinaryFeatureIsLossless) {
  // A two-valued column gets one edge between the values: quantization
  // must preserve the exact partition.
  Dataset data(1);
  Rng rng(55);
  for (int i = 0; i < 64; ++i) {
    const std::vector<double> x{rng.bernoulli(0.5) ? 1.0 : 0.0};
    data.add(x, x[0]);
  }
  const BinnedMatrix binned(data, 64);
  ASSERT_EQ(binned.num_bins(0), 2);
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_EQ(binned.code(i, 0), data.feature(i, 0) > 0.5 ? 1 : 0);
}

TEST(BinnedMatrixTest, ThreadInvariantConstruction) {
  const Dataset data = make_dataset(400, 56);
  ThreadCountGuard guard;
  set_default_num_threads(1);
  const BinnedMatrix serial(data, 24);
  set_default_num_threads(std::max(4u, std::thread::hardware_concurrency()));
  const BinnedMatrix threaded(data, 24);
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    const auto se = serial.edges(f);
    const auto te = threaded.edges(f);
    ASSERT_EQ(std::vector<double>(se.begin(), se.end()),
              std::vector<double>(te.begin(), te.end()));
    const auto sc = serial.codes(f);
    const auto tc = threaded.codes(f);
    ASSERT_TRUE(std::equal(sc.begin(), sc.end(), tc.begin(), tc.end()));
  }
}

TEST(BinnedMatrixTest, ValidatesArguments) {
  const Dataset data = make_dataset(50, 57);
  EXPECT_THROW(BinnedMatrix(data, 1), Error);
  EXPECT_THROW(BinnedMatrix(data, 257), Error);
  const BinnedMatrix binned(data, 8);
  EXPECT_THROW(binned.edges(kNumFeatures), Error);
  EXPECT_THROW(binned.codes(kNumFeatures), Error);
  EXPECT_THROW(binned.edge(0, -1), Error);
}

TEST(TrainContextTest, CachesPerMaxBinsAndValidates) {
  const Dataset data = make_dataset(100, 58);
  TrainContext ctx(data);
  const BinnedMatrix& a = ctx.bins(16);
  const BinnedMatrix& b = ctx.bins(16);
  EXPECT_EQ(&a, &b);  // same instance reused
  const BinnedMatrix& c = ctx.bins(32);
  EXPECT_NE(&a, &c);
  EXPECT_THROW(ctx.bins(1), Error);
  const ColumnIndex& cols = ctx.columns();
  EXPECT_EQ(&cols, &ctx.columns());
}

}  // namespace
}  // namespace anb
