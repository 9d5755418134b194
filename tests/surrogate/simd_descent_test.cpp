// Differential suite for the descent engines (DESIGN.md "SIMD descent"):
// every engine x dispatch target x batch shape must reproduce
// the scalar tree walk BIT FOR BIT — including NaN and infinity rows and
// feature values that sit exactly on a split threshold — and forcing an
// engine a forest cannot support must throw instead of degrading.
//
// Separate test binary: these tests flip process-global dispatch state
// (forced simd::Target, forced DescentPath, default thread count) that
// must not interleave with other suites.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "anb/obs/registry.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/hist_gbdt.hpp"
#include "anb/surrogate/random_forest.hpp"
#include "anb/surrogate/flat_forest.hpp"
#include "anb/surrogate/tree.hpp"
#include "anb/util/error.hpp"
#include "anb/util/io.hpp"
#include "anb/util/parallel.hpp"
#include "anb/util/rng.hpp"
#include "anb/util/simd.hpp"

namespace anb {
namespace {

/// Dispatch targets this machine can execute. kScalar always runs (and
/// exercises the ScalarIsa kernel instantiations); vector targets join
/// when the CPU probe admits them.
std::vector<simd::Target> test_targets() {
  std::vector<simd::Target> targets{simd::Target::kScalar};
  if (simd::cpu_supports(simd::Target::kAvx2))
    targets.push_back(simd::Target::kAvx2);
  if (simd::cpu_supports(simd::Target::kNeon))
    targets.push_back(simd::Target::kNeon);
  return targets;
}

/// Batch sizes crossing every kernel regime: empty, below one 8-lane
/// group, exactly one group, group+1, and the 255/256/257 straddle of
/// four 64-row blocks (full vector blocks plus a scalar tail block).
const std::size_t kBatchSizes[] = {0, 1, 7, 8, 9, 255, 256, 257};

/// Chain tree with `leaves` leaves: internal node k (k = 0..leaves-2)
/// splits feature 0 at threshold k+1 with a leaf on the left and the
/// chain continuing right — maximally unbalanced, depth = leaves-1.
RegressionTree make_chain_tree(int leaves, double leaf_base) {
  const int internal = leaves - 1;
  std::vector<TreeNode> nodes(static_cast<std::size_t>(2 * internal + 1));
  for (int k = 0; k < internal; ++k) {
    TreeNode& n = nodes[static_cast<std::size_t>(2 * k)];
    n.feature = 0;
    n.threshold = static_cast<double>(k + 1);
    n.left = 2 * k + 1;
    n.right = 2 * k + 2;
    nodes[static_cast<std::size_t>(2 * k + 1)] =
        TreeNode{-1, 0.0, -1, -1, leaf_base + k};
  }
  nodes[static_cast<std::size_t>(2 * internal)] =
      TreeNode{-1, 0.0, -1, -1, leaf_base + internal};
  return RegressionTree(std::move(nodes));
}

/// Depth-2 tree over two features: root splits f0 at 2.0, children split
/// f1 at 1.5 / 3.0, four distinct leaf values.
RegressionTree make_split_tree(double bump) {
  std::vector<TreeNode> nodes(7);
  nodes[0] = TreeNode{0, 2.0, 1, 2, 0.0};
  nodes[1] = TreeNode{1, 1.5, 3, 4, 0.0};
  nodes[2] = TreeNode{1, 3.0, 5, 6, 0.0};
  nodes[3] = TreeNode{-1, 0.0, -1, -1, 1.0 + bump};
  nodes[4] = TreeNode{-1, 0.0, -1, -1, 2.0 + bump};
  nodes[5] = TreeNode{-1, 0.0, -1, -1, 3.0 + bump};
  nodes[6] = TreeNode{-1, 0.0, -1, -1, 4.0 + bump};
  return RegressionTree(std::move(nodes));
}

/// Scalar reference: per row, sum scale * predict_tree over trees in tree
/// order on top of `init` — the exact accumulation order accumulate()
/// promises, so EXPECT_EQ below is a bit-level check.
std::vector<double> reference(const FlatForest& forest,
                              std::span<const double> rows, std::size_t d,
                              double scale, double init) {
  const std::size_t n = d == 0 ? 0 : rows.size() / d;
  std::vector<double> out(n, init);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t t = 0; t < forest.num_trees(); ++t)
      out[i] += scale * forest.predict_tree(t, rows.subspan(i * d, d));
  return out;
}

/// Runs accumulate() under every (target, path) combination and demands
/// bit-identity with the scalar reference.
void expect_paths_agree(const FlatForest& forest,
                        std::span<const double> rows, std::size_t d,
                        const std::vector<DescentPath>& paths,
                        const char* label) {
  constexpr double kScale = 0.5;
  constexpr double kInit = 0.25;
  const std::size_t n = rows.size() / d;
  const std::vector<double> ref = reference(forest, rows, d, kScale, kInit);
  for (const simd::Target target : test_targets()) {
    simd::ScopedTarget st(target);
    for (const DescentPath path : paths) {
      ScopedDescentPath sp(path);
      std::vector<double> out(n, kInit);
      forest.accumulate(rows, d, kScale, out);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(ref[i], out[i])
            << label << " target=" << simd::target_name(target)
            << " path=" << descent_path_name(path) << " row=" << i;
    }
  }
}

const std::vector<DescentPath> kAllPaths = {
    DescentPath::kAuto, DescentPath::kInterleaved, DescentPath::kMasked};
const std::vector<DescentPath> kUnmaskedPaths = {DescentPath::kAuto,
                                                 DescentPath::kInterleaved};

TEST(SimdDescentTest, SpecialValuesRouteIdentically) {
  std::vector<RegressionTree> trees;
  trees.push_back(make_split_tree(0.0));
  trees.push_back(make_split_tree(0.125));
  trees.push_back(make_chain_tree(8, -2.0));
  const FlatForest forest(trees);
  ASSERT_TRUE(forest.masked_available());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Rows hitting: exact thresholds (x < t must be false), one-ulp
  // neighbours, NaN (always routes right), +/-inf, and plain values.
  const std::vector<double> rows = {
      2.0, 1.5,                                          // both exact
      std::nextafter(2.0, 0.0), std::nextafter(1.5, 9.0),  // one ulp off
      nan, 1.0,                                          // NaN on f0
      1.0, nan,                                          // NaN on f1
      nan, nan,                                          // NaN everywhere
      inf, -inf,                                         // infinities
      -inf, inf,                                         //
      0.0, 0.0,                                          // plain
      7.5, 2.25,                                         //
  };
  expect_paths_agree(forest, rows, 2, kAllPaths, "special-values");
}

TEST(SimdDescentTest, BatchShapesAndOddForests) {
  // Odd tree count (exercises the single-tree remainder), a single-leaf
  // tree (no internal nodes: the masked accumulator stays all-ones and
  // must still pick leaf 0), and unbalanced chains.
  std::vector<RegressionTree> trees;
  trees.push_back(make_split_tree(0.5));
  trees.push_back(RegressionTree({TreeNode{-1, 0.0, -1, -1, 0.75}}));
  trees.push_back(make_chain_tree(5, 1.0));
  const FlatForest forest(trees);
  ASSERT_TRUE(forest.masked_available());

  Rng rng(42);
  for (const std::size_t n : kBatchSizes) {
    std::vector<double> rows(n * 2);
    for (auto& v : rows) v = rng.uniform() * 5.0;
    expect_paths_agree(forest, rows, 2, kAllPaths,
                       ("batch n=" + std::to_string(n)).c_str());
  }
}

TEST(SimdDescentTest, NineLeavesDisableMaskedOnly) {
  std::vector<RegressionTree> trees;
  trees.push_back(make_chain_tree(9, 0.0));
  const FlatForest forest(trees);
  EXPECT_FALSE(forest.masked_available());

  std::vector<double> rows(16);
  for (std::size_t i = 0; i < rows.size(); ++i)
    rows[i] = static_cast<double>(i % 10);
  expect_paths_agree(forest, rows, 1, kUnmaskedPaths, "nine-leaves");

  ScopedDescentPath sp(DescentPath::kMasked);
  std::vector<double> out(16, 0.0);
  EXPECT_THROW(forest.accumulate(rows, 1, 1.0, out), Error);
}

TEST(SimdDescentTest, ManyThresholdsDisableQuantizedAndMasked) {
  // 300 leaves -> 299 distinct thresholds on feature 0: past the 255-code
  // budget, so only the full-precision interleaved walk may run.
  std::vector<RegressionTree> trees;
  trees.push_back(make_chain_tree(300, 0.0));
  const FlatForest forest(trees);
  EXPECT_FALSE(forest.masked_available());

  std::vector<double> rows(24);
  for (std::size_t i = 0; i < rows.size(); ++i)
    rows[i] = static_cast<double>(i) * 17.0;
  expect_paths_agree(forest, rows, 1, kUnmaskedPaths, "many-thresholds");

  ScopedDescentPath sp(DescentPath::kMasked);
  std::vector<double> out(rows.size(), 0.0);
  EXPECT_THROW(forest.accumulate(rows, 1, 1.0, out), Error);
}

/// Adopts one hand-made tree through the artifact-load constructor.
FlatForest adopt(std::vector<FlatNode> nodes) {
  return FlatForest(io::ArrayRef<FlatNode>(std::move(nodes)),
                    io::ArrayRef<std::int32_t>(std::vector<std::int32_t>{0}));
}

TEST(SimdDescentTest, LoadConstructorRejectsNonTreeShapes) {
  // Root 0 splits into nodes 1 and 2; node 2 is a self-looping leaf.
  const FlatNode leaf2{3.0, 0, 2, 2, 0};
  // Back edge: node 1 routes left to its parent, a cycle that would spin
  // predict_tree and the interleaved walk forever and send the masked
  // tables' in-order walk into unbounded recursion.
  EXPECT_THROW(adopt({{0.5, 0, 1, 2, 0}, {0.25, 0, 0, 2, 0}, leaf2}), Error);
  // An internal node that is its own child.
  EXPECT_THROW(adopt({{0.5, 0, 0, 2, 0}, {1.0, 0, 1, 1, 0}, leaf2}), Error);
  // Both branches of the root reach node 1: a DAG, not a tree.
  EXPECT_THROW(adopt({{0.5, 0, 1, 1, 0}, {1.0, 0, 1, 1, 0}, leaf2}), Error);
  // The well-formed shape loads and walks to its leaves.
  const FlatForest ok = adopt({{0.5, 0, 1, 2, 0}, {1.0, 0, 1, 1, 0}, leaf2});
  EXPECT_EQ(ok.predict_tree(0, std::vector<double>{0.0}), 1.0);
  EXPECT_EQ(ok.predict_tree(0, std::vector<double>{1.0}), 3.0);
  EXPECT_TRUE(ok.masked_available());
}

// ---------------------------------------------------------------------------
// Fitted families end to end: model.predict (scalar walk) vs
// predict_batch / predict_matrix under every engine. Discrete feature
// values keep the per-feature threshold count small, so only the leaf
// count decides masked eligibility for the families below.
// ---------------------------------------------------------------------------

constexpr std::size_t kNumFeatures = 7;

Dataset make_family_dataset(int n, std::uint64_t seed) {
  Dataset ds(kNumFeatures);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> x(kNumFeatures);
    for (auto& v : x) v = static_cast<double>(rng.uniform_index(6));
    const double y = 3.0 * x[0] - 2.0 * x[1] + x[2] * x[3] + 0.5 * x[6] +
                     0.1 * rng.normal();
    ds.add(x, y);
  }
  return ds;
}

std::vector<double> make_family_rows(std::size_t n, std::uint64_t seed) {
  std::vector<double> rows(n * kNumFeatures);
  Rng rng(seed);
  for (auto& v : rows) v = static_cast<double>(rng.uniform_index(6));
  return rows;
}

void run_family(const Surrogate& model,
                const std::vector<DescentPath>& paths) {
  for (const std::size_t n : kBatchSizes) {
    const std::vector<double> rows = make_family_rows(n, 0xF00 + n);
    std::vector<double> scalar(n);
    {
      // Reference on the PR 2 interleaved walk (itself proven
      // bit-identical to per-row predict by predict_batch_test).
      ScopedDescentPath sp(DescentPath::kInterleaved);
      for (std::size_t i = 0; i < n; ++i)
        scalar[i] = model.predict(std::span<const double>(rows).subspan(
            i * kNumFeatures, kNumFeatures));
    }
    for (const simd::Target target : test_targets()) {
      simd::ScopedTarget st(target);
      for (const DescentPath path : paths) {
        ScopedDescentPath sp(path);
        std::vector<double> batch(n);
        model.predict_batch(rows, kNumFeatures, batch);
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_EQ(scalar[i], batch[i])
              << model.name() << " target=" << simd::target_name(target)
              << " path=" << descent_path_name(path) << " n=" << n
              << " row=" << i;
      }
    }
  }
  // Parallel predict_matrix sweep at pinned thread counts: per-chunk
  // dispatch must keep bit-identity whatever the chunking.
  const std::size_t n = 257;
  const std::vector<double> rows = make_family_rows(n, 0xBEE);
  std::vector<double> scalar(n);
  {
    ScopedDescentPath sp(DescentPath::kInterleaved);
    for (std::size_t i = 0; i < n; ++i)
      scalar[i] = model.predict(std::span<const double>(rows).subspan(
          i * kNumFeatures, kNumFeatures));
  }
  for (const unsigned threads : {1u, 2u, 0u}) {
    set_default_num_threads(threads);
    for (const DescentPath path : paths) {
      ScopedDescentPath sp(path);
      std::vector<double> matrix(n);
      model.predict_matrix(rows, kNumFeatures, matrix);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(scalar[i], matrix[i])
            << model.name() << " threads=" << threads
            << " path=" << descent_path_name(path) << " row=" << i;
    }
  }
  set_default_num_threads(0);
}

TEST(SimdDescentTest, HistGbdtFamily) {
  HistGbdtParams p;
  p.n_estimators = 40;
  HistGbdt model(p);  // max_leaves 8 -> masked-eligible by construction
  const Dataset train = make_family_dataset(400, 21);
  Rng rng(22);
  model.fit(train, rng);
  run_family(model, kAllPaths);
}

TEST(SimdDescentTest, GbdtFamily) {
  GbdtParams p;
  p.n_estimators = 40;
  p.max_depth = 3;  // <= 8 leaves -> masked-eligible
  Gbdt model(p);
  const Dataset train = make_family_dataset(400, 31);
  Rng rng(32);
  model.fit(train, rng);
  run_family(model, kAllPaths);
}

TEST(SimdDescentTest, RandomForestFamily) {
  RandomForestParams p;
  p.n_trees = 15;  // default depth 14: typically far more than 8 leaves
  RandomForest model(p);
  const Dataset train = make_family_dataset(400, 41);
  Rng rng(42);
  model.fit(train, rng);
  // Masked eligibility depends on the fitted shapes, so the forced-path
  // sweep leaves kMasked out.
  run_family(model, kUnmaskedPaths);
}

// ---------------------------------------------------------------------------
// kAuto only leaves the interleaved walk through the masked engine, so the
// served families must stay eligible at their default parameters: a table
// or eligibility change that silently drops them would keep every value
// exact and lose the engine's speedup without any other test noticing.
// ---------------------------------------------------------------------------

Dataset make_mnas_dataset(int n, std::uint64_t seed) {
  const MnasSpace& sp = MnasSpace::instance();
  const auto d = static_cast<std::size_t>(sp.feature_dim());
  Dataset ds(d);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const std::vector<double> x = sp.features(sp.sample(rng));
    double y = 0.1 * rng.normal();
    for (std::size_t j = 0; j < d; ++j) y += static_cast<double>(j % 7) * x[j];
    ds.add(x, y + 2.0 * x[0] * x[7] - 1.5 * x[3] * x[20]);
  }
  return ds;
}

TEST(SimdDescentTest, DefaultBoostedFamiliesAreMaskedEligible) {
  const Dataset train = make_mnas_dataset(300, 61);
  Rng rng(62);
  Gbdt gbdt;
  gbdt.fit(train, rng);
  EXPECT_TRUE(gbdt.flat_forest().masked_available());
  HistGbdt hist;
  hist.fit(train, rng);
  EXPECT_TRUE(hist.flat_forest().masked_available());
}

// ---------------------------------------------------------------------------
// Observability: SIMD-path batches report their row count and dispatch
// target; the counter is exact, so it stays thread-count-invariant.
// ---------------------------------------------------------------------------

TEST(SimdDescentTest, ObsCountsSimdRowsAndTarget) {
  HistGbdtParams p;
  p.n_estimators = 10;
  HistGbdt model(p);
  const Dataset train = make_family_dataset(200, 51);
  Rng rng(52);
  model.fit(train, rng);
  const std::vector<double> rows = make_family_rows(64, 0xC0);
  std::vector<double> out(64);

  obs::reset_metrics();
  {
    ScopedDescentPath sp(DescentPath::kMasked);
    model.predict_batch(rows, kNumFeatures, out);
  }
  {
    // Interleaved batches must NOT count as SIMD rows.
    ScopedDescentPath sp(DescentPath::kInterleaved);
    model.predict_batch(rows, kNumFeatures, out);
  }
  std::uint64_t simd_rows = 0;
  double dispatch = -1.0;
  for (const obs::MetricValue& m : obs::snapshot_metrics()) {
    if (m.name == "anb.query.simd.rows") simd_rows = m.value;
    if (m.name == "anb.query.simd.dispatch_target")
      dispatch = m.gauge_value;
  }
  EXPECT_EQ(simd_rows, 64u);
  EXPECT_EQ(dispatch,
            static_cast<double>(static_cast<int>(simd::active_target())));
}

}  // namespace
}  // namespace anb
