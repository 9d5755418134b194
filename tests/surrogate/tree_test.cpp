#include "anb/surrogate/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "anb/util/error.hpp"

namespace anb {
namespace {

/// Fit a plain variance-reduction tree (g = -y, h = 1).
RegressionTree fit_variance_tree(const Dataset& data, TreeParams params,
                                 std::uint64_t seed = 1) {
  const std::size_t n = data.size();
  std::vector<double> g(n), h(n, 1.0), w(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) g[i] = -data.target(i);
  params.lambda = 0.0;
  const ColumnIndex columns(data);
  Rng rng(seed);
  return build_tree(data, columns, g, h, w, params, rng);
}

Dataset and_dataset() {
  // y = AND(x0, x1): needs depth 2 for an exact fit, and unlike XOR the
  // first greedy split already has positive gain.
  Dataset ds(2);
  for (int rep = 0; rep < 4; ++rep) {
    ds.add(std::vector<double>{0, 0}, 0.0);
    ds.add(std::vector<double>{0, 1}, 0.0);
    ds.add(std::vector<double>{1, 0}, 0.0);
    ds.add(std::vector<double>{1, 1}, 1.0);
  }
  return ds;
}

TEST(TreeTest, StumpSplitsOnInformativeFeature) {
  Dataset ds(2);
  // Feature 1 is pure noise; feature 0 perfectly separates targets.
  ds.add(std::vector<double>{0.0, 1.0}, -1.0);
  ds.add(std::vector<double>{0.0, 0.0}, -1.0);
  ds.add(std::vector<double>{1.0, 1.0}, 1.0);
  ds.add(std::vector<double>{1.0, 0.0}, 1.0);
  TreeParams params;
  params.max_depth = 1;
  const RegressionTree tree = fit_variance_tree(ds, params);
  EXPECT_EQ(tree.nodes()[0].feature, 0);
  EXPECT_EQ(tree.num_leaves(), 2);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.0, 0.5}), -1.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{1.0, 0.5}), 1.0);
}

TEST(TreeTest, DepthTwoSolvesAnd) {
  TreeParams params;
  params.max_depth = 2;
  const RegressionTree tree = fit_variance_tree(and_dataset(), params);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{1, 1}), 1.0);
}

TEST(TreeTest, DepthOneCannotSolveAnd) {
  TreeParams params;
  params.max_depth = 1;
  const RegressionTree tree = fit_variance_tree(and_dataset(), params);
  // One split can only separate a mean-0 side from a mean-0.5 side.
  EXPECT_NEAR(tree.predict(std::vector<double>{1, 1}), 0.5, 1e-9);
  EXPECT_NEAR(tree.predict(std::vector<double>{0, 0}), 0.0, 1e-9);
}

TEST(TreeTest, ConstantTargetGivesSingleLeaf) {
  Dataset ds(2);
  for (int i = 0; i < 10; ++i)
    ds.add(std::vector<double>{static_cast<double>(i), 1.0}, 5.0);
  TreeParams params;
  params.max_depth = 4;
  const RegressionTree tree = fit_variance_tree(ds, params);
  EXPECT_EQ(tree.num_leaves(), 1);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{3.0, 1.0}), 5.0);
}

TEST(TreeTest, MinSamplesLeafRespected) {
  Dataset ds(1);
  // 9 points at x=0 (y=0), 1 point at x=1 (y=10): split would isolate 1 row.
  for (int i = 0; i < 9; ++i) ds.add(std::vector<double>{0.0}, 0.0);
  ds.add(std::vector<double>{1.0}, 10.0);
  TreeParams params;
  params.max_depth = 3;
  params.min_samples_leaf = 2.0;
  const RegressionTree tree = fit_variance_tree(ds, params);
  EXPECT_EQ(tree.num_leaves(), 1);
}

TEST(TreeTest, RowWeightsExcludeRows) {
  Dataset ds(1);
  ds.add(std::vector<double>{0.0}, 0.0);
  ds.add(std::vector<double>{1.0}, 100.0);  // excluded below
  ds.add(std::vector<double>{0.2}, 0.0);
  std::vector<double> g{0.0, -100.0, 0.0};
  std::vector<double> h(3, 1.0);
  std::vector<double> w{1.0, 0.0, 1.0};
  TreeParams params;
  params.max_depth = 2;
  params.lambda = 0.0;
  const ColumnIndex columns(ds);
  Rng rng(1);
  const RegressionTree tree = build_tree(ds, columns, g, h, w, params, rng);
  // The excluded outlier must not influence any leaf.
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{1.0}), 0.0);
}

TEST(TreeTest, LambdaShrinksLeafValues) {
  Dataset ds(1);
  ds.add(std::vector<double>{0.0}, 0.0);
  ds.add(std::vector<double>{1.0}, 4.0);
  const std::size_t n = ds.size();
  std::vector<double> g(n), h(n, 1.0), w(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) g[i] = -ds.target(i);
  TreeParams params;
  params.max_depth = 1;
  params.lambda = 1.0;  // leaf = sum(y) / (count + lambda)
  const ColumnIndex columns(ds);
  Rng rng(1);
  const RegressionTree tree = build_tree(ds, columns, g, h, w, params, rng);
  // Leaf value = sum(y) / (count + lambda): 0/2 and 4/2.
  EXPECT_NEAR(tree.predict(std::vector<double>{0.0}), 0.0, 1e-9);
  EXPECT_NEAR(tree.predict(std::vector<double>{1.0}), 2.0, 1e-9);
}

TEST(TreeTest, GammaBlocksWeakSplits) {
  Dataset ds(1);
  ds.add(std::vector<double>{0.0}, 0.0);
  ds.add(std::vector<double>{1.0}, 0.1);  // tiny gain
  TreeParams params;
  params.max_depth = 2;
  params.gamma = 1.0;
  const RegressionTree tree = fit_variance_tree(ds, params);
  EXPECT_EQ(tree.num_leaves(), 1);
}

TEST(TreeTest, PredictValidatesDimensions) {
  TreeParams params;
  params.max_depth = 2;
  const RegressionTree tree = fit_variance_tree(and_dataset(), params);
  EXPECT_THROW(tree.predict(std::vector<double>{1.0}), Error);
}

TEST(TreeTest, ColumnIndexSortsColumns) {
  Dataset ds(2);
  ds.add(std::vector<double>{3.0, 0.0}, 0.0);
  ds.add(std::vector<double>{1.0, 2.0}, 0.0);
  ds.add(std::vector<double>{2.0, 1.0}, 0.0);
  const ColumnIndex columns(ds);
  const auto col0 = columns.sorted_rows(0);
  EXPECT_EQ(col0[0], 1u);
  EXPECT_EQ(col0[1], 2u);
  EXPECT_EQ(col0[2], 0u);
  EXPECT_THROW(columns.sorted_rows(2), Error);
}

TEST(TreeTest, MaxDepthBoundsLeafCount) {
  Dataset ds(4);
  Rng rng(5);
  for (int i = 0; i < 256; ++i) {
    std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(),
                          rng.uniform()};
    ds.add(x, rng.normal());
  }
  for (int depth : {1, 2, 3, 4}) {
    TreeParams params;
    params.max_depth = depth;
    const RegressionTree tree = fit_variance_tree(ds, params);
    EXPECT_LE(tree.num_leaves(), 1 << depth) << "depth=" << depth;
  }
}

// ---------------------------------------------------------------------------
// Exactness of the two-valued split scan. build_tree finds two-valued
// columns' splits from row-order sums; the reference below is a verbatim
// copy of the sorted scan that every column went through before, and the
// two must build the same tree bit for bit.

struct NodeStats {
  double g = 0.0, h = 0.0, w = 0.0;
};

struct BestSplit {
  double gain = -std::numeric_limits<double>::infinity();
  int feature = -1;
  double threshold = 0.0;
};

double leaf_gain(double g, double h, double lambda) {
  return g * g / (h + lambda);
}

RegressionTree reference_build_tree(const Dataset& data,
                                    const ColumnIndex& columns,
                                    std::span<const double> g,
                                    std::span<const double> h,
                                    std::span<const double> row_weight,
                                    const TreeParams& params, Rng& rng) {
  const std::size_t n = data.size();
  const std::size_t d = data.num_features();

  std::vector<TreeNode> nodes(1);
  // position[i]: index into `active` of the node row i currently sits in.
  std::vector<int> position(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    if (row_weight[i] == 0.0) position[i] = -1;

  std::vector<int> active{0};  // node ids at the current level

  for (int depth = 0; depth < params.max_depth && !active.empty(); ++depth) {
    const std::size_t na = active.size();

    // Totals per active node.
    std::vector<NodeStats> total(na);
    for (std::size_t i = 0; i < n; ++i) {
      const int p = position[i];
      if (p < 0) continue;
      const double w = row_weight[i];
      total[static_cast<std::size_t>(p)].g += w * g[i];
      total[static_cast<std::size_t>(p)].h += w * h[i];
      total[static_cast<std::size_t>(p)].w += w;
    }

    // Optional per-node feature subsampling (random-forest style).
    std::vector<char> allowed;
    const bool subsample_features =
        params.features_per_node > 0 &&
        static_cast<std::size_t>(params.features_per_node) < d;
    if (subsample_features) {
      allowed.assign(na * d, 0);
      for (std::size_t a = 0; a < na; ++a) {
        for (std::size_t f : rng.sample_indices(
                 d, static_cast<std::size_t>(params.features_per_node))) {
          allowed[a * d + f] = 1;
        }
      }
    }

    std::vector<BestSplit> best(na);
    // Left-accumulator state per node, reset for each feature scan.
    std::vector<NodeStats> left(na);
    std::vector<double> last_value(na, 0.0);
    std::vector<char> has_prev(na, 0);

    for (std::size_t f = 0; f < d; ++f) {
      std::fill(left.begin(), left.end(), NodeStats{});
      std::fill(has_prev.begin(), has_prev.end(), 0);

      const auto rows_sorted = columns.sorted_rows(f);
      const auto vals_sorted = columns.sorted_values(f);
      for (std::size_t s = 0; s < rows_sorted.size(); ++s) {
        const std::uint32_t row = rows_sorted[s];
        const int p = position[row];
        if (p < 0) continue;
        const auto a = static_cast<std::size_t>(p);
        if (subsample_features && !allowed[a * d + f]) continue;
        const double v = vals_sorted[s];

        if (has_prev[a] && v > last_value[a]) {
          // Candidate split between last_value and v.
          const NodeStats& tot = total[a];
          const NodeStats& l = left[a];
          const double rg = tot.g - l.g;
          const double rh = tot.h - l.h;
          const double rw = tot.w - l.w;
          if (l.h >= params.min_child_weight &&
              rh >= params.min_child_weight &&
              l.w >= params.min_samples_leaf &&
              rw >= params.min_samples_leaf) {
            const double gain = leaf_gain(l.g, l.h, params.lambda) +
                                leaf_gain(rg, rh, params.lambda) -
                                leaf_gain(tot.g, tot.h, params.lambda);
            if (gain > best[a].gain) {
              best[a] = {gain, static_cast<int>(f),
                         0.5 * (last_value[a] + v)};
            }
          }
        }
        const double w = row_weight[row];
        left[a].g += w * g[row];
        left[a].h += w * h[row];
        left[a].w += w;
        last_value[a] = v;
        has_prev[a] = 1;
      }
    }

    // Materialize splits / leaves and the next level.
    std::vector<int> next_active;
    // child_base[a] = index of node a's left child in next_active, or -1.
    std::vector<int> child_base(na, -1);
    for (std::size_t a = 0; a < na; ++a) {
      const auto node_idx = static_cast<std::size_t>(active[a]);
      // Depth is bounded by the loop itself: splitting at level
      // max_depth-1 creates children that the post-loop pass turns into
      // leaves, so a max_depth=1 tree is a single stump.
      const bool do_split = best[a].feature >= 0 && best[a].gain > params.gamma;
      if (do_split) {
        // emplace_back below may reallocate `nodes`: finish every write
        // through the node reference first and keep the child indices in
        // locals (heap-use-after-free otherwise; caught by ASan).
        const int left_child = static_cast<int>(nodes.size());
        {
          TreeNode& node = nodes[node_idx];
          node.feature = best[a].feature;
          node.threshold = best[a].threshold;
          node.left = left_child;
          node.right = left_child + 1;
        }
        nodes.emplace_back();
        nodes.emplace_back();
        child_base[a] = static_cast<int>(next_active.size());
        next_active.push_back(left_child);
        next_active.push_back(left_child + 1);
      } else {
        TreeNode& node = nodes[node_idx];
        node.feature = -1;
        node.value = total[a].w > 0.0
                         ? -total[a].g / (total[a].h + params.lambda)
                         : 0.0;
      }
    }

    // Route rows to children (or retire them in finished leaves).
    for (std::size_t i = 0; i < n; ++i) {
      const int p = position[i];
      if (p < 0) continue;
      const auto a = static_cast<std::size_t>(p);
      if (child_base[a] < 0) {
        position[i] = -1;
        continue;
      }
      const TreeNode& node = nodes[static_cast<std::size_t>(active[a])];
      const bool goes_left =
          data.feature(i, static_cast<std::size_t>(node.feature)) <
          node.threshold;
      position[i] = child_base[a] + (goes_left ? 0 : 1);
    }
    active = std::move(next_active);
  }

  // Any nodes still active at max depth become leaves.
  if (!active.empty()) {
    std::vector<NodeStats> total(active.size());
    for (std::size_t i = 0; i < n; ++i) {
      const int p = position[i];
      if (p < 0) continue;
      const double w = row_weight[i];
      total[static_cast<std::size_t>(p)].g += w * g[i];
      total[static_cast<std::size_t>(p)].h += w * h[i];
      total[static_cast<std::size_t>(p)].w += w;
    }
    for (std::size_t a = 0; a < active.size(); ++a) {
      TreeNode& node = nodes[static_cast<std::size_t>(active[a])];
      node.feature = -1;
      node.value = total[a].w > 0.0
                       ? -total[a].g / (total[a].h + params.lambda)
                       : 0.0;
    }
  }

  return RegressionTree(std::move(nodes));
}

/// Node-by-node bit equality: feature, threshold bits, children and leaf
/// value bits.
void expect_same_tree(const RegressionTree& want, const RegressionTree& got,
                      const std::string& label) {
  ASSERT_EQ(want.nodes().size(), got.nodes().size()) << label;
  for (std::size_t i = 0; i < want.nodes().size(); ++i) {
    const TreeNode& a = want.nodes()[i];
    const TreeNode& b = got.nodes()[i];
    EXPECT_EQ(a.feature, b.feature) << label << " node " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.threshold),
              std::bit_cast<std::uint64_t>(b.threshold))
        << label << " node " << i;
    EXPECT_EQ(a.left, b.left) << label << " node " << i;
    EXPECT_EQ(a.right, b.right) << label << " node " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value),
              std::bit_cast<std::uint64_t>(b.value))
        << label << " node " << i;
  }
}

/// Columns of every kind. Two-valued: one-hot {0,1} (1 and 9); {±0, 1.5}
/// (lo mixes signed zeros); {-2, ±0} (hi mixes signed zeros); {-3, 7}.
/// Constant: 3.5, and a ±0 mix. General: uniform; the three values
/// {-1, 0, 1}; and shadows 0 and 10 of columns 1 and 9, which hold 0 on
/// the twin's lo-rows and 1 or 2 elsewhere. A shadow's first candidate
/// has exactly its twin's left sums, so the sorted scan ties the two and
/// the lower feature wins: if the row-order sums rounded differently, the
/// twin would win over shadow 0 or lose to shadow 10.
constexpr std::size_t kMixedFeatures = 11;

Dataset mixed_dataset(int n, std::uint64_t seed) {
  Dataset ds(kMixedFeatures);
  Rng rng(seed);
  const auto signed_zero = [&] { return rng.bernoulli(0.5) ? 0.0 : -0.0; };
  const auto shadow = [&](double twin) {
    return twin == 0.0 ? 0.0 : 1.0 + static_cast<double>(rng.uniform_index(2));
  };
  for (int i = 0; i < n; ++i) {
    std::vector<double> x(kMixedFeatures);
    x[1] = rng.bernoulli(0.4) ? 1.0 : 0.0;
    x[0] = shadow(x[1]);
    x[2] = 3.5;
    x[3] = rng.uniform();
    x[4] = rng.bernoulli(0.5) ? 1.5 : signed_zero();
    x[5] = static_cast<double>(rng.uniform_index(3)) - 1.0;
    x[6] = rng.bernoulli(0.3) ? signed_zero() : -2.0;
    x[7] = signed_zero();
    x[8] = rng.bernoulli(0.6) ? 7.0 : -3.0;
    x[9] = rng.bernoulli(0.5) ? 1.0 : 0.0;
    x[10] = shadow(x[9]);
    const double y = 2.0 * x[1] - x[4] + 0.5 * x[5] * x[8] + x[3] +
                     0.3 * x[6] * x[9] + 1.5 * x[9] + 0.1 * rng.normal();
    ds.add(x, y);
  }
  return ds;
}

TEST(TreeTest, ColumnIndexClassifiesColumns) {
  const Dataset ds = mixed_dataset(200, 3);
  const ColumnIndex columns(ds);
  constexpr ColumnKind kTwo = ColumnKind::kTwoValued;
  constexpr ColumnKind kConst = ColumnKind::kConstant;
  constexpr ColumnKind kGen = ColumnKind::kGeneral;
  const std::vector<ColumnKind> want{kGen,  kTwo, kConst, kGen, kTwo, kGen,
                                     kTwo,  kConst, kTwo, kTwo, kGen};
  for (std::size_t f = 0; f < kMixedFeatures; ++f)
    EXPECT_EQ(columns.kind(f), want[f]) << "feature " << f;
  const std::vector<std::uint32_t> two{1, 4, 6, 8, 9};
  const auto got = columns.two_valued();
  EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), two);
  const auto mask = columns.lo_mask();
  ASSERT_EQ(mask.size(), ds.size() * two.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (std::size_t j = 0; j < two.size(); ++j) {
      const auto vals = columns.sorted_values(two[j]);
      EXPECT_EQ(mask[i * two.size() + j],
                ds.feature(i, two[j]) == vals.front() ? 1 : 0);
    }
  }

  Dataset with_nan(1);
  with_nan.add(std::vector<double>{0.0}, 0.0);
  with_nan.add(std::vector<double>{std::nan("")}, 0.0);
  with_nan.add(std::vector<double>{1.0}, 0.0);
  EXPECT_EQ(ColumnIndex(with_nan).kind(0), ColumnKind::kGeneral);
}

struct ExactnessCase {
  std::string name;
  bool unit_h = true;
  bool unit_w = true;
  TreeParams params;
};

std::vector<ExactnessCase> exactness_cases() {
  std::vector<ExactnessCase> cases;
  for (const bool unit_h : {true, false}) {
    for (const bool unit_w : {true, false}) {
      for (const int depth : {1, 3, 7}) {
        for (const int per_node : {-1, 4}) {
          ExactnessCase c;
          c.unit_h = unit_h;
          c.unit_w = unit_w;
          c.params.max_depth = depth;
          c.params.features_per_node = per_node;
          c.params.lambda = depth == 3 ? 0.0 : 1.0;
          c.params.min_child_weight = depth == 7 ? 0.0 : 1.0;
          c.params.min_samples_leaf = per_node > 0 ? 2.0 : 1.0;
          c.name = std::string(unit_h ? "h=1" : "h~U") +
                   (unit_w ? " w01" : " wboot") +
                   " depth=" + std::to_string(depth) +
                   " per_node=" + std::to_string(per_node);
          cases.push_back(c);
        }
      }
    }
  }
  return cases;
}

TEST(TreeTest, TwoValuedScanMatchesSortedScanBitForBit) {
  const Dataset ds = mixed_dataset(300, 11);
  const ColumnIndex columns(ds);
  const std::size_t n = ds.size();
  std::uint64_t seed = 100;
  for (const ExactnessCase& c : exactness_cases()) {
    Rng rng(++seed);
    std::vector<double> g(n), h(n, 1.0), w(n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      g[i] = rng.normal() - ds.target(i);
      if (!c.unit_h) h[i] = 0.5 + 1.5 * rng.uniform();
      // Zero-weight rows in both modes; bootstrap-style multiplicities and
      // fractional weights in the weighted one.
      if (c.unit_w) {
        w[i] = rng.bernoulli(0.2) ? 0.0 : 1.0;
      } else {
        const double draws[] = {0.0, 1.0, 2.0, 3.0, 0.5, 1.7};
        w[i] = draws[rng.uniform_index(6)];
      }
    }
    Rng want_rng(seed * 7), got_rng(seed * 7);
    const RegressionTree want =
        reference_build_tree(ds, columns, g, h, w, c.params, want_rng);
    const RegressionTree got =
        build_tree(ds, columns, g, h, w, c.params, got_rng);
    expect_same_tree(want, got, c.name);
    EXPECT_EQ(want_rng(), got_rng()) << c.name << ": rng consumption";
  }
}

TEST(TreeTest, NonFiniteInputsKeepSortedScan) {
  // 0 × inf is NaN, so a tree with a non-finite product must not take the
  // row-order sums. An infinite hessian on a hi-row leaves the sorted
  // scan's left sums finite and its gains finite; NaN sums would drop
  // those candidates instead.
  const Dataset ds = mixed_dataset(120, 12);
  const ColumnIndex columns(ds);
  const std::size_t n = ds.size();
  const double inf = std::numeric_limits<double>::infinity();
  for (const bool in_gradient : {false, true}) {
    std::vector<double> g(n), h(n, 1.0), w(n, 1.0);
    for (std::size_t i = 0; i < n; ++i) g[i] = -ds.target(i);
    (in_gradient ? g : h)[17] = inf;
    TreeParams params;
    params.max_depth = 3;
    params.min_child_weight = 0.0;
    Rng want_rng(5), got_rng(5);
    expect_same_tree(
        reference_build_tree(ds, columns, g, h, w, params, want_rng),
        build_tree(ds, columns, g, h, w, params, got_rng),
        in_gradient ? "inf gradient" : "inf hessian");
  }
}

TEST(TreeTest, BuildTreeRejectsMismatchedColumnIndex) {
  const Dataset ds = mixed_dataset(40, 13);
  const Dataset other = mixed_dataset(41, 13);
  const ColumnIndex columns(other);
  std::vector<double> g(ds.size(), 1.0), h(ds.size(), 1.0), w(ds.size(), 1.0);
  Rng rng(1);
  EXPECT_THROW(build_tree(ds, columns, g, h, w, TreeParams{}, rng), Error);
}

}  // namespace
}  // namespace anb
