#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "anb/surrogate/dataset.hpp"

namespace anb {

/// One node of a binary regression tree. Internal nodes route
/// x[feature] < threshold to `left`, else `right`; leaves hold `value`.
struct TreeNode {
  int feature = -1;  ///< -1 marks a leaf
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  double value = 0.0;
};

/// A fitted regression tree (prediction only; fitting is
/// done by TreeBuilder so random forests and gradient boosting can share
/// one exact-greedy split engine).
class RegressionTree {
 public:
  RegressionTree() = default;
  explicit RegressionTree(std::vector<TreeNode> nodes);

  double predict(std::span<const double> x) const;

  /// Batched prediction over a row-major matrix (out.size() rows of
  /// `num_features` columns). Performs the same comparisons as predict()
  /// with the per-node bounds check hoisted to one check per call, so the
  /// output is bit-identical to per-row predict().
  void predict_batch(std::span<const double> rows, std::size_t num_features,
                     std::span<double> out) const;

  const std::vector<TreeNode>& nodes() const { return nodes_; }
  int num_leaves() const;

 private:
  std::vector<TreeNode> nodes_;
};

/// Split-search hyperparameters shared by every tree-based surrogate.
///
/// The split criterion is the XGBoost second-order gain
///   gain = GL²/(HL+λ) + GR²/(HR+λ) − G²/(H+λ) − γ
/// with leaf value −G/(H+λ). Plain variance-reduction trees (random
/// forests) are the special case g = −y, h = 1, λ = 0: the gain reduces to
/// the classic sum-of-squares reduction and leaves predict the mean target.
struct TreeParams {
  int max_depth = 6;
  double lambda = 1.0;            ///< L2 regularization on leaf values
  double gamma = 0.0;             ///< minimum gain to split
  double min_child_weight = 1.0;  ///< minimum hessian sum per child
  double min_samples_leaf = 1.0;  ///< minimum (weighted) rows per child
  int features_per_node = -1;     ///< random features per node; -1 = all
};

/// How a column's values split: every value compares equal to one value
/// (constant), to one of exactly two values lo < hi (two-valued, e.g. a
/// one-hot dimension), or anything else, including any NaN (general).
enum class ColumnKind : std::uint8_t { kGeneral, kConstant, kTwoValued };

/// Pre-sorted column view of a dataset; build once, reuse across the trees
/// of a forest/ensemble (exact-greedy scans need sorted feature order).
/// Construction also classifies every column and, for the two-valued ones,
/// keeps a row-major byte mask of the cells equal to `lo`, which lets
/// build_tree find their single candidate split in one sequential pass.
/// Adds the per-kind column counts to anb.fit.columns.{two_valued,
/// constant,general}.
class ColumnIndex {
 public:
  explicit ColumnIndex(const Dataset& data);

  /// Row indices sorted ascending by feature `f`.
  std::span<const std::uint32_t> sorted_rows(std::size_t f) const;
  /// Feature values in the same order as sorted_rows(f) (cached so the
  /// split scan avoids per-element bounds-checked Dataset access).
  std::span<const double> sorted_values(std::size_t f) const;
  std::size_t num_features() const { return num_features_; }
  std::size_t num_rows() const { return num_rows_; }

  ColumnKind kind(std::size_t f) const;
  /// Two-valued features, ascending. Slot j of a lo_mask() row belongs to
  /// two_valued()[j].
  std::span<const std::uint32_t> two_valued() const { return two_valued_; }
  /// Row-major num_rows() × two_valued().size() bytes: 1 where the cell
  /// equals its column's `lo`, else 0.
  std::span<const std::uint8_t> lo_mask() const { return lo_mask_; }

 private:
  std::size_t num_features_;
  std::size_t num_rows_;
  std::vector<std::uint32_t> order_;  // column-major blocks of row ids
  std::vector<double> values_;        // column-major, parallel to order_
  std::vector<ColumnKind> kinds_;
  std::vector<std::uint32_t> two_valued_;
  std::vector<std::uint8_t> lo_mask_;
};

/// Level-wise exact-greedy tree construction from per-row gradients g and
/// hessians h. `row_weight[i]` scales row i's contribution (0 excludes the
/// row; bootstrap multiplicities use weights > 1). Two-valued columns take
/// a row-order fast path whose trees are bit-identical to the sorted scan
/// (DESIGN.md "Parallel training", two-valued split scan).
RegressionTree build_tree(const Dataset& data, const ColumnIndex& columns,
                          std::span<const double> g, std::span<const double> h,
                          std::span<const double> row_weight,
                          const TreeParams& params, Rng& rng);

}  // namespace anb
