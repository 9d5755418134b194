#include "anb/surrogate/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "anb/obs/registry.hpp"
#include "anb/util/error.hpp"
#include "anb/util/parallel.hpp"

namespace anb {

RegressionTree::RegressionTree(std::vector<TreeNode> nodes)
    : nodes_(std::move(nodes)) {
  ANB_CHECK(!nodes_.empty(), "RegressionTree: empty node list");
}

double RegressionTree::predict(std::span<const double> x) const {
  ANB_CHECK(!nodes_.empty(), "RegressionTree::predict: tree not fitted");
  int i = 0;
  while (nodes_[static_cast<std::size_t>(i)].feature >= 0) {
    const auto& n = nodes_[static_cast<std::size_t>(i)];
    ANB_CHECK(static_cast<std::size_t>(n.feature) < x.size(),
              "RegressionTree::predict: feature index out of range");
    i = x[static_cast<std::size_t>(n.feature)] < n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<std::size_t>(i)].value;
}

void RegressionTree::predict_batch(std::span<const double> rows,
                                   std::size_t num_features,
                                   std::span<double> out) const {
  ANB_CHECK(!nodes_.empty(), "RegressionTree::predict_batch: tree not fitted");
  ANB_CHECK(num_features > 0 && rows.size() == out.size() * num_features,
            "RegressionTree::predict_batch: row matrix / output size "
            "mismatch");
  for (const auto& n : nodes_) {
    ANB_CHECK(n.feature < static_cast<int>(num_features),
              "RegressionTree::predict_batch: feature index out of range");
  }
  const TreeNode* const nodes = nodes_.data();
  const double* x = rows.data();
  for (std::size_t i = 0; i < out.size(); ++i, x += num_features) {
    int at = 0;
    while (nodes[at].feature >= 0) {
      const TreeNode& n = nodes[at];
      at = x[n.feature] < n.threshold ? n.left : n.right;
    }
    out[i] = nodes[at].value;
  }
}

int RegressionTree::num_leaves() const {
  int leaves = 0;
  for (const auto& n : nodes_)
    if (n.feature < 0) ++leaves;
  return leaves;
}

ColumnIndex::ColumnIndex(const Dataset& data)
    : num_features_(data.num_features()), num_rows_(data.size()) {
  ANB_CHECK(num_rows_ > 0, "ColumnIndex: empty dataset");
  order_.resize(num_features_ * num_rows_);
  values_.resize(num_features_ * num_rows_);
  kinds_.resize(num_features_);
  // Column slices are disjoint and each stable_sort is deterministic, so the
  // parallel build is bit-identical to a serial one.
  parallel_for(num_features_, [&](std::size_t f) {
    auto* begin = order_.data() + f * num_rows_;
    for (std::size_t i = 0; i < num_rows_; ++i)
      begin[i] = static_cast<std::uint32_t>(i);
    std::stable_sort(begin, begin + num_rows_,
                     [&](std::uint32_t a, std::uint32_t b) {
                       return data.feature(a, f) < data.feature(b, f);
                     });
    auto* vals = values_.data() + f * num_rows_;
    for (std::size_t i = 0; i < num_rows_; ++i)
      vals[i] = data.feature(begin[i], f);
    // Sorted ascending, so every strict step between neighbours starts a
    // new distinct value.
    std::size_t steps = 0;
    bool has_nan = false;
    for (std::size_t i = 0; i < num_rows_; ++i) {
      has_nan = has_nan || std::isnan(vals[i]);
      if (i > 0 && vals[i - 1] < vals[i]) ++steps;
    }
    kinds_[f] = has_nan || steps > 1 ? ColumnKind::kGeneral
                : steps == 1         ? ColumnKind::kTwoValued
                                     : ColumnKind::kConstant;
  });

  std::size_t constant = 0;
  for (std::size_t f = 0; f < num_features_; ++f) {
    if (kinds_[f] == ColumnKind::kTwoValued)
      two_valued_.push_back(static_cast<std::uint32_t>(f));
    if (kinds_[f] == ColumnKind::kConstant) ++constant;
  }
  const std::size_t k = two_valued_.size();
  const auto x = data.features_flat();
  lo_mask_.resize(num_rows_ * k);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t f = two_valued_[j];
    const double hi = values_[f * num_rows_ + num_rows_ - 1];
    for (std::size_t i = 0; i < num_rows_; ++i)
      lo_mask_[i * k + j] = x[i * num_features_ + f] < hi ? 1 : 0;
  }
  obs::counter("anb.fit.columns.two_valued").add(k);
  obs::counter("anb.fit.columns.constant").add(constant);
  obs::counter("anb.fit.columns.general").add(num_features_ - k - constant);
}

std::span<const double> ColumnIndex::sorted_values(std::size_t f) const {
  ANB_CHECK(f < num_features_, "ColumnIndex: feature out of range");
  return {values_.data() + f * num_rows_, num_rows_};
}

std::span<const std::uint32_t> ColumnIndex::sorted_rows(std::size_t f) const {
  ANB_CHECK(f < num_features_, "ColumnIndex: feature out of range");
  return {order_.data() + f * num_rows_, num_rows_};
}

ColumnKind ColumnIndex::kind(std::size_t f) const {
  ANB_CHECK(f < num_features_, "ColumnIndex: feature out of range");
  return kinds_[f];
}

namespace {

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

/// Per active node and two-valued slot (index node * k + slot): the sums
/// over the node's lo-rows that the sorted scan holds in its left
/// accumulator when it reaches the node's first hi-row.
struct LoSums {
  std::vector<double> g, h, w;       // h and w stay empty for unit rows
  std::vector<std::uint32_t> count;  // lo-rows
  std::vector<std::uint32_t> rows;   // per node: all of its rows
};

/// One sequential pass over the rows. ColumnIndex's stable_sort keeps tied
/// rows in row order, so the sorted scan adds a node's lo-rows in
/// ascending row order too; here each sum adds mask × product for every
/// row of the node in that order. A product times 1 is itself and times 0
/// is ±0, and adding ±0 to a sum that started at +0 never changes it (such
/// a sum is never −0), so each sum is bit-identical to the sorted scan's as
/// long as every product is finite. The slot loop carries no dependence
/// between iterations, so it vectorizes.
LoSums sum_lo_rows(const ColumnIndex& columns, std::span<const int> position,
                   std::size_t na, std::span<const double> wg,
                   std::span<const double> wh,
                   std::span<const double> row_weight, bool unit) {
  const std::size_t k = columns.two_valued().size();
  LoSums s;
  s.g.assign(na * k, 0.0);
  s.count.assign(na * k, 0);
  s.rows.assign(na, 0);
  if (!unit) {
    s.h.assign(na * k, 0.0);
    s.w.assign(na * k, 0.0);
  }
  const std::uint8_t* const mask = columns.lo_mask().data();
  for (std::size_t i = 0; i < position.size(); ++i) {
    const int p = position[i];
    if (p < 0) continue;
    const auto a = static_cast<std::size_t>(p);
    ++s.rows[a];
    const std::uint8_t* __restrict m = mask + i * k;
    double* __restrict sg = s.g.data() + a * k;
    std::uint32_t* __restrict sc = s.count.data() + a * k;
    const double rg = wg[i];
    for (std::size_t j = 0; j < k; ++j) {
      sg[j] += m[j] * rg;
      sc[j] += m[j];
    }
    if (unit) continue;
    double* __restrict sh = s.h.data() + a * k;
    double* __restrict sw = s.w.data() + a * k;
    const double rh = wh[i];
    const double rw = row_weight[i];
    for (std::size_t j = 0; j < k; ++j) {
      sh[j] += m[j] * rh;
      sw[j] += m[j] * rw;
    }
  }
  return s;
}

}  // namespace

RegressionTree build_tree(const Dataset& data, const ColumnIndex& columns,
                          std::span<const double> g, std::span<const double> h,
                          std::span<const double> row_weight,
                          const TreeParams& params, Rng& rng) {
  const std::size_t n = data.size();
  const std::size_t d = data.num_features();
  ANB_CHECK(g.size() == n && h.size() == n && row_weight.size() == n,
            "build_tree: gradient/weight arrays must match dataset size");
  ANB_CHECK(columns.num_features() == d && columns.num_rows() == n,
            "build_tree: column index shape mismatch");
  ANB_CHECK(params.max_depth >= 1, "build_tree: max_depth must be >= 1");
  ANB_CHECK(params.lambda >= 0.0, "build_tree: lambda must be >= 0");

  std::vector<TreeNode> nodes(1);
  // position[i]: index into `active` of the node row i currently sits in.
  std::vector<int> position(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    if (row_weight[i] == 0.0) position[i] = -1;

  // Two-valued columns have a single candidate split, between lo and hi;
  // its left sums come from sum_lo_rows instead of the sorted scan. Unit
  // rows (every weight 1, every h 1) make the h and w sums the lo-row
  // count. A non-finite product would turn 0 × it into NaN, so such a
  // tree keeps the sorted scan for every column.
  const std::size_t k = columns.two_valued().size();
  std::vector<double> wg, wh;
  bool unit = true;
  bool finite = true;
  if (k > 0) {
    wg.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (position[i] < 0) continue;
      unit = unit && row_weight[i] == 1.0 && h[i] == 1.0;
      wg[i] = row_weight[i] * g[i];
      finite = finite && std::isfinite(wg[i]);
    }
    if (!unit) {
      wh.assign(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        if (position[i] < 0) continue;
        wh[i] = row_weight[i] * h[i];
        finite = finite && std::isfinite(wh[i]) &&
                 std::isfinite(row_weight[i]);
      }
    }
  }
  const bool row_order = k > 0 && finite;

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
    // Scores the split of node a on feature f between values lo < hi, with
    // left sums l; candidates arrive per node in ascending (feature, value)
    // order and only a strictly better gain replaces the best.
    const auto consider = [&](std::size_t a, std::size_t f,
                              const NodeStats& l, double lo, double hi) {
      const NodeStats& tot = total[a];
      const double rg = tot.g - l.g;
      const double rh = tot.h - l.h;
      const double rw = tot.w - l.w;
      if (l.h >= params.min_child_weight && rh >= params.min_child_weight &&
          l.w >= params.min_samples_leaf && rw >= params.min_samples_leaf) {
        const double gain = leaf_gain(l.g, l.h, params.lambda) +
                            leaf_gain(rg, rh, params.lambda) -
                            leaf_gain(tot.g, tot.h, params.lambda);
        if (gain > best[a].gain)
          best[a] = {gain, static_cast<int>(f), 0.5 * (lo + hi)};
      }
    };

    LoSums lo_sums;
    if (row_order)
      lo_sums = sum_lo_rows(columns, position, na, wg, wh, row_weight, unit);
    // Left-accumulator state per node, reset for each sorted feature scan.
    std::vector<NodeStats> left(na);
    std::vector<double> last_value(na, 0.0);
    std::vector<char> has_prev(na, 0);

    std::size_t slot = 0;  // next two-valued slot
    for (std::size_t f = 0; f < d; ++f) {
      const ColumnKind kind = columns.kind(f);
      // A constant column has no step between values, hence no candidate.
      if (kind == ColumnKind::kConstant) continue;

      if (kind == ColumnKind::kTwoValued && row_order) {
        const std::size_t j = slot++;
        const auto vals = columns.sorted_values(f);
        for (std::size_t a = 0; a < na; ++a) {
          const std::size_t at = a * k + j;
          const std::uint32_t lo_rows = lo_sums.count[at];
          if (lo_rows == 0 || lo_rows == lo_sums.rows[a]) continue;
          if (subsample_features && !allowed[a * d + f]) continue;
          const auto c = static_cast<double>(lo_rows);
          const NodeStats l = unit ? NodeStats{lo_sums.g[at], c, c}
                                   : NodeStats{lo_sums.g[at], lo_sums.h[at],
                                               lo_sums.w[at]};
          consider(a, f, l, vals.front(), vals.back());
        }
        continue;
      }

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
        // Candidate split between last_value and v.
        if (has_prev[a] && v > last_value[a])
          consider(a, f, left[a], last_value[a], v);
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

}  // namespace anb
