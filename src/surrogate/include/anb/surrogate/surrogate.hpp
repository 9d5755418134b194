#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "anb/surrogate/dataset.hpp"
#include "anb/util/json.hpp"

namespace anb::bin {
class Writer;
class Reader;
}  // namespace anb::bin

namespace anb {

class TrainContext;

/// Fit-quality metrics used throughout the paper (Tables 1 & 2).
struct FitMetrics {
  double r2 = 0.0;
  double kendall_tau = 0.0;
  double mae = 0.0;
  double rmse = 0.0;
};

/// Common interface of all predictive models used to build the benchmark
/// (XGB-style boosting, LGB-style histogram boosting, random forests,
/// ε-SVR, ν-SVR). A surrogate maps an architecture feature vector to a
/// scalar (accuracy, throughput, or latency) in microseconds — this is what
/// makes benchmark queries "zero-cost".
class Surrogate {
 public:
  virtual ~Surrogate() = default;

  /// Fit on a training set. May be called again to refit from scratch.
  virtual void fit(const Dataset& train, Rng& rng) = 0;

  /// Fit reusing the shared per-dataset index structures in `ctx`
  /// (ColumnIndex, BinnedMatrix). `ctx.data()` must be `train`. Produces a
  /// model bit-identical to fit(train, rng) — the context only removes
  /// redundant preprocessing, it never changes the training computation.
  /// Families without precomputable structure (SVR) fall back to the plain
  /// fit; tree families override.
  virtual void fit(const Dataset& train, TrainContext& ctx, Rng& rng);

  /// Predict one example; requires fit() to have been called.
  virtual double predict(std::span<const double> x) const = 0;

  /// Short identifier ("xgb", "lgb", "rf", "esvr", "nusvr").
  virtual std::string name() const = 0;

  /// Serialize into a binary artifact: large arrays (forest nodes, support
  /// vectors) are appended to `w` as raw sections in their in-memory
  /// layout; the returned Json is the small meta record (type tag, params,
  /// section indices) that surrogate_from_binary() consumes. Predictions of
  /// the reloaded model are bit-identical to this model's.
  virtual Json to_binary(bin::Writer& w) const = 0;

  /// Predict a batch of rows: `rows` is a row-major matrix of
  /// out.size() rows by `num_features` columns; prediction for row i is
  /// written to out[i]. Runs on the calling thread.
  ///
  /// Contract: the output is bit-identical to calling predict() on each
  /// row (tests/surrogate/predict_batch_test.cpp). The base implementation
  /// is exactly that scalar loop; tree ensembles and SVR override it with
  /// vectorized paths (flattened-forest traversal, blocked kernel
  /// expansion) that preserve per-row operation order.
  virtual void predict_batch(std::span<const double> rows,
                             std::size_t num_features,
                             std::span<double> out) const;

  /// Batched prediction parallelized over row chunks with anb::parallel_for
  /// (chunking is a pure partition, so results are deterministic and equal
  /// to predict_batch / per-row predict). This is the serving hot path.
  void predict_matrix(std::span<const double> rows, std::size_t num_features,
                      std::span<double> out) const;

  /// Predict every row of a dataset (routed through predict_matrix).
  std::vector<double> predict_all(const Dataset& data) const;

  /// Evaluate on a labelled dataset.
  FitMetrics evaluate(const Dataset& data) const;
};

/// Reconstruct a fitted surrogate from a to_binary() meta record plus the
/// artifact reader holding its array sections. Array data may be zero-copy
/// views into the reader's buffer (mmap), which the surrogate keeps alive.
/// Dispatches on the "type" tag; throws anb::Error on any malformed or
/// corrupted payload.
std::unique_ptr<Surrogate> surrogate_from_binary(const Json& meta,
                                                 const bin::Reader& r);

/// The model's binary image: its to_binary() meta record dumped as JSON,
/// followed by the container bytes holding its array sections. A fitted
/// model's identity — equal images mean equal models, byte for byte.
std::string binary_image(const Surrogate& model);

}  // namespace anb
