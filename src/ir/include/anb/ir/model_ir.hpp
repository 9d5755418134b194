#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace anb {

/// Primitive operator kinds produced by lowering a search-space model.
///
/// Squeeze-and-excitation is decomposed into GlobalAvgPool + two
/// FullyConnected layers + a channel-wise Scale so device models can price
/// each stage separately (the global pooling is what stalls DPU pipelines).
/// Activations and batch-norm are folded into the preceding conv, matching
/// deployment graphs after standard inference-time fusion.
enum class OpKind {
  kConv2d,           ///< regular convolution (stem, expand/project 1x1, head)
  kDepthwiseConv2d,  ///< depthwise k×k convolution
  kGlobalAvgPool,    ///< spatial global average pooling
  kFullyConnected,   ///< dense layer (SE squeeze/excite, classifier)
  kScale,            ///< channel-wise multiply (SE apply)
  kAdd,              ///< element-wise residual addition
};

const char* op_kind_name(OpKind kind);

/// One executable layer with fully resolved tensor shapes and costs.
/// Element counts are stored instead of bytes so devices can apply their own
/// datatype width (fp16 on GPUs/TPUs, int8 on DPUs).
struct Layer {
  OpKind kind = OpKind::kConv2d;
  std::string name;  ///< e.g. "b3.l1.dwconv"

  int in_h = 1, in_w = 1, in_c = 1;
  int out_h = 1, out_w = 1, out_c = 1;
  int kernel = 1;
  int stride = 1;

  std::uint64_t macs = 0;          ///< multiply-accumulate count
  std::uint64_t params = 0;        ///< weights incl. folded BN scale/shift
  std::uint64_t input_elems = 0;   ///< activation reads
  std::uint64_t output_elems = 0;  ///< activation writes
  std::uint64_t weight_elems = 0;  ///< parameter reads
};

/// A fully expanded model: an architecture lowered onto its space's fixed
/// macro-skeleton at a given input resolution (SpaceSim::lower in anb/anb).
struct ModelIR {
  int resolution = 224;
  std::vector<Layer> layers;

  std::uint64_t total_macs() const;
  std::uint64_t total_params() const;
  /// Total activation element traffic (reads + writes across layers).
  std::uint64_t total_activation_elems() const;
  /// GFLOPs counting one MAC as two floating-point operations.
  double gflops() const;
  /// Parameter count in millions.
  double mparams() const;
};

}  // namespace anb
