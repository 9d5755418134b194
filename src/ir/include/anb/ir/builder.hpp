#pragma once

#include <string>
#include <vector>

#include "anb/ir/model_ir.hpp"

namespace anb {

/// Incremental layer-graph builder: tracks the current tensor shape and
/// appends fully-costed layers. Every search space lowers through it
/// (SpaceSim::lower), so every space produces the same ModelIR the device
/// models consume.
class IrBuilder {
 public:
  explicit IrBuilder(int resolution);

  int h() const { return h_; }
  int w() const { return w_; }
  int c() const { return c_; }

  /// Regular convolution (stride with SAME padding), BN folded.
  void conv(const std::string& name, int out_c, int kernel, int stride);
  /// Depthwise k x k convolution.
  void dwconv(const std::string& name, int kernel, int stride);
  /// Spatial global average pooling to 1x1.
  void global_avg_pool(const std::string& name);
  /// Dense layer; requires the current shape to be 1x1 spatial.
  void fully_connected(const std::string& name, int out_c);
  /// SE gate: channel-wise multiply broadcast over (main_h, main_w);
  /// restores the spatial shape after the pooled SE side path.
  void scale(const std::string& name, int main_h, int main_w);
  /// Element-wise residual addition at the current shape.
  void add(const std::string& name);

  /// One full mobile inverted bottleneck layer (expand -> dwconv -> [SE] ->
  /// project -> [residual]); the SE bottleneck is max(1, in_c / 4) wide.
  void mbconv(const std::string& prefix, int out_c, int expansion, int kernel,
              int stride, bool se);

  std::vector<Layer> take();

 private:
  void fill_in_shape(Layer& l);
  void finish(Layer& l);

  int h_, w_, c_;
  std::vector<Layer> layers_;
};

}  // namespace anb
