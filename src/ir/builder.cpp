#include "anb/ir/builder.hpp"

#include <algorithm>

#include "anb/util/error.hpp"

namespace anb {

namespace {
int ceil_div(int a, int b) { return (a + b - 1) / b; }

/// SE bottleneck width: the EfficientNet convention.
int se_channels(int block_in_c) { return std::max(1, block_in_c / 4); }
}  // namespace

IrBuilder::IrBuilder(int resolution) : h_(resolution), w_(resolution), c_(3) {
  ANB_CHECK(resolution >= 1, "IrBuilder: resolution must be >= 1");
}

void IrBuilder::fill_in_shape(Layer& l) {
  l.in_h = h_;
  l.in_w = w_;
  l.in_c = c_;
  l.input_elems = static_cast<std::uint64_t>(h_) *
                  static_cast<std::uint64_t>(w_) *
                  static_cast<std::uint64_t>(c_);
}

void IrBuilder::finish(Layer& l) {
  l.output_elems = static_cast<std::uint64_t>(l.out_h) *
                   static_cast<std::uint64_t>(l.out_w) *
                   static_cast<std::uint64_t>(l.out_c);
  h_ = l.out_h;
  w_ = l.out_w;
  c_ = l.out_c;
  layers_.push_back(l);
}

void IrBuilder::conv(const std::string& name, int out_c, int kernel,
                     int stride) {
  Layer l;
  l.kind = OpKind::kConv2d;
  l.name = name;
  fill_in_shape(l);
  l.kernel = kernel;
  l.stride = stride;
  l.out_h = ceil_div(h_, stride);
  l.out_w = ceil_div(w_, stride);
  l.out_c = out_c;
  const auto spatial =
      static_cast<std::uint64_t>(l.out_h) * static_cast<std::uint64_t>(l.out_w);
  l.macs = spatial * static_cast<std::uint64_t>(out_c) *
           static_cast<std::uint64_t>(c_) * static_cast<std::uint64_t>(kernel) *
           static_cast<std::uint64_t>(kernel);
  l.weight_elems = static_cast<std::uint64_t>(kernel) *
                   static_cast<std::uint64_t>(kernel) *
                   static_cast<std::uint64_t>(c_) *
                   static_cast<std::uint64_t>(out_c);
  l.params = l.weight_elems + 2ull * static_cast<std::uint64_t>(out_c);
  finish(l);
}

void IrBuilder::dwconv(const std::string& name, int kernel, int stride) {
  Layer l;
  l.kind = OpKind::kDepthwiseConv2d;
  l.name = name;
  fill_in_shape(l);
  l.kernel = kernel;
  l.stride = stride;
  l.out_h = ceil_div(h_, stride);
  l.out_w = ceil_div(w_, stride);
  l.out_c = c_;
  const auto spatial =
      static_cast<std::uint64_t>(l.out_h) * static_cast<std::uint64_t>(l.out_w);
  l.macs = spatial * static_cast<std::uint64_t>(c_) *
           static_cast<std::uint64_t>(kernel) *
           static_cast<std::uint64_t>(kernel);
  l.weight_elems = static_cast<std::uint64_t>(kernel) *
                   static_cast<std::uint64_t>(kernel) *
                   static_cast<std::uint64_t>(c_);
  l.params = l.weight_elems + 2ull * static_cast<std::uint64_t>(c_);
  finish(l);
}

void IrBuilder::global_avg_pool(const std::string& name) {
  Layer l;
  l.kind = OpKind::kGlobalAvgPool;
  l.name = name;
  fill_in_shape(l);
  l.out_h = 1;
  l.out_w = 1;
  l.out_c = c_;
  l.macs = static_cast<std::uint64_t>(h_) * static_cast<std::uint64_t>(w_) *
           static_cast<std::uint64_t>(c_);
  l.weight_elems = 0;
  l.params = 0;
  finish(l);
}

void IrBuilder::fully_connected(const std::string& name, int out_c) {
  Layer l;
  l.kind = OpKind::kFullyConnected;
  l.name = name;
  fill_in_shape(l);
  ANB_ASSERT(h_ == 1 && w_ == 1, "fully_connected requires 1x1 spatial");
  l.out_h = 1;
  l.out_w = 1;
  l.out_c = out_c;
  l.macs = static_cast<std::uint64_t>(c_) * static_cast<std::uint64_t>(out_c);
  l.weight_elems = l.macs;
  l.params = l.weight_elems + static_cast<std::uint64_t>(out_c);
  finish(l);
}

void IrBuilder::scale(const std::string& name, int main_h, int main_w) {
  Layer l;
  l.kind = OpKind::kScale;
  l.name = name;
  // Reads both the gate (c) and the main activation (main_h*main_w*c).
  l.in_h = main_h;
  l.in_w = main_w;
  l.in_c = c_;
  l.input_elems = static_cast<std::uint64_t>(main_h) *
                      static_cast<std::uint64_t>(main_w) *
                      static_cast<std::uint64_t>(c_) +
                  static_cast<std::uint64_t>(c_);
  l.out_h = main_h;
  l.out_w = main_w;
  l.out_c = c_;
  l.macs = static_cast<std::uint64_t>(main_h) *
           static_cast<std::uint64_t>(main_w) * static_cast<std::uint64_t>(c_);
  l.weight_elems = 0;
  l.params = 0;
  l.output_elems = l.macs;
  h_ = main_h;
  w_ = main_w;
  layers_.push_back(l);
}

void IrBuilder::add(const std::string& name) {
  Layer l;
  l.kind = OpKind::kAdd;
  l.name = name;
  fill_in_shape(l);
  l.input_elems *= 2;  // two operands
  l.out_h = h_;
  l.out_w = w_;
  l.out_c = c_;
  l.macs = static_cast<std::uint64_t>(h_) * static_cast<std::uint64_t>(w_) *
           static_cast<std::uint64_t>(c_);
  l.weight_elems = 0;
  l.params = 0;
  finish(l);
}

void IrBuilder::mbconv(const std::string& prefix, int out_c, int expansion,
                       int kernel, int stride, bool se) {
  const int block_in_c = c_;
  const int expanded_c = block_in_c * expansion;
  const bool residual = stride == 1 && block_in_c == out_c;

  if (expansion != 1) {
    conv(prefix + ".expand", expanded_c, 1, 1);
  }
  dwconv(prefix + ".dwconv", kernel, stride);
  if (se) {
    const int dw_h = h_;
    const int dw_w = w_;
    const int se_c = se_channels(block_in_c);
    global_avg_pool(prefix + ".se.pool");
    fully_connected(prefix + ".se.squeeze", se_c);
    fully_connected(prefix + ".se.excite", expanded_c);
    scale(prefix + ".se.scale", dw_h, dw_w);
  }
  conv(prefix + ".project", out_c, 1, 1);
  if (residual) {
    add(prefix + ".residual");
  }
}

std::vector<Layer> IrBuilder::take() { return std::move(layers_); }

}  // namespace anb
