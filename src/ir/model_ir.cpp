#include "anb/ir/model_ir.hpp"

namespace anb {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kConv2d: return "conv2d";
    case OpKind::kDepthwiseConv2d: return "dwconv2d";
    case OpKind::kGlobalAvgPool: return "gavgpool";
    case OpKind::kFullyConnected: return "fc";
    case OpKind::kScale: return "scale";
    case OpKind::kAdd: return "add";
  }
  return "unknown";
}

std::uint64_t ModelIR::total_macs() const {
  std::uint64_t total = 0;
  for (const auto& l : layers) total += l.macs;
  return total;
}

std::uint64_t ModelIR::total_params() const {
  std::uint64_t total = 0;
  for (const auto& l : layers) total += l.params;
  return total;
}

std::uint64_t ModelIR::total_activation_elems() const {
  std::uint64_t total = 0;
  for (const auto& l : layers) total += l.input_elems + l.output_elems;
  return total;
}

double ModelIR::gflops() const {
  return 2.0 * static_cast<double>(total_macs()) / 1e9;
}

double ModelIR::mparams() const {
  return static_cast<double>(total_params()) / 1e6;
}

}  // namespace anb
