#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "anb/searchspace/space.hpp"
#include "anb/util/rng.hpp"

namespace anb {

/// Candidate operator of one FBNet-style searchable layer: a mobile
/// inverted bottleneck with the given expansion/kernel, or identity skip.
/// Decision i of an FBNet genotype is the FbnetOp value of layer i.
enum class FbnetOp {
  kE1K3,  ///< MBConv e=1 k=3
  kE1K5,
  kE3K3,
  kE3K5,
  kE6K3,
  kE6K5,
  kSkip,  ///< identity (only legal where shape is preserved)
};

inline constexpr int kFbnetNumOps = 7;
inline constexpr int kFbnetNumLayers = 22;

const char* fbnet_op_name(FbnetOp op);
int fbnet_op_expansion(FbnetOp op);  ///< throws for kSkip
int fbnet_op_kernel(FbnetOp op);     ///< throws for kSkip

/// The layer-wise generalizability search space (paper §3.1: "for
/// experiments with additional search spaces ... see our GitHub"; FBNet [17]
/// is the space HW-NAS-Bench also covers), registered as SpaceId::kFbnet.
///
/// Macro-skeleton (fixed): stem 16ch s2, then 22 searchable TBS layers over
/// stages with channels (16,24,32,64,112,184,352) and per-stage layer counts
/// (1,4,4,4,4,4,1); head 1504ch, 1000 classes. Identity skip is legal only
/// on layers whose input and output shapes match (never the first layer of
/// a strided or channel-changing stage) — the genotype encodes that by
/// giving skip-legal layers 7 options and the rest 6, so every in-range
/// decision vector is a legal architecture and the index bijection is
/// gap-free. Cardinality 6^7 · 7^15 ≈ 1.3×10^18 (fits std::uint64_t).
class FbnetSpace final : public SearchSpace {
 public:
  struct LayerSlot {
    int out_c = 16;
    int stride = 1;
    bool skip_allowed = false;
  };

  /// The process-wide instance. Resolvable through the registry only
  /// after register_builtin_spaces() (or an explicit register_space).
  static const FbnetSpace& instance();

  static const std::array<LayerSlot, kFbnetNumLayers>& slots();
  static constexpr int kStemChannels = 16;
  static constexpr int kHeadChannels = 1504;

  /// Option count of layer `i` (7 where skip is legal, else 6).
  static int num_ops(int layer);
  static double log10_cardinality();

  SpaceId id() const override { return SpaceId::kFbnet; }
  int num_decisions() const override { return kFbnetNumLayers; }
  const std::vector<int>& decision_sizes() const override;
  int feature_dim() const override { return kFbnetNumLayers * kFbnetNumOps; }
  Arch sample(Rng& rng) const override;
  /// One-hot encoding, kFbnetNumLayers x kFbnetNumOps = 154 dims (illegal
  /// skip positions simply never activate their last column).
  std::vector<double> features(const Arch& arch) const override;
  /// Dash-separated op names, one per layer (fbnet_op_name).
  std::string arch_to_string(const Arch& arch) const override;
  Arch arch_from_string(const std::string& s) const override;
};

/// Register every in-tree space (currently FbnetSpace; MnasSpace is always
/// resolvable) with the searchspace registry. Idempotent and thread-safe;
/// call before resolving SpaceId::kFbnet through anb::space(). Linking
/// anb_fbnet alone does not register — static initialization order and
/// linker dead-stripping make that unreliable, so registration is explicit.
void register_builtin_spaces();

}  // namespace anb
